// Package llm defines the language-model client abstraction used by every
// Unify component (planner, operators, cardinality estimator, baselines)
// and provides Sim, a deterministic simulated backend that substitutes for
// the paper's locally served Llama models.
//
// All components describe a call as a Request (request.go) and send it
// with Do; a model receives it through Client.Complete as a textual prompt
// in a fixed directive format (see prompt.go) and answers with text plus
// token counts and a simulated duration. The simulated
// duration follows the paper's §VI-A cost model: time is proportional to
// output tokens, with input tokens contributing negligibly.
package llm

import (
	"context"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// PrefillTokenFactor is the fraction of the per-output-token cost charged
// for each input (prompt) token: prefill is 1-5% of latency in the paper's
// §VI-A measurements. It is the amortizable part of a call's cost — a
// batched invocation pays the shared prompt template's prefill once.
// Deliberately distinct from the Sim noise model's DefaultFilterNoise,
// which happens to share the same magnitude.
const PrefillTokenFactor = 0.015

// Response is the result of one model invocation.
type Response struct {
	Text      string
	InTokens  int
	OutTokens int
	// Dur is the simulated wall-clock duration of the call on one model
	// slot. Executors feed these into the vtime scheduler.
	Dur time.Duration
	// Cached marks a response served from the shared response cache: it
	// cost zero virtual time and never occupied a model slot.
	Cached bool
	// Retries counts the failed attempts absorbed by the resilience
	// layer before this response succeeded (0 on the first try).
	Retries int
	// BatchKey is the co-scheduling compatibility key stamped by the
	// Batching wrapper: calls with equal non-empty keys may share one
	// batched invocation. Empty when batching is off or the task is not
	// batchable.
	BatchKey string
	// TemplateTokens counts the tokens of the call's prompt scaffold
	// (directive plus field names, payload values removed) — the part of
	// prefill a batch pays once. Zero unless BatchKey is set.
	TemplateTokens int
	// PayloadKey identifies the call's document payload (a hash of the
	// doc/docs field values). Co-batched calls with equal payload keys
	// scan the same documents — different queries over the same corpus
	// chunk — so the batched invocation prefills that payload once,
	// singleflight-style. Empty unless BatchKey is set.
	PayloadKey string
}

// Profile describes a served model's identity and speed.
type Profile struct {
	Name        string        // e.g. "sim-llama-70b"
	Base        time.Duration // fixed overhead per invocation
	PerOutToken time.Duration // marginal time per generated token
}

// CallDur returns the simulated duration for a call generating outTokens.
func (p Profile) CallDur(outTokens int) time.Duration {
	if outTokens < 1 {
		outTokens = 1
	}
	return p.Base + time.Duration(outTokens)*p.PerOutToken
}

// DurFor returns the simulated duration of a call with the given input
// and output token counts. Input tokens contribute ~4% of the per-token
// cost, matching the paper's observation that prefill is 1-5% of latency.
func (p Profile) DurFor(inTokens, outTokens int) time.Duration {
	d := p.CallDur(outTokens)
	if inTokens > 0 {
		d += time.Duration(float64(inTokens) * PrefillTokenFactor * float64(p.PerOutToken))
	}
	return d
}

// PlannerProfile mirrors the paper's Llama-3.1-70B planner deployment
// (large, slow model used for plan generation).
func PlannerProfile() Profile {
	return Profile{Name: "sim-llama-70b", Base: 250 * time.Millisecond, PerOutToken: 35 * time.Millisecond}
}

// WorkerProfile mirrors the paper's Llama-3.1-8B operator executor (small,
// fast model used for per-document operator work).
func WorkerProfile() Profile {
	return Profile{Name: "sim-llama-8b", Base: 80 * time.Millisecond, PerOutToken: 20 * time.Millisecond}
}

// Client is a language model endpoint.
type Client interface {
	// Complete runs one prompt and returns the model's response.
	Complete(ctx context.Context, prompt string) (Response, error)
	// Profile reports the served model's identity and speed parameters.
	Profile() Profile
}

// CountTokens approximates a tokenizer: whitespace-separated fields (as
// strings.Fields delimits them) plus a third to account for sub-word
// splitting, matching the coarse granularity the cost model needs.
func CountTokens(s string) int {
	n := 0
	prevSpace := true
	for i := 0; i < len(s); i++ {
		space := asciiSpace[s[i]]
		if s[i] >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
			i += size - 1
		}
		if prevSpace && !space {
			n++
		}
		prevSpace = space
	}
	return n + n/3
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Call records one model invocation for cost accounting.
type Call struct {
	Task      string
	InTokens  int
	OutTokens int
	Dur       time.Duration
	// Cached marks a call answered by the response cache (Dur is zero and
	// the call bypassed the slot pool).
	Cached bool
	// Retries counts failed attempts absorbed before this call succeeded.
	Retries int
	// BatchKey, TemplateTokens, and PayloadKey carry the Batching
	// wrapper's co-scheduling metadata through to the executor (see
	// Response).
	BatchKey       string
	TemplateTokens int
	PayloadKey     string
}

// Recorder wraps a Client and records every call. Operators wrap their
// client in a fresh Recorder so executions can be charged to the virtual
// clock and fed to the cost-model calibrator.
type Recorder struct {
	inner Client

	mu    sync.Mutex
	calls []Call
}

// NewRecorder returns a Recorder around inner.
func NewRecorder(inner Client) *Recorder {
	return &Recorder{inner: inner}
}

// Complete implements Client.
func (r *Recorder) Complete(ctx context.Context, prompt string) (Response, error) {
	return r.Do(ctx, RawRequest(prompt))
}

// Do implements Doer, recording the call.
func (r *Recorder) Do(ctx context.Context, req *Request) (Response, error) {
	resp, err := Do(ctx, r.inner, req)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.calls = append(r.calls, Call{Task: req.Task(), InTokens: resp.InTokens, OutTokens: resp.OutTokens, Dur: resp.Dur, Cached: resp.Cached, Retries: resp.Retries, BatchKey: resp.BatchKey, TemplateTokens: resp.TemplateTokens, PayloadKey: resp.PayloadKey})
	r.mu.Unlock()
	return resp, nil
}

// Profile implements Client.
func (r *Recorder) Profile() Profile { return r.inner.Profile() }

// Unwrap returns the wrapped client.
func (r *Recorder) Unwrap() Client { return r.inner }

// Calls returns a copy of the recorded calls.
func (r *Recorder) Calls() []Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Call, len(r.calls))
	copy(out, r.calls)
	return out
}

// Reset clears the recorded calls.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.calls = nil
	r.mu.Unlock()
}

// TotalDur sums the durations of all recorded calls.
func (r *Recorder) TotalDur() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, c := range r.calls {
		d += c.Dur
	}
	return d
}
