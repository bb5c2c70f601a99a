package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"
)

// RetryPolicy configures a Resilient wrapper.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call (retries + 1). Values < 1
	// mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the first retry's virtual delay; each further retry
	// doubles it (capped at MaxBackoff), with deterministic jitter.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// CallTimeout bounds each attempt's wall-clock processing time
	// (guards real backends; the simulated backend never sleeps).
	CallTimeout time.Duration
	// HedgeAfter, when positive, hedges slow calls: a successful response
	// whose simulated duration exceeds this threshold triggers one backup
	// request against another slot, and the faster outcome wins.
	HedgeAfter time.Duration
}

// DefaultRetryPolicy is the policy used when fault injection is enabled:
// up to 3 retries with 50ms..2s backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Seed:        17,
	}
}

// Resilient wraps a Client with bounded retry, exponential backoff with
// deterministic jitter, per-attempt timeouts, and optional hedged
// requests. It is virtual-time aware: the simulated cost of failed
// attempts and backoff waits is folded into the successful response's
// duration, so the latency model still charges the slot pool for the
// work the faults consumed.
//
// Only transient failures (IsTransient) are retried; permanent errors —
// malformed prompts, unknown tasks — surface immediately.
type Resilient struct {
	inner Client
	pol   RetryPolicy
	// onEvent observes resilience events ("retry", "hedge", "exhausted")
	// with the call's task family; nil is ignored.
	onEvent func(event, task string)
}

// NewResilient wraps inner under the given policy. onEvent may be nil.
func NewResilient(inner Client, pol RetryPolicy, onEvent func(event, task string)) *Resilient {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	if pol.BaseBackoff <= 0 {
		pol.BaseBackoff = 50 * time.Millisecond
	}
	if pol.MaxBackoff <= 0 {
		pol.MaxBackoff = 2 * time.Second
	}
	return &Resilient{inner: inner, pol: pol, onEvent: onEvent}
}

// Complete implements Client.
func (r *Resilient) Complete(ctx context.Context, prompt string) (Response, error) {
	return r.Do(ctx, RawRequest(prompt))
}

// Do implements Doer.
func (r *Resilient) Do(ctx context.Context, req *Request) (Response, error) {
	task := req.Task()
	if task == "" {
		task = "unknown"
	}
	var penalty time.Duration // virtual cost of failed attempts + backoffs
	var lastErr error
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		resp, err := r.attempt(ctx, req)
		if err == nil {
			resp = r.maybeHedge(ctx, req, task, resp)
			if !resp.Cached && penalty > 0 {
				resp.Dur += penalty
			}
			resp.Retries = attempt
			return resp, nil
		}
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		if !IsTransient(err) {
			return Response{}, err
		}
		lastErr = err
		penalty += FaultDurOf(err, r.inner.Profile())
		if attempt+1 < r.pol.MaxAttempts {
			penalty += r.backoff(req.Prompt(), attempt)
			r.emit("retry", task)
		}
	}
	r.emit("exhausted", task)
	return Response{}, fmt.Errorf("llm: %d attempts failed: %w", r.pol.MaxAttempts, lastErr)
}

// attempt runs one try under the per-call timeout.
func (r *Resilient) attempt(ctx context.Context, req *Request) (Response, error) {
	if r.pol.CallTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, r.pol.CallTimeout)
		defer cancel()
		ctx = actx
	}
	return Do(ctx, r.inner, req)
}

// maybeHedge issues one backup request when a successful response was hit
// by a latency spike, keeping the faster of the two outcomes. The backup
// is charged the hedge delay (it starts HedgeAfter into the primary call)
// and runs on a different slot of the pool.
func (r *Resilient) maybeHedge(ctx context.Context, req *Request, task string, primary Response) Response {
	if r.pol.HedgeAfter <= 0 || primary.Cached || primary.Dur <= r.pol.HedgeAfter {
		return primary
	}
	backup, err := Do(ctx, r.inner, req)
	r.emit("hedge", task)
	if err != nil {
		return primary
	}
	if hedged := r.pol.HedgeAfter + backup.Dur; hedged < primary.Dur {
		backup.Cached = false // the hedged call occupied a slot for HedgeAfter+Dur
		backup.Dur = hedged
		return backup
	}
	return primary
}

// backoff returns the virtual delay before retry #attempt, exponential
// with deterministic jitter in [0.5, 1.5) of the nominal value.
func (r *Resilient) backoff(prompt string, attempt int) time.Duration {
	d := r.pol.BaseBackoff << uint(attempt)
	if d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", r.pol.Seed, attempt, prompt)
	jitter := 0.5 + float64(h.Sum64()>>11)/(1<<53)
	return time.Duration(float64(d) * jitter)
}

func (r *Resilient) emit(event, task string) {
	if r.onEvent != nil {
		r.onEvent(event, task)
	}
}

// Profile implements Client.
func (r *Resilient) Profile() Profile { return r.inner.Profile() }

// Unwrap returns the wrapped client.
func (r *Resilient) Unwrap() Client { return r.inner }

var _ Client = (*Resilient)(nil)
