// Package faults provides seeded, deterministic fault injection for the
// LLM client stack — the failure-testing harness behind the executor's
// resilience machinery (paper §V treats runtime surprises as expected
// operating conditions, not exceptions).
//
// An injector wraps any llm.Client and perturbs calls according to a
// Plan: per task family and per rate it drops requests with transient
// errors, expires per-call deadlines, multiplies latencies (slow-slot
// spikes), or garbles response text (malformed task outputs). Every
// decision is keyed by (seed, rule, prompt, attempt), where attempt
// numbers the tries of one logical call (llm.Request.NextAttempt): a
// call's fate is a function of its own identity, so a run replays
// bit-for-bit however its concurrent calls interleave — two operators
// sending the same prompt at once meet the same fate — while each retry
// or hedge of a call sees a fresh draw.
//
// The injector composes with the other client wrappers. The system
// installs it above the response cache and below the retry layer:
//
//	Sim → Cached → faults.Client → llm.Resilient → per-node Recorder
//
// so cached entries are never poisoned by garbage responses and every
// logical call (hit or miss) is exposed to serving-path faults.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"unify/internal/llm"
)

// Kind enumerates the injectable fault classes.
type Kind string

// Fault kinds.
const (
	// Transient drops the request with a retryable error before it
	// reaches the model.
	Transient Kind = "transient"
	// Timeout expires the call's deadline: a retryable error that costs
	// the full per-call timeout in virtual time.
	Timeout Kind = "timeout"
	// Slow multiplies the response's simulated duration — a latency
	// spike on the serving slot (the response itself is intact).
	Slow Kind = "slow"
	// Garbage corrupts the response text so downstream parsing fails —
	// the malformed-output failure mode of real models.
	Garbage Kind = "garbage"
)

// Kinds lists every fault class (for sweeps and matrix tests).
func Kinds() []Kind { return []Kind{Transient, Timeout, Slow, Garbage} }

// Rule injects one fault kind at a given rate into a set of task
// families.
type Rule struct {
	Kind Kind
	// Rate is the per-call injection probability in [0,1].
	Rate float64
	// Tasks restricts the rule to these prompt task families; empty
	// matches every call.
	Tasks []string
	// Factor is the latency multiplier for Slow faults (default 8).
	Factor float64
	// Latency is the virtual cost of a Timeout fault (default 2s).
	Latency time.Duration
}

func (r *Rule) applies(task string) bool {
	if len(r.Tasks) == 0 {
		return true
	}
	for _, t := range r.Tasks {
		if t == task {
			return true
		}
	}
	return false
}

// Plan is a seeded fault-injection configuration.
type Plan struct {
	// Seed drives every injection decision; two injectors with the same
	// plan perturb identical call sequences identically.
	Seed  uint64
	Rules []Rule
}

// OperatorTasks lists the task families issued by physical operators
// during execution (as opposed to planner/optimizer tasks) — the usual
// injection surface for executor-resilience experiments.
var OperatorTasks = []string{
	"filter_doc", "filter_batch", "filter_label",
	"classify_doc", "classify_batch",
	"extract_doc", "extract_batch",
	"agg_list", "compare_vals", "compute", "generate",
}

// Uniform returns a single-rule plan injecting one fault kind at the
// given rate into the given task families (all tasks when none given).
func Uniform(kind Kind, rate float64, seed uint64, tasks ...string) *Plan {
	return &Plan{Seed: seed, Rules: []Rule{{Kind: kind, Rate: rate, Tasks: tasks}}}
}

// Error is an injected failure. It wraps llm.ErrTransient (and, for
// timeouts, context.DeadlineExceeded) so retry logic classifies it
// correctly, and carries the virtual duration the failed attempt
// consumed.
type Error struct {
	Kind Kind
	Task string
	VDur time.Duration
	err  error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s fault (task %s): %v", e.Kind, e.Task, e.err)
}

// Unwrap exposes the wrapped sentinel chain to errors.Is.
func (e *Error) Unwrap() error { return e.err }

// FaultDur implements llm.DurationCarrier: the virtual time the failed
// attempt occupied before erroring.
func (e *Error) FaultDur() time.Duration { return e.VDur }

// Client is a fault-injecting llm.Client wrapper.
type Client struct {
	inner    llm.Client
	plan     *Plan
	disabled atomic.Bool

	statsMu sync.Mutex
	stats   map[Kind]int64
}

// SetEnabled toggles injection at runtime. The system disables the
// injector during offline phases (SCE training) so faults only perturb
// query serving.
func (c *Client) SetEnabled(on bool) { c.disabled.Store(!on) }

// New wraps inner with fault injection under plan. A nil or empty plan
// yields a pass-through wrapper.
func New(inner llm.Client, plan *Plan) *Client {
	return &Client{inner: inner, plan: plan, stats: map[Kind]int64{}}
}

// Stats returns the per-kind injected-fault counts so far.
func (c *Client) Stats() map[Kind]int64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := make(map[Kind]int64, len(c.stats))
	for k, v := range c.stats {
		out[k] = v
	}
	return out
}

// Injected returns the total number of injected faults.
func (c *Client) Injected() int64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	var n int64
	for _, v := range c.stats {
		n += v
	}
	return n
}

func (c *Client) record(kind Kind) {
	c.statsMu.Lock()
	c.stats[kind]++
	c.statsMu.Unlock()
}

// draw is a deterministic pseudo-random draw in [0,1) keyed by the
// decision identity, tested against rate.
func draw(seed uint64, rule int, prompt string, attempt int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|", seed, rule, attempt)
	h.Write([]byte(prompt))
	return float64(h.Sum64()>>11)/(1<<53) < rate
}

// Complete implements llm.Client.
func (c *Client) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	return c.Do(ctx, llm.RawRequest(prompt))
}

// Do implements llm.Doer. The first matching rule whose draw fires
// decides the call's fate; otherwise the call passes through. With no
// plan in force the request passes through unread; an active plan keys
// its draws by the prompt's bytes, so it renders them.
func (c *Client) Do(ctx context.Context, req *llm.Request) (llm.Response, error) {
	if c.plan == nil || len(c.plan.Rules) == 0 || c.disabled.Load() {
		return llm.Do(ctx, c.inner, req)
	}
	task := req.Task()
	prompt := req.Prompt()
	attempt := req.NextAttempt()
	for ri := range c.plan.Rules {
		r := &c.plan.Rules[ri]
		if !r.applies(task) || !draw(c.plan.Seed, ri, prompt, attempt, r.Rate) {
			continue
		}
		switch r.Kind {
		case Transient:
			c.record(Transient)
			return llm.Response{}, &Error{Kind: Transient, Task: task,
				VDur: c.inner.Profile().Base, err: llm.ErrTransient}
		case Timeout:
			c.record(Timeout)
			lat := r.Latency
			if lat <= 0 {
				lat = 2 * time.Second
			}
			return llm.Response{}, &Error{Kind: Timeout, Task: task, VDur: lat,
				err: fmt.Errorf("%w: %w", llm.ErrTransient, context.DeadlineExceeded)}
		case Slow:
			resp, err := llm.Do(ctx, c.inner, req)
			if err != nil || resp.Cached {
				return resp, err
			}
			c.record(Slow)
			f := r.Factor
			if f <= 1 {
				f = 8
			}
			resp.Dur = time.Duration(float64(resp.Dur) * f)
			return resp, nil
		case Garbage:
			resp, err := llm.Do(ctx, c.inner, req)
			if err != nil {
				return resp, err
			}
			c.record(Garbage)
			resp.Text = garble(resp.Text)
			resp.OutTokens = llm.CountTokens(resp.Text)
			return resp, nil
		}
	}
	return llm.Do(ctx, c.inner, req)
}

// garble corrupts a response deterministically: it truncates the text and
// appends junk, breaking verdict counts, JSON shapes, and numeric parses
// downstream without ever being ambiguous about whether it happened.
func garble(text string) string {
	half := text[:len(text)/2]
	return half + " ?!garbled-output!?"
}

// Profile implements llm.Client.
func (c *Client) Profile() llm.Profile { return c.inner.Profile() }

// Unwrap returns the wrapped client.
func (c *Client) Unwrap() llm.Client { return c.inner }

var _ llm.Client = (*Client)(nil)
