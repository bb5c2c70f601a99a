package llm

import (
	"context"
	"sync"

	"unify/internal/obs"
)

// Traced wraps a Client and attaches one obs span per successful call
// under a parent span, carrying the prompt task, token counts, and the
// simulated duration (the call's virtual-clock cost). It composes with
// Recorder: executors wrap their per-node Recorder in a Traced so calls
// are both charged to the cost model and visible in EXPLAIN ANALYZE.
//
// With a nil parent span the wrapper degrades to pure pass-through, so
// installing it unconditionally costs nothing when tracing is off.
type Traced struct {
	inner Client

	mu   sync.Mutex
	span *obs.Span
}

// NewTraced wraps inner, attaching call spans under parent (which may be
// nil for a no-op wrapper).
func NewTraced(inner Client, parent *obs.Span) *Traced {
	return &Traced{inner: inner, span: parent}
}

// Attach retargets subsequent call spans to a new parent (nil detaches).
// The planner re-attaches its Traced to the current reduction-iteration
// span as the sequential search descends.
func (t *Traced) Attach(parent *obs.Span) {
	t.mu.Lock()
	t.span = parent
	t.mu.Unlock()
}

// parent returns the current parent span.
func (t *Traced) parent() *obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.span
}

// Complete implements Client.
func (t *Traced) Complete(ctx context.Context, prompt string) (Response, error) {
	return t.Do(ctx, RawRequest(prompt))
}

// Do implements Doer.
func (t *Traced) Do(ctx context.Context, req *Request) (Response, error) {
	resp, err := Do(ctx, t.inner, req)
	if err != nil {
		return resp, err
	}
	if p := t.parent(); p != nil {
		s := p.StartChild(spanName(req.Task()), obs.KindLLM)
		s.SetInt("in_tokens", resp.InTokens)
		s.SetInt("out_tokens", resp.OutTokens)
		s.SetVDur(resp.Dur)
		if resp.Cached {
			s.SetAttr("cached", "true")
		}
		if resp.Retries > 0 {
			s.SetInt("retries", resp.Retries)
		}
		s.End()
	}
	return resp, nil
}

// spanNames holds the span name of every task the system issues, built
// once so that naming a call's span allocates nothing.
var spanNames = func() map[string]string {
	names := map[string]string{"": "llm:unknown"}
	for task := range handlerTable() {
		names[task] = "llm:" + task
	}
	return names
}()

// spanName is "llm:" + task ("llm:unknown" for a prompt without one).
func spanName(task string) string {
	if name, ok := spanNames[task]; ok {
		return name
	}
	return "llm:" + task
}

// Profile implements Client.
func (t *Traced) Profile() Profile { return t.inner.Profile() }

// Unwrap returns the wrapped client.
func (t *Traced) Unwrap() Client { return t.inner }

var _ Client = (*Traced)(nil)
