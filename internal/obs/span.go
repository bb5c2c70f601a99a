// Package obs is Unify's dependency-free observability subsystem:
// per-query span trees (tracing), a process-wide metrics registry with
// Prometheus text exposition, and renderers for EXPLAIN ANALYZE output.
//
// Tracing is strictly opt-in and zero-cost when disabled: a nil *Tracer
// produces nil *Span values, and every Span method is safe to call on a
// nil receiver as a no-op. Call sites therefore never branch on whether
// tracing is active.
//
// Spans carry two clocks. Wall-clock start/end times measure the real
// time the reproduction spent computing. Virtual durations (VDur) carry
// the simulated latency of the paper's machine model (llm.Response.Dur
// fed through the vtime scheduler), which is the latency the paper's
// figures report. EXPLAIN ANALYZE renders both.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Span kinds used across the system. Kinds are informational (rendering
// hints); any string is legal.
const (
	KindQuery = "query" // root span of one query
	KindPhase = "phase" // planning / optimize / execute and sub-phases
	KindIter  = "iter"  // one plan-reduction iteration
	KindNode  = "node"  // one executed plan node
	KindLLM   = "llm"   // one model invocation
)

// Span is one timed region of a query's lifecycle. Spans form a tree
// rooted at the query span. All methods are safe on a nil receiver and
// safe for concurrent use (executor node spans attach LLM-call children
// from worker goroutines).
type Span struct {
	Name string
	Kind string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	vdur     time.Duration
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span. Attributes keep insertion
// order so rendered output is deterministic.
type Attr struct {
	Key   string
	Value string
}

// Tracer creates root spans. A nil *Tracer is the disabled tracer: it
// returns nil spans, and all downstream span operations no-op.
type Tracer struct{}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start begins a root span, or returns nil on a nil tracer.
func (t *Tracer) Start(name, kind string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, Kind: kind, start: time.Now()}
}

// StartChild begins a child span attached under s.
func (s *Span) StartChild(name, kind string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Kind: kind, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// NewDetached begins a span that is not yet part of the tree; attach it
// later with Adopt. The executor uses this to create node spans from
// worker goroutines while keeping the final child order deterministic
// (plan order, not completion order).
func (s *Span) NewDetached(name, kind string) *Span {
	if s == nil {
		return nil
	}
	return &Span{Name: name, Kind: kind, start: time.Now()}
}

// Adopt appends a detached span as a child of s. A nil child is ignored.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span, fixing its wall-clock duration. Ending twice
// keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr records a key/value annotation, overwriting an existing key.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt records an integer annotation.
func (s *Span) SetInt(key string, v int) {
	if s != nil {
		s.SetAttr(key, strconv.Itoa(v))
	}
}

// SetVDur sets the span's virtual-clock (simulated) duration.
func (s *Span) SetVDur(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vdur = d
	s.mu.Unlock()
}

// AddVDur accumulates virtual-clock duration onto the span.
func (s *Span) AddVDur(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vdur += d
	s.mu.Unlock()
}

// VDur returns the span's virtual-clock duration.
func (s *Span) VDur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vdur
}

// WallDur returns the span's wall-clock duration (zero until End, in
// which case the duration so far).
func (s *Span) WallDur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns one annotation's value ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first descendant (depth-first, including s) with the
// given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// --- context propagation ---

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	requestIDKey
)

// WithTracer installs a tracer into the context. Installing a nil tracer
// returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom extracts the tracer from the context (nil when absent, which
// disables tracing downstream).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpan installs the current span into the context. Installing a nil
// span returns ctx unchanged, keeping the no-tracer path allocation-free.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom extracts the current span from the context (nil when absent).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// WithRequestID installs the caller-assigned request id into the
// context; the system keys the retained trace store by it. Installing
// an empty id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom extracts the request id from the context ("" when
// absent, in which case the system mints one from the admission
// sequence).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
