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
	"math"
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
//
// Spans are carved from their tree's arena (see trace) and guarded by
// the tree's one lock: building a tree costs an allocation per chunk of
// spans, not one per span. Wall-clock times are offsets from the tree's
// origin. Once the tree is sealed (TraceStore.Put) every mutator is a
// no-op and StartChild/NewDetached return nil, as on a disabled tracer;
// readers keep working, so Answer.Trace and NodeResult.Span stay valid
// for as long as the caller holds them.
type Span struct {
	Name string
	Kind string

	tr                *trace
	first, last, next *Span // intrusive child list and sibling link
	start, end        time.Duration
	vdur              time.Duration
	ninline           uint8
	flags             uint8
	inline            [inlineAttrs]attr
	more              []attr // attributes beyond the inline room, in order
}

const (
	flagEnded    uint8 = 1 << iota // End was called
	flagAttached                   // linked under a parent, or the root
	flagKept                       // selected by the last retention pass (store.go)
)

// Arena geometry. With a 240-byte Span the tree header plus its first
// chunk fill a 4 KiB allocation and each further chunk just under 8 KiB:
// a 15-span query pays for one small object, a 100-span query for four.
const (
	firstChunkSpans = 16
	chunkSpans      = 32
	// inlineAttrs covers an llm: span (in_tokens, out_tokens, cached) and
	// most phase spans; node spans overflow into one slice.
	inlineAttrs   = 3
	overflowAttrs = 8 // capacity of a span's first overflow slice
)

// trace is one span tree's header: the lock every span of the tree
// shares, the seal, the wall-clock origin and the arena spans are carved
// from. It is allocated once per Tracer.Start, together with the first
// chunk; first[0] is the root span.
type trace struct {
	mu       sync.Mutex
	sealed   bool
	sealedAt time.Duration // when; open spans stopped running then
	base     time.Time
	free     []Span // unused tail of the current chunk
	first    [firstChunkSpans]Span
}

// attr is one annotation: a string, or — when num is not notInt — an
// integer that is formatted only when somebody reads it.
type attr struct {
	key, str string
	num      int64
}

// notInt marks a string attribute. SetInt formats the one integer that
// collides with it.
const notInt = math.MinInt64

func (a *attr) value() string {
	if a.num == notInt {
		return a.str
	}
	return strconv.FormatInt(a.num, 10)
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
	tr := &trace{base: time.Now()}
	tr.free = tr.first[1:]
	s := &tr.first[0]
	s.Name, s.Kind, s.tr, s.flags = name, kind, tr, flagAttached
	return s
}

// now is the wall clock as an offset from the tree's origin.
func (t *trace) now() time.Duration { return time.Since(t.base) }

// newSpan carves a span from the arena and, given a parent, links it as
// the parent's last child. It returns nil once the tree is sealed.
func (t *trace) newSpan(name, kind string, parent *Span) *Span {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return nil
	}
	if len(t.free) == 0 {
		t.free = make([]Span, chunkSpans)
	}
	c := &t.free[0]
	t.free = t.free[1:]
	c.Name, c.Kind, c.tr, c.start = name, kind, t, start
	if parent != nil {
		parent.link(c)
	}
	return c
}

// link appends c to s's child list. The tree's lock is held.
func (s *Span) link(c *Span) {
	c.flags |= flagAttached
	if s.last == nil {
		s.first = c
	} else {
		s.last.next = c
	}
	s.last = c
}

// StartChild begins a child span attached under s.
func (s *Span) StartChild(name, kind string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, kind, s)
}

// NewDetached begins a span that is not yet part of the tree; attach it
// later with Adopt. The executor uses this to create node spans from
// worker goroutines while keeping the final child order deterministic
// (plan order, not completion order).
func (s *Span) NewDetached(name, kind string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, kind, nil)
}

// Adopt appends a detached span of the same tree as a child of s. A nil
// child, a span that is already attached and a span of another tree are
// ignored.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil || c.tr != s.tr {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !t.sealed && c.flags&flagAttached == 0 {
		s.link(c)
	}
	t.mu.Unlock()
}

// End closes the span, fixing its wall-clock duration. Ending twice
// keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	end := t.now()
	t.mu.Lock()
	if !t.sealed && s.flags&flagEnded == 0 {
		s.end = end
		s.flags |= flagEnded
	}
	t.mu.Unlock()
}

// SetAttr records a key/value annotation, overwriting an existing key.
func (s *Span) SetAttr(key, value string) { s.setAttr(key, value, notInt) }

// SetInt records an integer annotation.
func (s *Span) SetInt(key string, v int) {
	if int64(v) == notInt {
		s.setAttr(key, strconv.Itoa(v), notInt)
		return
	}
	s.setAttr(key, "", int64(v))
}

func (s *Span) setAttr(key, str string, num int64) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	for i, n := 0, s.numAttrs(); i < n; i++ {
		if a := s.attrAt(i); a.key == key {
			a.str, a.num = str, num
			return
		}
	}
	if s.ninline < inlineAttrs {
		s.inline[s.ninline] = attr{key, str, num}
		s.ninline++
		return
	}
	if s.more == nil {
		s.more = make([]attr, 0, overflowAttrs)
	}
	s.more = append(s.more, attr{key, str, num})
}

// numAttrs and attrAt address the inline room and the overflow slice as
// one list. The tree's lock is held.
func (s *Span) numAttrs() int { return int(s.ninline) + len(s.more) }

func (s *Span) attrAt(i int) *attr {
	if i < inlineAttrs {
		return &s.inline[i]
	}
	return &s.more[i-inlineAttrs]
}

// SetVDur sets the span's virtual-clock (simulated) duration.
func (s *Span) SetVDur(d time.Duration) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !t.sealed {
		s.vdur = d
	}
	t.mu.Unlock()
}

// AddVDur accumulates virtual-clock duration onto the span.
func (s *Span) AddVDur(d time.Duration) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !t.sealed {
		s.vdur += d
	}
	t.mu.Unlock()
}

// VDur returns the span's virtual-clock duration.
func (s *Span) VDur() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.vdur
}

// WallDur returns the span's wall-clock duration (zero until End, in
// which case the duration so far).
func (s *Span) WallDur() time.Duration {
	if s == nil {
		return 0
	}
	now := s.tr.now()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.wall(now)
}

// wall is the span's wall-clock duration: up to its end, or for a span
// never ended up to the seal, or on a live tree up to now. The tree's
// lock is held.
func (s *Span) wall(now time.Duration) time.Duration {
	switch {
	case s.flags&flagEnded != 0:
		return s.end - s.start
	case s.tr.sealed:
		return s.tr.sealedAt - s.start
	default:
		return now - s.start
	}
}

// Attrs returns a copy of the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	n := s.numAttrs()
	if n == 0 {
		return nil
	}
	out := make([]Attr, n)
	for i := range out {
		a := s.attrAt(i)
		out[i] = Attr{Key: a.key, Value: a.value()}
	}
	return out
}

// Attr returns one annotation's value ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i, n := 0, s.numAttrs(); i < n; i++ {
		if a := s.attrAt(i); a.key == key {
			return a.value()
		}
	}
	return ""
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	var out []*Span
	for c := s.first; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// Find returns the first descendant (depth-first, including s) with the
// given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.find(name)
}

func (s *Span) find(name string) *Span {
	if s.Name == name {
		return s
	}
	for c := s.first; c != nil; c = c.next {
		if f := c.find(name); f != nil {
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
