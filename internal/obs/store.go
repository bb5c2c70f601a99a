package obs

import (
	"sort"
	"sync"
	"time"
)

// Default retention bounds for the trace store. They keep the store's
// memory footprint fixed regardless of how long the process serves
// queries: at most DefaultMaxTraces retained traces, each truncated to
// DefaultMaxSpansPerTrace spans.
const (
	DefaultMaxTraces        = 256
	DefaultMaxSpansPerTrace = 512
)

// StoredTrace is one retained query history entry: the query's span tree
// frozen at completion time plus the summary fields the list endpoint
// serves. Ordering is by admission sequence (Seq), not wall time, so the
// store's contents are byte-deterministic for identical workloads.
type StoredTrace struct {
	ID        string
	Seq       int64
	Status    string // "ok" or "error"
	Query     string
	VTime     time.Duration
	LLMCalls  int
	Operators int
	Spans     int  // spans retained (after truncation)
	Truncated bool // span tree was cut at the per-trace span budget
	Root      *SpanJSON
}

// Summary returns the trace's deterministic list-endpoint form.
func (t *StoredTrace) Summary() TraceSummary {
	return TraceSummary{
		ID:        t.ID,
		Seq:       t.Seq,
		Status:    t.Status,
		Query:     t.Query,
		VTimeSecs: t.VTime.Seconds(),
		LLMCalls:  t.LLMCalls,
		Operators: t.Operators,
		Spans:     t.Spans,
		Truncated: t.Truncated,
	}
}

// TraceSummary is the wire form of one trace in a listing. It carries
// only virtual-clock fields: wall-clock values would differ between
// identical runs and break byte-determinism of /v1/traces.
type TraceSummary struct {
	ID        string  `json:"id"`
	Seq       int64   `json:"seq"`
	Status    string  `json:"status"`
	Query     string  `json:"query"`
	VTimeSecs float64 `json:"vtime_secs"`
	LLMCalls  int     `json:"llm_calls"`
	Operators int     `json:"operators"`
	Spans     int     `json:"spans"`
	Truncated bool    `json:"truncated,omitempty"`
}

// TraceFilter selects traces in List. The zero value selects everything.
type TraceFilter struct {
	Status   string        // "", "ok", or "error"
	MinVTime time.Duration // keep traces with VTime >= MinVTime
	Limit    int           // max results (0 = no limit)
}

// TraceStore is a bounded, concurrency-safe ring buffer of completed
// query traces keyed by request id. When full, the trace with the lowest
// admission sequence is evicted. A nil *TraceStore is the disabled
// store: every method is a safe no-op.
type TraceStore struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    []*StoredTrace // ascending Seq
	byID      map[string]*StoredTrace
	evicted   int64
}

// NewTraceStore returns a store retaining up to maxTraces traces of up
// to maxSpansPerTrace spans each (values < 1 select the defaults).
func NewTraceStore(maxTraces, maxSpansPerTrace int) *TraceStore {
	if maxTraces < 1 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace < 1 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &TraceStore{
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
		byID:      map[string]*StoredTrace{},
	}
}

// Bounds reports the store's retention limits (0, 0 on a nil store).
func (ts *TraceStore) Bounds() (maxTraces, maxSpansPerTrace int) {
	if ts == nil {
		return 0, 0
	}
	return ts.maxTraces, ts.maxSpans
}

// Put retains a completed query's span tree. The span tree is converted
// to its wire form immediately (depth-first, bounded by the per-trace
// span budget) so later mutation of the live spans cannot change stored
// history. A trace with an already-stored id replaces the old entry.
func (ts *TraceStore) Put(id string, seq int64, status, query string, vtime time.Duration, llmCalls, operators int, root *Span) {
	if ts == nil || root == nil {
		return
	}
	st := &StoredTrace{
		ID:        id,
		Seq:       seq,
		Status:    status,
		Query:     query,
		VTime:     vtime,
		LLMCalls:  llmCalls,
		Operators: operators,
	}
	st.Root, st.Spans, st.Truncated = boundedJSON(root, ts.maxSpans)

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old, ok := ts.byID[id]; ok {
		for i, t := range ts.traces {
			if t == old {
				ts.traces = append(ts.traces[:i], ts.traces[i+1:]...)
				break
			}
		}
	}
	ts.byID[id] = st
	// Insert sorted by Seq (appends are the common case: admission
	// sequences are monotonically increasing).
	i := sort.Search(len(ts.traces), func(i int) bool { return ts.traces[i].Seq > seq })
	ts.traces = append(ts.traces, nil)
	copy(ts.traces[i+1:], ts.traces[i:])
	ts.traces[i] = st
	for len(ts.traces) > ts.maxTraces {
		victim := ts.traces[0]
		ts.traces = ts.traces[1:]
		delete(ts.byID, victim.ID)
		ts.evicted++
	}
}

// Get returns the stored trace with the given request id.
func (ts *TraceStore) Get(id string) (*StoredTrace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.byID[id]
	return t, ok
}

// List returns matching trace summaries newest-first (descending
// admission sequence).
func (ts *TraceStore) List(f TraceFilter) []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceSummary, 0, len(ts.traces))
	for i := len(ts.traces) - 1; i >= 0; i-- {
		t := ts.traces[i]
		if f.Status != "" && t.Status != f.Status {
			continue
		}
		if t.VTime < f.MinVTime {
			continue
		}
		out = append(out, t.Summary())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Len reports the number of retained traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// Evicted reports how many traces have been evicted since creation.
func (ts *TraceStore) Evicted() int64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.evicted
}

// boundedJSON converts a span tree to its wire form, retaining at most
// budget spans. Selection is breadth-first, so a truncated trace always
// keeps the query root and phase structure and drops the deepest
// per-call detail first; sibling order is preserved. It returns the
// converted tree, the span count retained, and whether any span was
// dropped.
func boundedJSON(root *Span, budget int) (out *SpanJSON, kept int, truncated bool) {
	if root == nil || budget < 1 {
		return nil, 0, root != nil
	}
	// Nearly every tree fits its budget: count, then convert in one pass.
	if n := root.size(); n <= budget {
		return root.JSON(), n, false
	}
	include := map[*Span]bool{root: true}
	kept = 1
	queue := []*Span{root}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, c := range s.kids() {
			if kept < budget {
				include[c] = true
				kept++
				queue = append(queue, c)
			} else {
				truncated = true
			}
		}
	}
	var build func(s *Span) *SpanJSON
	build = func(s *Span) *SpanJSON {
		j, children := s.jsonSelf()
		for _, c := range children {
			if include[c] {
				j.Children = append(j.Children, build(c))
			}
		}
		return j
	}
	return build(root), kept, truncated
}
