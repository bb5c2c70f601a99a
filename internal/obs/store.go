package obs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
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
//
// The store holds the tree as enc, one pointer-free buffer (see
// appendSpan), and leaves Root nil; Get decodes it for the caller.
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

	enc []byte
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

// Put retains a completed query's span tree. The tree is sealed and
// encoded immediately (bounded by the per-trace span budget), so later
// use of the live spans cannot change stored history. A trace with an
// already-stored id replaces the old entry.
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
	st.enc, st.Spans, st.Truncated = sealAndEncode(root, ts.maxSpans)

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
		// Clear the slot: the backing array outlives the reslice, and a
		// pointer left in it keeps the evicted trace reachable.
		ts.traces[0] = nil
		ts.traces = ts.traces[1:]
		delete(ts.byID, victim.ID)
		ts.evicted++
	}
}

// Get returns the stored trace with the given request id, its span tree
// decoded into Root.
func (ts *TraceStore) Get(id string) (*StoredTrace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	t, ok := ts.byID[id]
	ts.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := *t
	// The error is dropped because Put's own encoding always decodes
	// (TestSpanProgramsMatchReference, FuzzDecodeTrace).
	out.Root, _ = decodeTrace(t.enc)
	return &out, true
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

// sealAndEncode seals root's tree and encodes the subtree at root,
// retaining at most budget (>= 1) spans. Selection is breadth-first, so a
// truncated trace always keeps the query root and phase structure and
// drops the deepest per-call detail first; sibling order is preserved.
// It returns the encoding, the span count retained, and whether any span
// was dropped.
//
// Sealing stops the clock of every span that is still open — it stays
// marked open — and turns every later mutator into a no-op, so a second
// Put of the same root stores identical bytes.
func sealAndEncode(root *Span, budget int) (enc []byte, kept int, truncated bool) {
	t := root.tr
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		t.sealed, t.sealedAt = true, now
	}
	// Nearly every tree fits its budget: count, then encode.
	kept = root.keepAll()
	if kept > budget {
		kept, truncated = 1, true
		queue := make([]*Span, 1, budget)
		queue[0] = root
		for ; len(queue) > 0; queue = queue[1:] {
			for c := queue[0].first; c != nil; c = c.next {
				if kept < budget {
					kept++
					queue = append(queue, c)
				} else {
					c.flags &^= flagKept
				}
			}
		}
	}
	return appendSpan(make([]byte, 0, encodedSize(root)), root), kept, truncated
}

// keepAll marks every span under s as kept and counts them.
func (s *Span) keepAll() int {
	s.flags |= flagKept
	n := 1
	for c := s.first; c != nil; c = c.next {
		n += c.keepAll()
	}
	return n
}

// Attribute value tags of the encoded record.
const (
	tagString = 0
	tagInt    = 1
)

// appendSpan encodes s and its kept descendants pre-order. One span is
//
//	name kind wall vdur open nattrs {key tag value}* nkids {span}*
//
// where a string is a uvarint length and its bytes, wall and vdur are
// varint nanoseconds, open is one byte, a value is a string (tagString)
// or a varint (tagInt), and nkids counts the kept children that follow.
// The buffer holds no pointers: the collector never scans stored history.
func appendSpan(b []byte, s *Span) []byte {
	b = appendString(b, s.Name)
	b = appendString(b, s.Kind)
	b = binary.AppendVarint(b, int64(s.wall(0))) // sealed: the clock is not read
	b = binary.AppendVarint(b, int64(s.vdur))
	open := byte(0)
	if s.flags&flagEnded == 0 {
		open = 1
	}
	b = append(b, open)
	n := s.numAttrs()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		a := s.attrAt(i)
		b = appendString(b, a.key)
		if a.num == notInt {
			b = appendString(append(b, tagString), a.str)
		} else {
			b = binary.AppendVarint(append(b, tagInt), a.num)
		}
	}
	kids := 0
	for c := s.first; c != nil; c = c.next {
		if c.flags&flagKept != 0 {
			kids++
		}
	}
	b = binary.AppendUvarint(b, uint64(kids))
	for c := s.first; c != nil; c = c.next {
		if c.flags&flagKept != 0 {
			b = appendSpan(b, c)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// encodedSize is the number of bytes appendSpan writes for s, so that a
// stored trace is one exactly sized allocation.
func encodedSize(s *Span) int {
	n := stringSize(s.Name) + stringSize(s.Kind) + varintSize(int64(s.wall(0))) + varintSize(int64(s.vdur)) + 1
	attrs := s.numAttrs()
	n += uvarintSize(uint64(attrs))
	for i := 0; i < attrs; i++ {
		a := s.attrAt(i)
		n += stringSize(a.key) + 1
		if a.num == notInt {
			n += stringSize(a.str)
		} else {
			n += varintSize(a.num)
		}
	}
	kids := 0
	for c := s.first; c != nil; c = c.next {
		if c.flags&flagKept != 0 {
			kids++
			n += encodedSize(c)
		}
	}
	return n + uvarintSize(uint64(kids))
}

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintSize(x int64) int { return uvarintSize(uint64(x)<<1 ^ uint64(x>>63)) }

// Every encoded span takes at least minSpanBytes and every attribute at
// least minAttrBytes, which bounds what a count read from the buffer may
// make the decoder allocate.
const (
	minSpanBytes = 7
	minAttrBytes = 3
)

// decodeTrace rebuilds the wire-form tree from appendSpan's encoding. It
// rejects anything else with an error, never a panic, and allocates in
// proportion to len(b).
func decodeTrace(b []byte) (*SpanJSON, error) {
	d := decoder{b: b}
	root := d.span()
	if d.err == nil && len(d.b) > 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return root, nil
}

// decoder reads one encoded trace; the first error sticks and empties
// the buffer, so every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("obs: malformed trace encoding: %s", what)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) readByte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) readString() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string overruns the buffer")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads an element count and checks it against the bytes left.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count overruns the buffer")
		return 0
	}
	return int(n)
}

func (d *decoder) span() *SpanJSON {
	out := &SpanJSON{Name: d.readString(), Kind: d.readString()}
	out.WallMS = float64(d.varint()) / float64(time.Millisecond)
	out.VTimeSecs = time.Duration(d.varint()).Seconds()
	switch d.readByte() {
	case 0:
	case 1:
		out.Open = true
	default:
		d.fail("bad open flag")
	}
	if n := d.count(minAttrBytes); n > 0 {
		out.Attrs = make(map[string]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			key := d.readString()
			switch d.readByte() {
			case tagString:
				out.Attrs[key] = d.readString()
			case tagInt:
				out.Attrs[key] = strconv.FormatInt(d.varint(), 10)
			default:
				d.fail("bad attribute tag")
			}
		}
	}
	if n := d.count(minSpanBytes); n > 0 {
		out.Children = make([]*SpanJSON, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out.Children = append(out.Children, d.span())
		}
	}
	return out
}
