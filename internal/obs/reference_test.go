package obs

// refSpan is the span tree as it stood before the arena: one heap object,
// one mutex, one attribute slice and one child slice per span, integers
// formatted by SetInt, and a retention pass (refBoundedJSON) that builds
// the SpanJSON tree the store used to keep. It is kept verbatim
// (identifiers renamed) as the reference the differential tests at the
// end of this file hold the production Span, Render, JSON and the
// TraceStore's seal/encode/decode to.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

type refSpan struct {
	Name string
	Kind string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	vdur     time.Duration
	attrs    []Attr
	children []*refSpan
}

func refStart(name, kind string) *refSpan {
	return &refSpan{Name: name, Kind: kind, start: time.Now()}
}

func (s *refSpan) StartChild(name, kind string) *refSpan {
	if s == nil {
		return nil
	}
	c := &refSpan{Name: name, Kind: kind, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

func (s *refSpan) NewDetached(name, kind string) *refSpan {
	if s == nil {
		return nil
	}
	return &refSpan{Name: name, Kind: kind, start: time.Now()}
}

func (s *refSpan) Adopt(c *refSpan) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

func (s *refSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

func (s *refSpan) SetAttr(key, value string) {
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

func (s *refSpan) SetInt(key string, v int) {
	if s != nil {
		s.SetAttr(key, strconv.Itoa(v))
	}
}

func (s *refSpan) SetVDur(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vdur = d
	s.mu.Unlock()
}

func (s *refSpan) AddVDur(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vdur += d
	s.mu.Unlock()
}

func (s *refSpan) VDur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vdur
}

func (s *refSpan) WallDur() time.Duration {
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

func (s *refSpan) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

func (s *refSpan) Attr(key string) string {
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

func (s *refSpan) Children() []*refSpan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*refSpan(nil), s.children...)
}

func (s *refSpan) Find(name string) *refSpan {
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

func (s *refSpan) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	out, children := s.jsonSelf()
	if len(children) > 0 {
		out.Children = make([]*SpanJSON, len(children))
		for i, c := range children {
			out.Children[i] = c.JSON()
		}
	}
	return out
}

// jsonSelf converts one span, without its children, and returns them as
// they stood: one lock, and no copy of the list (see kids).
func (s *refSpan) jsonSelf() (*SpanJSON, []*refSpan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wall := s.end.Sub(s.start)
	if s.end.IsZero() {
		wall = time.Since(s.start)
	}
	out := &SpanJSON{
		Name:      s.Name,
		Kind:      s.Kind,
		WallMS:    float64(wall) / float64(time.Millisecond),
		VTimeSecs: s.vdur.Seconds(),
		Open:      s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out, s.kidsLocked()
}

// kids returns the child list as it stands, without copying it: children
// are only ever appended, so the elements below the length read under the
// lock never change.
func (s *refSpan) kids() []*refSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kidsLocked()
}

func (s *refSpan) kidsLocked() []*refSpan { return s.children[:len(s.children):len(s.children)] }

// size counts the spans of the tree rooted at s.
func (s *refSpan) size() int {
	n := 1
	for _, c := range s.kids() {
		n += c.size()
	}
	return n
}

func refRender(s *refSpan) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	refRenderSpan(&b, s, "", "")
	return b.String()
}

func refRenderSpan(b *strings.Builder, s *refSpan, selfPrefix, childPrefix string) {
	b.WriteString(selfPrefix)
	b.WriteString(s.Name)
	fmt.Fprintf(b, "  vtime=%s wall=%s", fmtDur(s.VDur()), fmtDur(s.WallDur()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	children := s.Children()
	for i, c := range children {
		last := i == len(children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		refRenderSpan(b, c, childPrefix+branch, childPrefix+cont)
	}
}

// refBoundedJSON converts a span tree to its wire form, retaining at most
// budget spans. Selection is breadth-first, so a truncated trace always
// keeps the query root and phase structure and drops the deepest
// per-call detail first; sibling order is preserved. It returns the
// converted tree, the span count retained, and whether any span was
// dropped.
func refBoundedJSON(root *refSpan, budget int) (out *SpanJSON, kept int, truncated bool) {
	if root == nil || budget < 1 {
		return nil, 0, root != nil
	}
	// Nearly every tree fits its budget: count, then convert in one pass.
	if n := root.size(); n <= budget {
		return root.JSON(), n, false
	}
	include := map[*refSpan]bool{root: true}
	kept = 1
	queue := []*refSpan{root}
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
	var build func(s *refSpan) *SpanJSON
	build = func(s *refSpan) *SpanJSON {
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

// ---- differential tests ----

// spanAPI is the mutator surface Span and refSpan share.
type spanAPI[S any] interface {
	StartChild(name, kind string) S
	NewDetached(name, kind string) S
	Adopt(S)
	End()
	SetAttr(key, value string)
	SetInt(key string, v int)
	SetVDur(d time.Duration)
	AddVDur(d time.Duration)
}

type opKind uint8

const (
	opChild opKind = iota
	opDetach
	opAdopt
	opAttr
	opInt
	opSetVDur
	opAddVDur
	opEnd
)

// spanOp is one step of a span program. at and other index the running
// thread's span list: every created span is appended to it, and Adopt
// only ever attaches a later span under an earlier one, so every span's
// descendants were created after it and no program builds a cycle.
type spanOp struct {
	kind      opKind
	at, other int
	name, str string
	num       int
	dur       time.Duration
}

// spanProgram is a random tree-building run: the main thread builds a
// trunk, four workers then extend four distinct trunk spans at once
// (each touching only what it created, as executor workers do), and the
// main thread finishes — adopting the workers' leftover detached spans
// in a fixed order, ending some spans and leaving others open.
type spanProgram struct {
	trunk   []spanOp
	workers []progWorker // at most 4, fewer when the trunk has fewer spans
	finish  []spanOp     // indexes the trunk's span list
}

type progWorker struct {
	parent   int // trunk span the worker extends; no two workers share one
	ops      []spanOp
	leftover []int // detached spans the worker leaves for the main thread
	adoptAt  int   // trunk span that adopts them
}

var (
	progKeys  = []string{"in_tokens", "out_tokens", "cached", "phys", "llm_calls", "retries", "error", "k7", "k8", "k9", "k10", "k11", "k12"}
	progNames = []string{"planning", "optimize", "execute", "llm:filter_batch", "node[3] Filter", "iter", "é", ""}
	progKinds = []string{KindQuery, KindPhase, KindIter, KindNode, KindLLM, ""}
	progInts  = []int{0, 1, -1, 99, 100, 170, 4096, math.MaxInt, math.MinInt, math.MinInt + 1}
)

// genOps appends n random ops for a thread that starts with have spans.
// It returns the ops, the number of spans the thread ends with, and the
// list indexes of detached spans it never adopted.
func genOps(rng *rand.Rand, n, have int) (ops []spanOp, total int, leftover []int) {
	detached := map[int]bool{}
	for len(ops) < n {
		op := spanOp{
			kind: opKind(rng.Intn(int(opEnd) + 1)),
			at:   rng.Intn(have),
			name: progNames[rng.Intn(len(progNames))],
			str:  progKinds[rng.Intn(len(progKinds))],
		}
		switch op.kind {
		case opChild:
			have++
		case opDetach:
			detached[have] = true
			have++
		case opAdopt:
			// The highest-numbered pending span, under any earlier span.
			op.other = -1
			for i := range detached {
				if i > op.other {
					op.other = i
				}
			}
			if op.other < 1 {
				continue
			}
			op.at = rng.Intn(op.other)
			delete(detached, op.other)
		case opAttr:
			op.name = progKeys[rng.Intn(len(progKeys))]
			op.str = []string{"true", "", "hit", "a b=c", "12"}[rng.Intn(5)]
		case opInt:
			op.name = progKeys[rng.Intn(len(progKeys))]
			op.num = progInts[rng.Intn(len(progInts))]
		case opSetVDur, opAddVDur:
			op.dur = time.Duration(rng.Int63n(int64(90*time.Second))) - time.Second
		}
		ops = append(ops, op)
	}
	for i := 0; i < have; i++ { // ascending, so the program is a function of the seed
		if detached[i] {
			leftover = append(leftover, i)
		}
	}
	return ops, have, leftover
}

// genProgram draws a program of about 3*ops operations. A quarter of
// them create a span and most of those end up in the tree: ops = 1000
// builds trees of about 750 spans.
func genProgram(rng *rand.Rand, ops int) *spanProgram {
	p := &spanProgram{}
	var have int
	p.trunk, have, _ = genOps(rng, 4+ops, 1)
	for _, parent := range rng.Perm(have)[:min(4, have)] {
		w := progWorker{parent: parent, adoptAt: rng.Intn(have)}
		w.ops, _, w.leftover = genOps(rng, ops/2, 1)
		p.workers = append(p.workers, w)
	}
	for i := 0; i < have; i++ {
		switch rng.Intn(4) {
		case 0: // leave open
		case 1:
			p.finish = append(p.finish, spanOp{kind: opEnd, at: i}, spanOp{kind: opEnd, at: i})
		default:
			p.finish = append(p.finish, spanOp{kind: opEnd, at: i})
		}
	}
	return p
}

// apply runs ops on a thread's span list and returns the grown list.
func apply[S spanAPI[S]](spans []S, ops []spanOp) []S {
	for _, op := range ops {
		s := spans[op.at]
		switch op.kind {
		case opChild:
			spans = append(spans, s.StartChild(op.name, op.str))
		case opDetach:
			spans = append(spans, s.NewDetached(op.name, op.str))
		case opAdopt:
			s.Adopt(spans[op.other])
		case opAttr:
			s.SetAttr(op.name, op.str)
		case opInt:
			s.SetInt(op.name, op.num)
		case opSetVDur:
			s.SetVDur(op.dur)
		case opAddVDur:
			s.AddVDur(op.dur)
		case opEnd:
			s.End()
		}
	}
	return spans
}

// run executes the program from root, workers concurrently.
func run[S spanAPI[S]](root S, p *spanProgram) {
	trunk := apply([]S{root}, p.trunk)
	made := make([][]S, len(p.workers))
	var wg sync.WaitGroup
	for i, w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			made[i] = apply([]S{trunk[w.parent]}, w.ops)
		}()
	}
	wg.Wait()
	for i, w := range p.workers {
		for _, d := range w.leftover {
			trunk[w.adoptAt].Adopt(made[i][d])
		}
	}
	apply(trunk, p.finish)
}

var wallRE = regexp.MustCompile(`wall=\S+`)

func stripWall(render string) string { return wallRE.ReplaceAllString(render, "wall=X") }

// wireNoWall marshals a SpanJSON tree with every wall_ms zeroed.
func wireNoWall(t testing.TB, j *SpanJSON) string {
	t.Helper()
	var zero func(j *SpanJSON)
	zero = func(j *SpanJSON) {
		if j == nil {
			return
		}
		j.WallMS = 0
		for _, c := range j.Children {
			zero(c)
		}
	}
	zero(j)
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkAgainstReference runs p on both implementations and compares
// every read surface, then the store at each budget.
func checkAgainstReference(t testing.TB, p *spanProgram) {
	t.Helper()
	root := NewTracer().Start("query", KindQuery)
	ref := refStart("query", KindQuery)
	run(root, p)
	run(ref, p)

	if got, want := stripWall(Render(root)), stripWall(refRender(ref)); got != want {
		t.Fatalf("Render differs from the reference:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := wireNoWall(t, root.JSON()), wireNoWall(t, ref.JSON()); got != want {
		t.Fatalf("JSON differs from the reference:\n got %s\nwant %s", got, want)
	}
	n := ref.size()
	for _, budget := range storeBudgets(n) {
		ts := NewTraceStore(4, budget)
		ts.Put("q", 1, "ok", "q", time.Second, 1, 1, root)
		got, ok := ts.Get("q")
		if !ok {
			t.Fatalf("budget %d: stored trace missing", budget)
		}
		if len(got.enc) != cap(got.enc) {
			t.Errorf("budget %d: %d encoded bytes in a %d-byte buffer; encodedSize disagrees with appendSpan", budget, len(got.enc), cap(got.enc))
		}
		want, wantKept, wantCut := refBoundedJSON(ref, budget)
		if got.Spans != wantKept || got.Truncated != wantCut {
			t.Errorf("budget %d of %d spans: kept %d truncated %v, reference %d %v",
				budget, n, got.Spans, got.Truncated, wantKept, wantCut)
		}
		if g, w := wireNoWall(t, got.Root), wireNoWall(t, want); g != w {
			t.Fatalf("budget %d of %d spans: stored tree differs from the reference:\n got %s\nwant %s", budget, n, g, w)
		}
	}
	// Sealed, the tree still reads as the reference does.
	if got, want := stripWall(Render(root)), stripWall(refRender(ref)); got != want {
		t.Fatalf("Render of the sealed tree differs from the reference:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func storeBudgets(n int) []int {
	out := []int{1, 5, n, n + 1, DefaultMaxSpansPerTrace}
	if n > 1 {
		out = append(out, n-1)
	}
	return out
}

// TestSpanProgramsMatchReference holds the arena spans, both renderers
// and the store's seal/encode/decode to the reference over random span
// programs of 1 to ~750 spans, on both sides of every
// chunk boundary and of the default span budget.
func TestSpanProgramsMatchReference(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := []int{0, 1, 3, 16, 48, 150, 600, 1000}[seed%8]
		checkAgainstReference(t, genProgram(rng, ops))
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// warmShape builds the tree a fully cached query retains — 4 phases of
// 10 model calls, 45 spans, three attributes each — or, with 9 phases,
// 100 spans, a replayed ad-hoc query's 99. Names are constants: what is
// measured is the tree, not fmt.
func warmShape[S spanAPI[S]](root S, phases int) {
	stamp := func(s S, depth int) {
		s.SetInt("in_tokens", 170+depth)
		s.SetInt("out_tokens", 3)
		s.SetAttr("cached", "true")
		s.SetVDur(time.Duration(depth) * time.Millisecond)
	}
	stamp(root, 0)
	for i := 0; i < phases; i++ {
		c := root.StartChild("phase", KindPhase)
		stamp(c, 1)
		for j := 0; j < 10; j++ {
			l := c.StartChild("llm:filter_batch", KindLLM)
			stamp(l, 2)
			l.End()
		}
		c.End()
	}
	root.End()
}

// TestBoundedJSONMatchesReference holds the retention pass to its
// reference on both sides of the budget: what Get returns is the same
// whether the tree fits (the one-pass path) or is cut breadth-first.
func TestBoundedJSONMatchesReference(t *testing.T) {
	root := NewTracer().Start("query", KindQuery)
	ref := refStart("query", KindQuery)
	warmShape(root, 4)
	warmShape(ref, 4)
	n := ref.size()
	if n != 45 {
		t.Fatalf("tree has %d spans, want 45", n)
	}
	for _, budget := range []int{1, 5, 6, n - 1, n, n + 1, DefaultMaxSpansPerTrace} {
		ts := NewTraceStore(1, budget)
		ts.Put("q", 1, "ok", "q", time.Second, 1, 1, root)
		got, _ := ts.Get("q")
		want, wantKept, wantCut := refBoundedJSON(ref, budget)
		if got.Spans != wantKept || got.Truncated != wantCut {
			t.Errorf("budget %d: kept %d truncated %v, reference %d %v", budget, got.Spans, got.Truncated, wantKept, wantCut)
		}
		if g, w := wireNoWall(t, got.Root), wireNoWall(t, want); g != w {
			t.Errorf("budget %d: stored JSON differs from the reference:\n got %s\nwant %s", budget, g, w)
		}
	}
}

// TestSpanFitsItsSizeClasses pins the arena geometry the constants in
// span.go are chosen for.
func TestSpanFitsItsSizeClasses(t *testing.T) {
	if sz := unsafe.Sizeof(Span{}); sz > 256 {
		t.Errorf("Span is %d bytes, want <= 256", sz)
	}
	if sz := unsafe.Sizeof(trace{}); sz > 4096 {
		t.Errorf("a tree's header and first chunk are %d bytes, want <= 4096", sz)
	}
	if sz := chunkSpans * unsafe.Sizeof(Span{}); sz > 8192 {
		t.Errorf("a chunk is %d bytes, want <= 8192", sz)
	}
}

// TestTraceStorePutAllocations pins what tracing a query costs: an
// allocation per chunk of spans to build the tree, and a record plus one
// buffer to retain it. (Before the arena: about 330 to build the 45-span
// tree and 140 to store it.)
func TestTraceStorePutAllocations(t *testing.T) {
	for _, tc := range []struct {
		phases, spans    int
		maxBuild, maxPut float64
	}{
		{4, 45, 4, 3},
		{9, 100, 6, 3},
	} {
		tr := NewTracer()
		var root *Span
		build := testing.AllocsPerRun(50, func() {
			root = tr.Start("query", KindQuery)
			warmShape(root, tc.phases)
		})
		if n := root.JSON(); countJSON(n) != tc.spans {
			t.Fatalf("tree has %d spans, want %d", countJSON(n), tc.spans)
		}
		ts := NewTraceStore(4, 0)
		seq := int64(0)
		put := testing.AllocsPerRun(50, func() {
			seq++
			ts.Put("q", seq, "ok", "q", time.Second, 1, 1, root)
		})
		t.Logf("%d-span tree: %v allocations to build, %v to Put", tc.spans, build, put)
		if build > tc.maxBuild {
			t.Errorf("building a %d-span tree allocates %v objects, want <= %v", tc.spans, build, tc.maxBuild)
		}
		if put > tc.maxPut {
			t.Errorf("TraceStore.Put of a %d-span tree allocates %v objects, want <= %v", tc.spans, put, tc.maxPut)
		}
	}
}

func countJSON(j *SpanJSON) int {
	n := 1
	for _, c := range j.Children {
		n += countJSON(c)
	}
	return n
}

// TestSealedTreeIgnoresMutators: after Put every mutator is a no-op,
// from any goroutine, and a second Put stores identical bytes.
func TestSealedTreeIgnoresMutators(t *testing.T) {
	root := NewTracer().Start("query", KindQuery)
	open := root.StartChild("left-open", KindPhase)
	detached := root.NewDetached("never-adopted", KindNode)
	warmShape(root, 4)
	ts := NewTraceStore(4, 0)
	ts.Put("q", 1, "ok", "q", time.Second, 1, 1, root)
	stored := func() []byte {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		return ts.byID["q"].enc
	}
	before, first := Render(root), stored()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, s := range []*Span{root, open, root.Find("phase")} {
					if c := s.StartChild("late", KindPhase); c != nil {
						t.Error("StartChild on a sealed tree returned a span")
					}
					if c := s.NewDetached("late", KindNode); c != nil {
						t.Error("NewDetached on a sealed tree returned a span")
					}
					s.Adopt(detached)
					s.SetAttr("after", "seal")
					s.SetInt("in_tokens", i)
					s.SetVDur(time.Hour)
					s.AddVDur(time.Hour)
					s.End()
				}
			}
		}()
	}
	wg.Wait()

	if after := Render(root); after != before {
		t.Errorf("sealed tree changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if j := root.JSON(); !j.Children[0].Open || j.Open {
		t.Errorf("seal lost the open marks: root open=%v, left-open open=%v", j.Open, j.Children[0].Open)
	}
	if w := open.WallDur(); w != open.WallDur() || w <= 0 {
		t.Errorf("a span the seal closed still runs: %v", w)
	}
	ts.Put("q", 2, "ok", "q", time.Second, 1, 1, root)
	if second := stored(); !bytes.Equal(first, second) {
		t.Errorf("second Put of the same root stored different bytes:\n%x\n%x", first, second)
	}
}

// TestEvictedTraceIsCollectable: the store keeps exactly maxTraces
// traces alive. Regression: eviction resliced the ring and left the
// victim's pointer in the backing array, so up to maxTraces dead traces
// stayed reachable.
func TestEvictedTraceIsCollectable(t *testing.T) {
	const maxTraces = 8
	ts := NewTraceStore(maxTraces, 0)
	collected := make(chan struct{}, 3*maxTraces) // one send per stored trace
	for i := 0; i < 3*maxTraces; i++ {
		id := fmt.Sprintf("q-%d", i)
		ts.Put(id, int64(i), "ok", "q", time.Second, 1, 1, tree(1, 1))
		ts.mu.Lock()
		runtime.SetFinalizer(ts.byID[id], func(*StoredTrace) { collected <- struct{}{} })
		ts.mu.Unlock()
	}
	deadline := time.After(10 * time.Second)
	for freed := 0; freed < 2*maxTraces; {
		runtime.GC()
		select {
		case <-collected:
			freed++
		case <-time.After(50 * time.Millisecond): // finalizers run on their own goroutine; collect again
		case <-deadline:
			t.Fatalf("%d of %d evicted traces were collected: %d traces survive, want %d",
				freed, 2*maxTraces, 3*maxTraces-freed, maxTraces)
		}
	}
	// The retained ones are alive by construction.
	if ts.Len() != maxTraces {
		t.Errorf("store holds %d traces, want %d", ts.Len(), maxTraces)
	}
	for i := 2 * maxTraces; i < 3*maxTraces; i++ {
		if got, ok := ts.Get(fmt.Sprintf("q-%d", i)); !ok || got.Root == nil {
			t.Errorf("q-%d is not retained", i)
		}
	}
}

// bytesAllocated reports the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeTrace: arbitrary bytes never panic the decoder and never
// make it allocate more than a multiple of their length; and the
// encoding of the span program the same bytes seed decodes to exactly
// what the live tree's JSON() reports.
func FuzzDecodeTrace(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		root := NewTracer().Start("query", KindQuery)
		run(root, genProgram(rand.New(rand.NewSource(seed)), int(seed)*8))
		enc, _, _ := sealAndEncode(root, DefaultMaxSpansPerTrace)
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			root *SpanJSON
			err  error
		)
		// Other goroutines of the test binary allocate too; the slack
		// covers them.
		if got, max := bytesAllocated(func() { root, err = decodeTrace(b) }), uint64(64*len(b)+16<<10); got > max {
			t.Errorf("decoding %d bytes allocated %d, want <= %d", len(b), got, max)
		}
		if (root == nil) == (err == nil) {
			t.Errorf("decodeTrace returned root=%v err=%v", root, err)
		}

		h := fnv.New64a()
		h.Write(b)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		live := NewTracer().Start("query", KindQuery)
		run(live, genProgram(rng, len(b)%64))
		enc, kept, cut := sealAndEncode(live, DefaultMaxSpansPerTrace)
		back, err := decodeTrace(enc)
		if err != nil {
			t.Fatalf("encoder output does not decode: %v\n%x", err, enc)
		}
		if cut || kept != countJSON(back) {
			t.Errorf("kept %d truncated %v, decoded %d spans", kept, cut, countJSON(back))
		}
		if g, w := wireNoWall(t, back), wireNoWall(t, live.JSON()); g != w {
			t.Errorf("round trip differs:\n got %s\nwant %s", g, w)
		}
	})
}
