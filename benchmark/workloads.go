package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unify"
	"unify/internal/core"
	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/server"
	"unify/internal/workload"
)

// The four workloads. Names are normative: later issues cite them.
const (
	adhocSim    = "adhoc-sim"
	adhocReplay = "adhoc-replay"
	serveWarm   = "serve-warm"
	ingestMix   = "ingest-mix"
)

var workloadNames = []string{adhocSim, adhocReplay, serveWarm, ingestMix}

// serveClients is serve-warm's closed-loop client count, one keep-alive
// connection each. It never exceeds nproc: the runner refuses otherwise.
const serveClients = 2

// refSeconds is the -seconds value the rounds in a scale are sized for.
const refSeconds = 20

// scale fixes how much work each workload does. Work is fixed, not timed:
// every run of one scale sends the same queries the same number of times,
// so counts repeat exactly and two commits under comparison do identical
// work. -seconds multiplies the rounds; it does not stop a round early.
type scale struct {
	name        string
	comparable  bool // only full-scale numbers may be compared across runs
	docs        int  // corpus of the three static workloads
	perTemplate int  // workload.Generate instances per template
	minAccuracy float64

	// Timed rounds at -seconds = refSeconds, and rounds of the traced pass.
	simRounds, replayRounds, serveRounds, ingestCycles                     int
	tracedSimRounds, tracedReplayRounds, tracedServeRounds, tracedIngestCy int

	// kernelReps is how many repetitions one run of the reference kernel
	// makes: 4 where numbers are compared, 1 where only the code paths
	// matter.
	kernelReps int

	// setupOpens is how often a workload that needs one System opens it: a
	// single bulk load is one noisy sample, so set-up loads a few times,
	// keeps the last System, and charges set-up the median load.
	setupOpens int

	ingestBase int // ingest-mix: documents before the first cycle
	ingestAdd  int // documents added per cycle (one more is updated)

	// Stand-alone probes: enough calls for a steady median, few enough
	// that all the probes of a traced run take a few seconds.
	probeDocs    int // documents embedded, indexed and searched over
	probeQueries int // query texts per search, parse or server probe
	probeReps    int // repeats of the probes that time a whole pass
}

// full is the scale BENCHMARK.json's bounds apply to. It is sized so that
// each workload's timed window is close to refSeconds on the 2-core
// reference box and a whole run, set-up and gates included, stays well
// inside the driver's cap (see README.md, "Sizing").
var full = scale{
	name: "full", comparable: true,
	docs: 500, perTemplate: 2, minAccuracy: 0.8,
	simRounds: 5, replayRounds: 190, serveRounds: 72, ingestCycles: 32,
	tracedSimRounds: 1, tracedReplayRounds: 5, tracedServeRounds: 5, tracedIngestCy: 5,
	kernelReps: 4, setupOpens: 5, ingestBase: 400, ingestAdd: 12,
	probeDocs: 200, probeQueries: 20, probeReps: 5,
}

// smoke exists for smoke_test.go: every code path, no usable numbers.
var smoke = scale{
	name: "smoke", comparable: false,
	docs: 40, perTemplate: 1, minAccuracy: 0,
	simRounds: 2, replayRounds: 2, serveRounds: 2, ingestCycles: 2,
	tracedSimRounds: 1, tracedReplayRounds: 1, tracedServeRounds: 1, tracedIngestCy: 1,
	kernelReps: 1, setupOpens: 1, ingestBase: 32, ingestAdd: 3,
	probeDocs: 24, probeQueries: 4, probeReps: 1,
}

// inputs are a run's generated corpus and query lists.
type inputs struct {
	ds  *corpus.Dataset
	qs  []workload.Query // the NL workload, with ground truth
	nl  []string         // Q-nl: the NL texts
	mix []string         // Q-mix: Q-nl plus the USQL twins
}

// makeInputs generates docs documents and the seed's query lists. Queries
// are generated over the first base documents, so ingest-mix asks about
// the corpus it starts from. At this commit workload.Generate
// instantiates its templates by index and never draws from its seed, so
// every seed asks the same questions in the same order. That is kept, not
// worked around: the cost model learns as it goes, so under the default
// noisy Sim a different order gives different plans, different answers
// and a different amount of work — and a metric must mean the same thing
// at every seed. What the seed does decide is which documents
// ingest-mix's updates overwrite and where serve-warm's clients start.
func makeInputs(sc scale, docs, base int, seed int64) (*inputs, error) {
	ds, err := corpus.GenerateN("sports", docs)
	if err != nil {
		return nil, err
	}
	in := &inputs{ds: ds, qs: workload.Generate(prefix(ds, base), sc.perTemplate, seed)}
	for _, q := range in.qs {
		in.nl = append(in.nl, q.Text)
	}
	in.mix = append(in.mix, in.nl...)
	for _, q := range in.qs {
		if q.USQL != "" {
			in.mix = append(in.mix, q.USQL)
		}
	}
	return in, nil
}

// generate is makeInputs as a span of set-up.
func (r *run) generate(docs, base int) (in *inputs, err error) {
	err = r.duringSetup(func() (err error) { in, err = makeInputs(r.sc, docs, base, r.seed); return err })
	return in, err
}

// prefix is the dataset cut to its first n documents.
func prefix(ds *corpus.Dataset, n int) *corpus.Dataset {
	cut := *ds
	cut.Docs = ds.Docs[:n]
	return &cut
}

// stockSims builds the planner and worker models unify.New builds when
// given no clients.
func stockSims() (planner, worker *llm.Sim) {
	p, w := llm.DefaultSimConfig(), llm.DefaultSimConfig()
	p.Profile, w.Profile = llm.PlannerProfile(), llm.WorkerProfile()
	return llm.NewSim(p), llm.NewSim(w)
}

// run is one execution of one workload: its parameters, what it measured
// and what its gates found.
type run struct {
	workload string
	sc       scale
	seed     int64
	seconds  int
	begin    time.Time  // process start for the first workload of a process
	rec      *recorder  // nil unless this is the traced run
	clk      *hostClock // nil in the traced run, which corrects nothing
	out      io.Writer  // human-readable lines

	// Every duration below is host-corrected (see hostClock) unless it
	// says raw.
	setup      time.Duration
	setupSeen  time.Duration // raw wall of the set-up spans, charged or not
	ingestMs   []float64     // wall per corpus-loading call
	ingestRate []float64     // documents per second of each call
	ingestWall time.Duration
	queryMs    [][]float64 // per round, wall per query
	roundS     []float64
	rawRoundS  []float64 // the rounds as the wall clock saw them
	perRound   int       // queries per round, all clients together
	use        usage
	heapMB     float64
	windowWall time.Duration

	attempted, failed int // operations: queries, plus Ingest calls on ingest-mix
	failedQueries     int
	problems          []string // gate failures; any makes the run incorrect
	truncated         atomic.Bool
	answersSHA        string
	accuracy          float64 // share of NL answers the ground truth accepts
	sizes             string
	layers            []metric // traced run only

	mu sync.Mutex // guards counts and problems while the traced serve-warm clients run
}

// rounds scales a per-refSeconds round count to -seconds.
func (r *run) rounds(atRef int) int {
	n := atRef * r.seconds / refSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// overrun reports that the window has run for twice -seconds. Work is
// fixed, but a host far slower than the reference box must not run past
// the driver's cap: the window stops at the next round boundary and the
// result is marked truncated, which makes it not comparable.
func (r *run) overrun(windowStart time.Time) bool {
	if time.Since(windowStart) > 2*time.Duration(r.seconds)*time.Second {
		r.truncated.Store(true)
	}
	return r.truncated.Load()
}

func (r *run) problem(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// loaded records one corpus-loading call (unify.New or System.Ingest).
func (r *run) loaded(wall time.Duration, docs int) {
	r.ingestMs = append(r.ingestMs, ms(wall))
	r.ingestRate = append(r.ingestRate, div(float64(docs), wall.Seconds()))
	r.ingestWall += wall
}

// timed runs f between two kernel runs and returns its wall time as the
// clock saw it and as corrected for how fast the host was running.
func (r *run) timed(f func() error) (raw, fixed time.Duration, err error) {
	before := r.clk.fresh()
	start := time.Now()
	err = f()
	raw = time.Since(start)
	return raw, corrected(raw, slowdown(before, r.clk.tick())), err
}

// duringSetup runs f as a span of set-up and charges set-up its wall.
func (r *run) duringSetup(f func() error) error {
	raw, fixed, err := r.timed(f)
	r.setupSeen += raw
	r.setup += fixed
	return err
}

// load opens a System through build and records the bulk load.
func (r *run) load(docs int, build func() (*unify.System, error)) (sys *unify.System, raw, fixed time.Duration, err error) {
	raw, fixed, err = r.timed(func() (err error) { sys, err = build(); return err })
	if err == nil {
		r.loaded(fixed, docs)
	}
	return sys, raw, fixed, err
}

// openSteady loads a System sc.setupOpens times (once in the traced run,
// which reports no load metric), keeps the last, and charges set-up the
// median load: a single bulk load is one noisy sample.
func (r *run) openSteady(docs int, build func() (*unify.System, error)) (*unify.System, error) {
	n := r.sc.setupOpens
	if r.rec != nil {
		n = 1
	}
	var sys *unify.System
	var walls []float64
	for i := 0; i < n; i++ {
		var raw, fixed time.Duration
		var err error
		if sys, raw, fixed, err = r.load(docs, build); err != nil {
			return nil, err
		}
		r.setupSeen += raw
		walls = append(walls, fixed.Seconds())
	}
	r.setup += time.Duration(median(walls) * float64(time.Second))
	return sys, nil
}

// setupDone marks the first timed operation: set-up ends here. What ran
// since the run began outside any set-up span and outside the reference
// kernel (flag parsing, the provenance lines) is charged as the clock saw
// it, so nothing moved into set-up can hide between the spans.
func (r *run) setupDone() { r.setup += time.Since(r.begin) - r.setupSeen - r.clk.kernelWall() }

// askFunc sends one query and returns the answer text.
type askFunc func(q string) (string, error)

func libraryAsk(sys *unify.System) askFunc {
	return func(q string) (string, error) {
		ans, err := sys.Query(context.Background(), q)
		if err != nil {
			return "", err
		}
		return ans.Text, nil
	}
}

// passed is one pass over a query list.
type passed struct {
	answers []string
	ms      []float64     // wall per query, host-corrected
	errs    []error       // nil where the query succeeded
	wall    time.Duration // host-corrected
	raw     time.Duration // as the clock saw it, kernel runs left out
	use     usage         // CPU host-corrected
}

func newPassed(n int) passed {
	return passed{answers: make([]string, n), ms: make([]float64, n), errs: make([]error, n)}
}

// ask sends qs[lo:hi] in order, timing each, and returns the segment's wall.
func (p *passed) ask(qs []string, ask askFunc, lo, hi int) time.Duration {
	start := time.Now()
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		p.answers[i], p.errs[i] = ask(qs[i])
		p.ms[i] = ms(time.Since(t0))
	}
	return time.Since(start)
}

// settle corrects the segment qs[lo:hi] for a host f times slower than the
// reference and adds it to the pass's totals.
func (p *passed) settle(lo, hi int, wall time.Duration, f float64) {
	for i := lo; i < hi; i++ {
		p.ms[i] /= f
	}
	p.wall += corrected(wall, f)
	p.raw += wall
}

// pass sends every query once, in order, in segments of stride queries
// (the whole list if stride is 0), each between two kernel runs of clk.
func pass(qs []string, ask askFunc, clk *hostClock, stride int) passed {
	p := newPassed(len(qs))
	if stride <= 0 {
		stride = len(qs)
	}
	before := clk.fresh()
	for lo := 0; lo < len(qs); lo += stride {
		hi := min(lo+stride, len(qs))
		u0 := readUsage()
		wall := p.ask(qs, ask, lo, hi)
		u1 := readUsage()
		after := clk.tick()
		f := slowdown(before, after)
		p.settle(lo, hi, wall, f)
		p.use.add(u0, u1, f)
		before = after
	}
	return p
}

// setupPass is a pass that is part of set-up, where an error is fatal.
// Cold queries run from a few milliseconds to most of a second, so a cold
// pass makes each its own segment (stride 1); a warm pass is one segment.
func (r *run) setupPass(qs []string, ask askFunc, stride int) ([]string, error) {
	p := pass(qs, ask, r.clk, stride)
	r.setupSeen += p.raw
	r.setup += p.wall
	for i, err := range p.errs {
		if err != nil {
			return nil, fmt.Errorf("set-up query %q: %w", qs[i], err)
		}
	}
	return p.answers, nil
}

// record adds one timed round: each query is a sample, and an error or an
// answer that differs from the reference (when there is one) is a failed
// operation.
func (r *run) record(qs []string, p passed, ref map[string]string) {
	failed := 0
	for i, q := range qs {
		switch {
		case p.errs[i] != nil:
			failed++
			r.problem("query %q: %v", q, p.errs[i])
		case ref != nil && ref[q] != p.answers[i]:
			failed++
			r.problem("answer to %q changed: %q, reference %q", q, p.answers[i], ref[q])
		}
	}
	r.queryMs = append(r.queryMs, p.ms)
	r.roundS = append(r.roundS, p.wall.Seconds())
	r.rawRoundS = append(r.rawRoundS, p.raw.Seconds())
	r.attempted += len(qs)
	r.failed += failed
	r.failedQueries += failed
}

// timedPass is one timed round of a single client, with the process's
// resource deltas.
func (r *run) timedPass(qs []string, ask askFunc, ref map[string]string, stride int) passed {
	p := pass(qs, ask, r.clk, stride)
	r.record(qs, p, ref)
	r.use.merge(p.use)
	return p
}

// reference maps each query to its answer.
func reference(qs, answers []string) map[string]string {
	ref := make(map[string]string, len(qs))
	for i, q := range qs {
		ref[q] = answers[i]
	}
	return ref
}

// digest is the SHA-256 of the answers in order.
func digest(answers []string) string {
	h := sha256.New()
	for _, a := range answers {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// accuracy is the share of NL answers workload.Score accepts.
func accuracy(qs []workload.Query, answers []string) float64 {
	ok := 0
	for i, q := range qs {
		if workload.Score(q, answers[i]) {
			ok++
		}
	}
	return div(float64(ok), float64(len(qs)))
}

// gateStatic records the NL answers' digest and checks their accuracy:
// the three static workloads answer the same NL queries over the same
// corpus, so at one seed they must print the same answers_sha256.
func (r *run) gateStatic(in *inputs, nlAnswers []string) {
	r.answersSHA = digest(nlAnswers)
	r.accuracy = accuracy(in.qs, nlAnswers)
	if r.accuracy < r.sc.minAccuracy {
		r.problem("answers.accuracy %.3f below %.2f", r.accuracy, r.sc.minAccuracy)
	}
}

// openSystem opens a System over ds the way a first-time user would:
// defaults, SCE trained.
func openSystem(ds *corpus.Dataset, opts ...unify.Option) (*unify.System, error) {
	return unify.New(append([]unify.Option{unify.WithCorpus(ds), unify.WithTrainSCE()}, opts...)...)
}

// runAdhocSim: every round opens a fresh default System and runs Q-nl
// once, so every query is cold and the stock Sim does real inference.
func (r *run) runAdhocSim() error {
	in, err := r.generate(r.sc.docs, r.sc.docs)
	if err != nil {
		return err
	}
	rounds := r.rounds(r.sc.simRounds)
	r.perRound = len(in.nl)
	r.sizes = fmt.Sprintf("docs=%d queries=%d rounds=%d clients=1", r.sc.docs, len(in.nl), rounds)
	r.setupDone()

	var (
		sys   *unify.System
		ref   map[string]string
		opens []float64
	)
	windowStart := time.Now()
	for i := 0; i < rounds && !r.overrun(windowStart); i++ {
		var open time.Duration
		sys, _, open, err = r.load(len(in.ds.Docs), func() (*unify.System, error) { return openSystem(in.ds) })
		if err != nil {
			return err
		}
		opens = append(opens, open.Seconds())
		// A cold query runs from a few milliseconds to most of a second:
		// each is its own host-corrected segment.
		p := r.timedPass(in.nl, libraryAsk(sys), ref, 1)
		if ref == nil {
			// Round 1 is the reference every later round must repeat.
			ref = reference(in.nl, p.answers)
			r.gateStatic(in, p.answers)
		}
	}
	r.windowWall = time.Since(windowStart)
	// Re-opens sit between rounds, outside the query timers. Set-up is
	// input generation plus one open; the run opened several, so it
	// reports their median.
	r.setup += time.Duration(median(opens) * float64(time.Second))
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(sys)
	return nil
}

// replaySystem is adhoc-replay's System and the models behind it.
type replaySystem struct {
	sys             *unify.System
	planner, worker *replayClient
	simP, simW      *llm.Sim
	timed           [2]*timedClient   // nil unless traced
	reference       map[string]string // the cold recording round's answers
}

// openReplay builds adhoc-replay's System: shared cache off, clients that
// record the stock Sim's replies. It runs the recording rounds — one cold,
// then, with the cost model frozen so planning no longer drifts, one more
// to catch prompts the frozen model asks that the learning one did not —
// and turns the clients strict.
func (r *run) openReplay(in *inputs) (*replaySystem, error) {
	rs := &replaySystem{}
	sys, err := r.openSteady(len(in.ds.Docs), func() (*unify.System, error) {
		// Fresh models and recordings per load, so every load trains SCE
		// through the Sim as the first one does.
		rs.simP, rs.simW = stockSims()
		var innerP, innerW llm.Client = rs.simP, rs.simW
		if r.rec != nil {
			rs.timed = [2]*timedClient{{inner: rs.simP}, {inner: rs.simW}}
			innerP, innerW = rs.timed[0], rs.timed[1]
		}
		rs.planner, rs.worker = newReplay(innerP), newReplay(innerW)
		return openSystem(in.ds, unify.WithClients(rs.planner, rs.worker), unify.WithCacheBytes(-1))
	})
	if err != nil {
		return nil, err
	}
	rs.sys = sys
	cold, err := r.setupPass(in.nl, libraryAsk(sys), 1)
	if err != nil {
		return nil, err
	}
	rs.reference = reference(in.nl, cold)
	r.gateStatic(in, cold)
	sys.Calib.Freeze()
	if _, err := r.setupPass(in.nl, libraryAsk(sys), 0); err != nil {
		return nil, err
	}
	rs.planner.strict.Store(true)
	rs.worker.strict.Store(true)
	return rs, nil
}

// simCalls is how many prompts have reached the stock Sims.
func (rs *replaySystem) simCalls() int {
	p, _ := rs.simP.Stats()
	w, _ := rs.simW.Stats()
	return p + w
}

// runAdhocReplay: one System whose model replies are replayed at zero
// cost and whose shared cache is off, so wall time is Unify's own
// per-query machinery.
func (r *run) runAdhocReplay() error {
	in, err := r.generate(r.sc.docs, r.sc.docs)
	if err != nil {
		return err
	}
	rounds := r.rounds(r.sc.replayRounds)
	r.perRound = len(in.nl)
	r.sizes = fmt.Sprintf("docs=%d queries=%d rounds=%d clients=1", r.sc.docs, len(in.nl), rounds)
	rs, err := r.openReplay(in)
	if err != nil {
		return err
	}
	r.setupDone()

	simBefore := rs.simCalls()
	windowStart := time.Now()
	for i := 0; i < rounds && !r.overrun(windowStart); i++ {
		r.timedPass(in.nl, libraryAsk(rs.sys), rs.reference, 0)
	}
	r.windowWall = time.Since(windowStart)
	if n := rs.simCalls() - simBefore; n != 0 {
		r.problem("%d Sim calls inside the strict-replay window, want 0", n)
	}
	if n := rs.planner.misses.Load() + rs.worker.misses.Load(); n != 0 {
		r.problem("%d strict-replay misses", n)
	}
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(rs.sys)
	return nil
}

// httpAsk posts to /v1/query over one keep-alive connection.
func httpAsk(client *http.Client, url string) askFunc {
	return func(q string) (string, error) {
		body, err := json.Marshal(server.QueryRequest{Query: q})
		if err != nil {
			return "", err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return "", err
		}
		return qr.Answer, nil
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// served is a System behind server.New on a real loopback listener.
type served struct {
	sys  *unify.System
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func serve(sys *unify.System) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{sys: sys, srv: server.New(sys), url: "http://" + ln.Addr().String() + "/v1/query", done: make(chan error, 1)}
	s.http = &http.Server{Handler: s.srv}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // on timeout the process is about to exit anyway
	<-s.done
}

// rotate is qs starting at offset.
func rotate(qs []string, offset int) []string {
	out := make([]string, 0, len(qs))
	out = append(out, qs[offset:]...)
	return append(out, qs[:offset]...)
}

// openServed builds serve-warm's System behind a listener and warms it
// with two passes over Q-mix; the first pass's answers are the reference.
func (r *run) openServed(in *inputs, opts ...unify.Option) (*served, map[string]string, error) {
	sys, err := r.openSteady(len(in.ds.Docs), func() (*unify.System, error) { return openSystem(in.ds, opts...) })
	if err != nil {
		return nil, nil, err
	}
	s, err := serve(sys)
	if err != nil {
		return nil, nil, err
	}
	ask := httpAsk(newHTTPClient(), s.url)
	cold, err := r.setupPass(in.mix, ask, 1)
	if err == nil {
		_, err = r.setupPass(in.mix, ask, 0)
	}
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	r.gateStatic(in, cold[:len(in.nl)])
	return s, reference(in.mix, cold), nil
}

// runServeWarm: the repeated-dashboard path. Two closed-loop clients post
// Q-mix over and over to a warm System; every answer is a cache hit.
func (r *run) runServeWarm() error {
	in, err := r.generate(r.sc.docs, r.sc.docs)
	if err != nil {
		return err
	}
	rounds := r.rounds(r.sc.serveRounds)
	r.perRound = len(in.mix) * serveClients
	r.sizes = fmt.Sprintf("docs=%d queries=%d rounds=%d clients=%d", r.sc.docs, len(in.mix), rounds, serveClients)
	s, ref, err := r.openServed(in)
	if err != nil {
		return err
	}
	defer s.stop()

	// Each client has its own query order, connection and host clock. The
	// seed picks where in the list the first client starts; the others are
	// spread evenly after it.
	var (
		qs     [serveClients][]string
		asks   [serveClients]askFunc
		clks   [serveClients]*hostClock
		before [serveClients]float64
	)
	for c := range qs {
		n := int64(len(in.mix))
		qs[c] = rotate(in.mix, int((r.seed%n+n+int64(c)*n/serveClients)%n))
		asks[c] = httpAsk(newHTTPClient(), s.url)
		clks[c] = newHostClock(r.sc.kernelReps)
	}
	// The clients run their kernels together and their rounds together:
	// a kernel beside the other client's requests would time the
	// scheduler, and a round beside the other's kernel would be a round
	// with one client.
	tickAll := func() (ks [serveClients]float64) {
		eachClient(func(c int) error { ks[c] = clks[c].tick(); return nil })
		return ks
	}
	r.setupDone()
	before = tickAll()

	windowStart := time.Now()
	for i := 0; i < rounds && !r.overrun(windowStart); i++ {
		var ps [serveClients]passed
		var walls [serveClients]time.Duration
		u0 := readUsage()
		eachClient(func(c int) error {
			ps[c] = newPassed(len(qs[c]))
			walls[c] = ps[c].ask(qs[c], asks[c], 0, len(qs[c]))
			return nil
		})
		u1 := readUsage()
		after := tickAll()
		mean := 0.0
		for c := range ps {
			f := slowdown(before[c], after[c])
			ps[c].settle(0, len(qs[c]), walls[c], f)
			r.record(qs[c], ps[c], ref)
			mean += f / serveClients
		}
		r.use.add(u0, u1, mean)
		before = after
	}
	r.windowWall = time.Since(windowStart)
	for _, c := range clks {
		r.clk.runs = append(r.clk.runs, c.runs...) // for the host.slowdown line
	}
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(s.sys)
	return nil
}

// ingestPlan is ingest-mix's pre-generated mutations: cycle i adds
// adds[i] and replaces one existing document with updates[i].
type ingestPlan struct {
	base    *corpus.Dataset
	adds    [][]docstore.Document
	updates []docstore.Document
}

// planIngest cuts the generated corpus into the base, the per-cycle
// additions and, from the tail no cycle ingests, the texts the updates
// write over seed-chosen base documents.
func planIngest(in *inputs, sc scale, cycles int, seed int64) ingestPlan {
	docs := in.ds.Documents()
	p := ingestPlan{base: prefix(in.ds, sc.ingestBase)}
	rng := rand.New(rand.NewSource(seed))
	tail := sc.ingestBase + cycles*sc.ingestAdd
	for i := 0; i < cycles; i++ {
		lo := sc.ingestBase + i*sc.ingestAdd
		p.adds = append(p.adds, docs[lo:lo+sc.ingestAdd])
		fresh := docs[tail+i]
		p.updates = append(p.updates, docstore.Document{ID: rng.Intn(sc.ingestBase), Title: fresh.Title, Text: fresh.Text})
	}
	return p
}

// ingestInputs generates, as a span of set-up, everything ingest-mix will
// ever load.
func (r *run) ingestInputs(cycles int) (in *inputs, p ingestPlan, err error) {
	err = r.duringSetup(func() (err error) {
		if in, err = makeInputs(r.sc, r.sc.ingestBase+cycles*(r.sc.ingestAdd+1), r.sc.ingestBase, r.seed); err == nil {
			p = planIngest(in, r.sc, cycles, r.seed)
		}
		return err
	})
	return in, p, err
}

// cycle applies one planned mutation through System.Ingest, as a
// host-corrected segment of its own, and returns its wall time as the
// clock saw it and corrected.
func (r *run) cycle(sys *unify.System, p ingestPlan, i int) (raw, fixed time.Duration, err error) {
	before := r.clk.fresh()
	u0 := readUsage()
	start := time.Now()
	_, err = sys.Ingest(p.adds[i], []docstore.Document{p.updates[i]})
	raw = time.Since(start)
	u1 := readUsage()
	f := slowdown(before, r.clk.tick())
	fixed = corrected(raw, f)
	r.use.add(u0, u1, f)
	r.loaded(fixed, len(p.adds[i])+1)
	r.attempted++
	if err != nil {
		r.failed++
		return raw, fixed, fmt.Errorf("ingest cycle %d: %w", i, err)
	}
	return raw, fixed, nil
}

// physical names the physical operator chosen for each plan node.
func physical(p *core.Plan) string {
	var b strings.Builder
	for _, n := range p.Nodes {
		b.WriteString(n.Op + "/" + n.Phys + " ")
	}
	return b.String()
}

// answersOf runs qs through System.Query outside the window.
func answersOf(sys *unify.System, qs []string) ([]*unify.Answer, error) {
	out := make([]*unify.Answer, len(qs))
	for i, q := range qs {
		var err error
		if out[i], err = sys.Query(context.Background(), q); err != nil {
			return nil, fmt.Errorf("gate query %q: %w", q, err)
		}
	}
	return out, nil
}

// gateAgainstCold checks the answers after the last cycle twice. Asked
// again, warm, the System must repeat them. And a fresh, cold, views-off
// System opened over the final mutated corpus must give the same answer
// wherever it chose the same physical plan. It does not always: once a
// view column covers a filter the optimizer lowers it to the exact
// SemanticFilter, where a cold System picks the approximate IndexFilter,
// and under the default noisy Sim their recall differs by a document or
// two. Those queries are counted, printed and not compared.
func (r *run) gateAgainstCold(sys *unify.System, p ingestPlan, qs, last []string) error {
	final := *p.base
	final.Docs = nil
	for _, d := range sys.Store.Docs {
		final.Docs = append(final.Docs, corpus.Doc{ID: d.ID, Title: d.Title, Text: d.Text})
	}
	cold, err := openSystem(&final)
	if err != nil {
		return err
	}
	cold.Calib.Freeze()
	want, err := answersOf(cold, qs)
	if err != nil {
		return err
	}
	got, err := answersOf(sys, qs)
	if err != nil {
		return err
	}
	samePlan := 0
	for i, q := range qs {
		switch {
		case got[i].Text != last[i]:
			r.failed++
			r.problem("%q answered %q after the last ingest and %q when asked again", q, last[i], got[i].Text)
		case physical(got[i].Plan) != physical(want[i].Plan):
		case got[i].Text != want[i].Text:
			samePlan++
			r.failed++
			r.problem("after the last ingest %q answers %q, a cold System with the same plan %q", q, got[i].Text, want[i].Text)
		default:
			samePlan++
		}
	}
	fmt.Fprintf(r.out, "# cold reference: %d of %d answers compared, %d skipped for a different physical plan\n",
		samePlan, len(qs), len(qs)-samePlan)
	r.answersSHA = digest(last)
	return nil
}

// runIngestMix: writes beside reads. Each cycle ingests a few documents
// and then runs Q-mix; queries wait behind the ingest, views serve the
// unchanged documents and backfill the new ones.
func (r *run) runIngestMix() error {
	cycles := r.rounds(r.sc.ingestCycles)
	in, plan, err := r.ingestInputs(cycles)
	if err != nil {
		return err
	}
	r.perRound = len(in.mix)
	r.sizes = fmt.Sprintf("docs=%d..%d queries=%d cycles=%d add=%d update=1 clients=1",
		r.sc.ingestBase, r.sc.ingestBase+cycles*r.sc.ingestAdd, len(in.mix), cycles, r.sc.ingestAdd)
	sys, err := r.openIngest(in, plan)
	if err != nil {
		return err
	}
	r.setupDone()

	var last []string
	windowStart := time.Now()
	done := 0
	for ; done < cycles && !r.overrun(windowStart); done++ {
		raw, fixed, err := r.cycle(sys, plan, done)
		if err != nil {
			return err
		}
		// Answers change with the corpus, so cycles have no reference; the
		// last cycle's are checked against a cold System below.
		last = r.timedPass(in.mix, libraryAsk(sys), nil, 0).answers
		// A cycle is the round: queries wait behind the ingest.
		r.roundS[len(r.roundS)-1] += fixed.Seconds()
		r.rawRoundS[len(r.rawRoundS)-1] += raw.Seconds()
	}
	r.windowWall = time.Since(windowStart)
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(sys)
	return r.gateAgainstCold(sys, plan, in.mix, last)
}

// openIngest opens ingest-mix's views-on System over the base corpus,
// with the cost model frozen on its priors so that the cold System the
// last gate compares with plans exactly as this one does, and warms it
// with one pass over Q-mix.
func (r *run) openIngest(in *inputs, p ingestPlan, opts ...unify.Option) (*unify.System, error) {
	var sys *unify.System
	err := r.duringSetup(func() (err error) {
		sys, err = openSystem(p.base, append(opts, unify.WithViews())...)
		return err
	})
	if err != nil {
		return nil, err
	}
	sys.Calib.Freeze()
	warm, err := r.setupPass(in.mix, libraryAsk(sys), 1)
	if err != nil {
		return nil, err
	}
	// The base corpus is still the one the ground truth was computed
	// over. Reported, not gated: the 0.8 floor is for the static corpora.
	r.accuracy = accuracy(in.qs, warm[:len(in.nl)])
	return sys, nil
}

// endToEnd turns the window's samples into the end-to-end metrics. The
// host stalls far more often than the program does, and a stall that
// covers a third of a window would own a pooled p95. So each latency
// percentile is taken per round and the metric is the median over rounds,
// and the ingest rate is the median over calls: a disturbed part of a run
// then moves nothing, at the price that a stall rarer than every other
// round does not show either.
func (r *run) endToEnd() []metric {
	n := 0
	for _, round := range r.queryMs {
		n += len(round)
	}
	overRounds := func(p float64) float64 {
		xs := make([]float64, len(r.queryMs))
		for i, round := range r.queryMs {
			xs[i] = percentile(round, p)
		}
		return median(xs)
	}
	ok := float64(n - r.failedQueries)
	return []metric{
		{"setup_s", r.setup.Seconds(), "s", 1},
		{"queries_per_s", div(float64(r.perRound), median(r.roundS)), "1/s", len(r.roundS)},
		{"query_p50_ms", overRounds(50), "ms", n},
		{"query_p95_ms", overRounds(95), "ms", n},
		{"query_p99_ms", overRounds(99), "ms", n},
		{"cpu_ms_per_query", div(ms(r.use.cpu), ok), "ms", n},
		{"allocs_per_query", div(float64(r.use.mallocs), ok), "count", 0},
		{"alloc_mb_per_query", div(float64(r.use.bytes)/(1<<20), ok), "MB", 0},
		{"live_heap_mb", r.heapMB, "MB", 0},
		{"ingest_p50_ms", median(r.ingestMs), "ms", len(r.ingestMs)},
		{"ingest_docs_per_s", median(r.ingestRate), "1/s", len(r.ingestRate)},
	}
}
