package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"unify"
	"unify/internal/cache"
	"unify/internal/docstore"
	"unify/internal/embedding"
	"unify/internal/llm"
	"unify/internal/nlq"
	"unify/internal/obs"
	"unify/internal/sce"
	"unify/internal/usql"
	"unify/internal/vector"
	"unify/internal/views"
	"unify/internal/vtime"
	"unify/internal/workload"
)

// traced is what the traced run of one workload collected: a plain pass
// through System.Query (the untraced comparator, and the source of the
// Answer-field counts) and the same pass replayed outside-in with spans.
type traced struct {
	sys   *unify.System // the System the stand-alone probes run on
	timed []*timedClient

	answers    []*unify.Answer // plain pass
	phased     []phased
	nlPhased   int // phased queries that took the planner route
	plainWall  time.Duration
	phasedWall time.Duration

	llmCache, planCache cache.Stats // deltas over both passes
	views               views.Stats // delta over the plain pass
	cycles              int
	ingestWall          time.Duration // inside Ingest, plain pass
	windowWall          time.Duration // Ingest + queries, plain pass
}

// timedSims is the stock model pair behind timing decorators.
func (t *traced) timedSims() unify.Option {
	p, w := stockSims()
	tp, tw := &timedClient{inner: p}, &timedClient{inner: w}
	t.timed = append(t.timed, tp, tw)
	return unify.WithClients(tp, tw)
}

// plainPass runs qs through System.Query, keeping the Answers.
func (t *traced) plainPass(sys *unify.System, qs []string) ([]string, error) {
	texts := make([]string, len(qs))
	start := time.Now()
	for i, q := range qs {
		ans, err := sys.Query(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("plain query %q: %w", q, err)
		}
		t.answers = append(t.answers, ans)
		texts[i] = ans.Text
	}
	t.plainWall += time.Since(start)
	return texts, nil
}

// phasedPass runs qs through phasedQuery; an error, or an answer other
// than the one System.Query gave, is a failed operation.
func (r *run) phasedPass(t *traced, sys *unify.System, qs, want []string) {
	failed := 0
	start := time.Now()
	for i, q := range qs {
		ph, err := phasedQuery(context.Background(), r.rec, sys, q)
		switch {
		case err != nil:
			failed++
			r.problem("phased query %q: %v", q, err)
			continue
		case ph.text != want[i]:
			failed++
			r.problem("phased answer to %q is %q, System.Query gave %q", q, ph.text, want[i])
		}
		t.phased = append(t.phased, ph)
		if unify.DetectLanguage(q) == unify.LangNL {
			t.nlPhased++
		}
	}
	t.phasedWall += time.Since(start)
	r.mu.Lock()
	r.attempted += len(qs)
	r.failed += failed
	r.mu.Unlock()
}

// cacheDelta adds to the traced cache deltas what fn did to sys's cache.
func (t *traced) cacheDelta(sys *unify.System, fn func() error) error {
	before := sys.CacheStats()
	err := fn()
	after := sys.CacheStats()
	add := func(dst *cache.Stats, layer string) {
		d := after[layer].Sub(before[layer])
		dst.Hits += d.Hits
		dst.Misses += d.Misses
	}
	add(&t.llmCache, "llm")
	add(&t.planCache, "plan")
	return err
}

// both runs the plain and then the phased pass over qs on one System.
func (r *run) both(t *traced, sys *unify.System, qs []string) error {
	return t.cacheDelta(sys, func() error {
		want, err := t.plainPass(sys, qs)
		if err == nil {
			r.phasedPass(t, sys, qs, want)
		}
		return err
	})
}

// runTraced is the separate, shorter traced run of r.workload. It never
// feeds the end-to-end numbers.
func (r *run) runTraced() error {
	t := &traced{}
	var in *inputs
	var err error
	switch r.workload {
	case adhocSim:
		in, err = r.traceAdhocSim(t)
	case adhocReplay:
		in, err = r.traceAdhocReplay(t)
	case serveWarm:
		in, err = r.traceServeWarm(t)
	case ingestMix:
		in, err = r.traceIngestMix(t)
	}
	if err != nil {
		return err
	}
	r.layers = append(r.layerMetrics(t), probes(r.sc, t, in)...)
	return nil
}

// traceAdhocSim: each traced round opens one fresh System for the plain
// pass and another for the phased pass, so both are cold.
func (r *run) traceAdhocSim(t *traced) (*inputs, error) {
	in, err := makeInputs(r.sc, r.sc.docs, r.sc.docs, r.seed)
	if err != nil {
		return nil, err
	}
	r.sizes = fmt.Sprintf("docs=%d queries=%d traced_rounds=%d", r.sc.docs, len(in.nl), r.sc.tracedSimRounds)
	for i := 0; i < r.sc.tracedSimRounds; i++ {
		plain, err := openSystem(in.ds, t.timedSims())
		if err != nil {
			return nil, err
		}
		var want []string
		if err := t.cacheDelta(plain, func() error {
			want, err = t.plainPass(plain, in.nl)
			return err
		}); err != nil {
			return nil, err
		}
		r.gateStatic(in, want)
		if t.sys, err = openSystem(in.ds, t.timedSims()); err != nil {
			return nil, err
		}
		t.cacheDelta(t.sys, func() error { r.phasedPass(t, t.sys, in.nl, want); return nil })
	}
	return in, nil
}

func (r *run) traceAdhocReplay(t *traced) (*inputs, error) {
	in, err := makeInputs(r.sc, r.sc.docs, r.sc.docs, r.seed)
	if err != nil {
		return nil, err
	}
	r.sizes = fmt.Sprintf("docs=%d queries=%d traced_rounds=%d", r.sc.docs, len(in.nl), r.sc.tracedReplayRounds)
	rs, err := r.openReplay(in)
	if err != nil {
		return nil, err
	}
	t.sys, t.timed = rs.sys, rs.timed[:]
	simBefore := rs.simCalls()
	for i := 0; i < r.sc.tracedReplayRounds; i++ {
		if err := r.both(t, rs.sys, in.nl); err != nil {
			return nil, err
		}
	}
	if n := rs.simCalls() - simBefore; n != 0 {
		r.problem("%d Sim calls inside the strict-replay window, want 0", n)
	}
	// The stand-alone probes ask prompts no query asked.
	rs.planner.strict.Store(false)
	rs.worker.strict.Store(false)
	return in, nil
}

// traceServeWarm runs the passes on the warm System at the library level,
// from serveClients goroutines as the HTTP clients would; what the server
// adds on top is measured by the server probes.
func (r *run) traceServeWarm(t *traced) (*inputs, error) {
	in, err := makeInputs(r.sc, r.sc.docs, r.sc.docs, r.seed)
	if err != nil {
		return nil, err
	}
	r.sizes = fmt.Sprintf("docs=%d queries=%d traced_rounds=%d clients=%d", r.sc.docs, len(in.mix), r.sc.tracedServeRounds, serveClients)
	s, ref, err := r.openServed(in, t.timedSims())
	if err != nil {
		return nil, err
	}
	defer s.stop()
	t.sys = s.sys
	want := refAnswers(ref, in.mix)

	return in, t.cacheDelta(s.sys, func() error {
		clients := make([]traced, serveClients)
		err := eachClient(func(c int) error {
			for i := 0; i < r.sc.tracedServeRounds; i++ {
				if _, err := clients[c].plainPass(s.sys, in.mix); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = eachClient(func(c int) error {
			for i := 0; i < r.sc.tracedServeRounds; i++ {
				r.phasedPass(&clients[c], s.sys, in.mix, want)
			}
			return nil
		})
		for i := range clients {
			t.merge(&clients[i])
		}
		return err
	})
}

// merge adds one client's passes to t.
func (t *traced) merge(c *traced) {
	t.answers = append(t.answers, c.answers...)
	t.phased = append(t.phased, c.phased...)
	t.nlPhased += c.nlPhased
	t.plainWall += c.plainWall
	t.phasedWall += c.phasedWall
}

// eachClient runs fn once per serve-warm client, concurrently.
func eachClient(fn func(c int) error) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func refAnswers(ref map[string]string, qs []string) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = ref[q]
	}
	return out
}

// traceIngestMix runs the traced cycles twice, on two Systems that start
// identical: ingest mutates the corpus, so the plain and the phased pass
// cannot share one.
func (r *run) traceIngestMix(t *traced) (*inputs, error) {
	cycles := r.sc.tracedIngestCy
	in, plan, err := r.ingestInputs(cycles)
	if err != nil {
		return nil, err
	}
	r.sizes = fmt.Sprintf("docs=%d..%d queries=%d traced_cycles=%d", r.sc.ingestBase, r.sc.ingestBase+cycles*r.sc.ingestAdd, len(in.mix), cycles)
	plain, err := r.openIngest(in, plan, t.timedSims())
	if err != nil {
		return nil, err
	}
	want := make([][]string, cycles)
	if err := t.cacheDelta(plain, func() error {
		v0 := plain.Views.Stats()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			if _, _, err := r.cycle(plain, plan, i); err != nil {
				return err
			}
			if want[i], err = t.plainPass(plain, in.mix); err != nil {
				return err
			}
		}
		t.windowWall, t.ingestWall, t.cycles = time.Since(start), r.ingestWall, cycles
		v1 := plain.Views.Stats()
		t.views = views.Stats{Hits: v1.Hits - v0.Hits, Misses: v1.Misses - v0.Misses,
			Backfills: v1.Backfills - v0.Backfills, Invalidated: v1.Invalidated - v0.Invalidated}
		return nil
	}); err != nil {
		return nil, err
	}
	r.answersSHA = digest(want[cycles-1])
	if t.sys, err = r.openIngest(in, plan, t.timedSims()); err != nil {
		return nil, err
	}
	return in, t.cacheDelta(t.sys, func() error {
		for i := 0; i < cycles; i++ {
			o := r.rec.start(r.rec.ids.Add(1), 0, "ingest")
			_, _, err := r.cycle(t.sys, plan, i)
			o.end()
			if err != nil {
				return err
			}
			r.phasedPass(t, t.sys, in.mix, want[i])
		}
		return nil
	})
}

// layerMetrics turns the traced passes into per-layer metrics.
func (r *run) layerMetrics(t *traced) []metric {
	lt := analyse(r.rec.spans)
	perSpan := func(name string) float64 { return div(ms(lt.self[name]), float64(lt.count[name])) }

	var calls, busy int64
	for _, tc := range t.timed {
		calls += tc.calls.Load()
		busy += tc.busy.Load()
	}
	var llmCalls, cached, inTokens, scanned, spansSeen, contended int
	var vsec, grantWait time.Duration
	for _, a := range t.answers {
		llmCalls += a.LLMCalls
		cached += a.CachedLLMCalls
		inTokens += a.Profile.Totals().InTokens
		for _, n := range a.Nodes {
			scanned += n.InCard
		}
		spansSeen += countSpans(a.Trace)
		vsec += a.TotalDur
		grantWait += a.SlotGrantWait
		if a.Contended {
			contended++
		}
	}
	var planCalls, sceCalls int
	for _, p := range t.phased {
		planCalls += p.planCalls
		sceCalls += p.sceCalls
	}
	nq := float64(len(t.answers))
	untracked := div(float64(lt.self["query"]), float64(lt.queries))
	if untracked > 0.10 {
		r.problem("layer self-times leave %.1f%% of the query span unaccounted for, want <= 10%%", 100*untracked)
	}
	return []metric{
		{"llm.sim_ms_per_call", div(ms(time.Duration(busy)), float64(calls)), "ms", int(calls)},
		{"llm.sim_share", div(float64(lt.model), float64(lt.queries)), "ratio", 0},
		{"llm.calls_per_query", div(float64(llmCalls), nq), "count", 0},
		{"llm.paid_calls_per_query", div(float64(llmCalls-cached), nq), "count", 0},
		{"llm.cached_calls_per_query", div(float64(cached), nq), "count", 0},
		{"llm.in_tokens_per_query", div(float64(inTokens), nq), "count", 0},
		{"core.plan_self_ms", perSpan("core.plan"), "ms", lt.count["core.plan"]},
		{"core.plan_llm_calls", div(float64(planCalls), float64(t.nlPhased)), "count", 0},
		{"sce.llm_calls", div(float64(sceCalls), float64(len(t.phased))), "count", 0},
		{"optimizer.optimize_self_ms", perSpan("optimizer.optimize"), "ms", lt.count["optimizer.optimize"]},
		{"optimizer.plan_cache_hit_rate", t.planCache.HitRate(), "ratio", 0},
		{"exec.run_self_ms", perSpan("exec.run"), "ms", lt.count["exec.run"]},
		{"exec.docs_scanned_per_query", div(float64(scanned), nq), "count", 0},
		{"sched.vsec_per_query", div(vsec.Seconds(), nq), "vsec", 0},
		{"sched.grant_wait_vsec_per_query", div(grantWait.Seconds(), nq), "vsec", 0},
		{"sched.contended_share", div(float64(contended), nq), "ratio", 0},
		{"cache.llm_hit_rate", t.llmCache.HitRate(), "ratio", 0},
		{"cache.held_mb", float64(t.sys.Cache.Bytes()) / (1 << 20), "MB", 0},
		{"cache.evictions", float64(t.sys.Cache.Stats().Evictions), "count", 0},
		{"views.hit_rate", t.views.HitRate(), "ratio", 0},
		{"views.backfills_per_cycle", div(float64(t.views.Backfills), float64(t.cycles)), "count", 0},
		{"views.invalidated_per_cycle", div(float64(t.views.Invalidated), float64(t.cycles)), "count", 0},
		{"ingest.window_share", div(float64(t.ingestWall), float64(t.windowWall)), "ratio", 0},
		{"obs.spans_per_query", div(float64(spansSeen), nq), "count", 0},
		{"answers.accuracy", r.accuracy, "ratio", 0},
		{"trace.untracked_share", untracked, "ratio", 0},
		{"trace.overhead_pct", 100 * div(float64(t.phasedWall-t.plainWall), float64(t.plainWall)), "%", 0},
	}
}

func countSpans(s *obs.Span) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += countSpans(c)
	}
	return n
}

// probeK is the top-k of the search probes.
const probeK = 50

// probes times calls into single exported functions, outside any query.
// They are the same on every workload except where they use the
// workload's own System (estimator, scheduler replay, server, registry).
func probes(sc scale, t *traced, in *inputs) []metric {
	ctx := context.Background()
	docs := in.ds.Documents()
	if len(docs) > sc.probeDocs {
		docs = docs[:sc.probeDocs]
	}
	nl := in.nl
	if len(nl) > sc.probeQueries {
		nl = nl[:sc.probeQueries]
	}
	var out []metric
	add := func(name string, v float64, unit string, n int) { out = append(out, metric{name, v, unit, n}) }
	// per times fn once per item and returns the median.
	per := func(n int, fn func(i int)) time.Duration {
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			fn(i)
			xs[i] = float64(time.Since(start))
		}
		return time.Duration(median(xs))
	}

	// Prompt build and parse, over prompts the run's queries really sent.
	var prompts []string
	for _, tc := range t.timed {
		prompts = append(prompts, tc.prompts...)
	}
	tasks := make([]string, len(prompts))
	fields := make([]map[string]string, len(prompts))
	add("llm.prompt_parse_us", us(per(len(prompts), func(i int) { tasks[i], fields[i], _ = llm.ParsePrompt(prompts[i]) })), "us", len(prompts))
	add("llm.prompt_build_us", us(per(len(prompts), func(i int) { llm.BuildPrompt(tasks[i], fields[i]) })), "us", len(prompts))

	// Query frontends.
	add("nlq.parse_us", us(per(len(nl), func(i int) { nlq.Parse(nl[i]) })), "us", len(nl))
	twins := in.mix[len(in.nl):]
	env := usql.Env{Dataset: in.ds.Name, Entity: in.ds.EntityWord}
	add("usql.compile_us", us(per(len(twins), func(i int) {
		if uq, err := usql.Parse(twins[i]); err == nil {
			usql.Compile(uq, env)
		}
	})), "us", len(twins))

	// The estimator on the workload's System, minus the model time nested
	// in it (the probe is single-threaded, so busy time is its own).
	conds := workload.SemanticConditions(in.qs)
	busy := func() (ns int64) {
		for _, tc := range t.timed {
			ns += tc.busy.Load()
		}
		return ns
	}
	selfs := make([]float64, 0, len(conds))
	for _, c := range conds {
		b0, start := busy(), time.Now()
		_, _, err := t.sys.Estimator.Estimate(ctx, sce.Unify, c, 24)
		if err == nil {
			selfs = append(selfs, ms(time.Since(start)-time.Duration(busy()-b0)))
		}
	}
	add("sce.estimate_self_ms", median(selfs), "ms", len(selfs))

	// Virtual-time replay of each answered plan's task graph.
	plans := t.answers
	if len(plans) > 2*sc.probeQueries {
		plans = plans[:2*sc.probeQueries]
	}
	add("vtime.replay_us_per_query", us(per(len(plans), func(i int) {
		if tasks, err := t.sys.Optimizer.PlanTasks(plans[i].Plan); err == nil {
			vtime.NewSchedule(t.sys.Config.Slots).Run(tasks)
		}
	})), "us", len(plans))

	// Embedding and the vector indexes.
	emb := embedding.New(embedding.DefaultDim)
	vecs := make([][]float32, len(docs))
	add("embedding.embed_us_per_doc", us(per(len(docs), func(i int) { vecs[i] = emb.Embed(docs[i].Text) })), "us", len(docs))
	hnsw, flat := vector.NewHNSW(vector.DefaultHNSWConfig()), vector.NewFlat()
	add("vector.hnsw_add_us", us(per(len(docs), func(i int) { hnsw.Add(docs[i].ID, vecs[i]) })), "us", len(docs))
	for i, d := range docs {
		flat.Add(d.ID, vecs[i])
	}
	qvecs := make([][]float32, len(nl))
	for i, q := range nl {
		qvecs[i] = emb.Embed(q)
	}
	add("vector.hnsw_search_us", us(per(len(nl), func(i int) { hnsw.Search(qvecs[i], probeK) })), "us", len(nl))
	add("vector.flat_search_us", us(per(len(nl), func(i int) { flat.Search(qvecs[i], probeK) })), "us", len(nl))

	// The document store: bulk build, search, incremental add, update.
	half := len(docs) / 2
	start := time.Now()
	store, err := docstore.New("probe", docs[:half])
	build := time.Since(start)
	if err == nil {
		add("docstore.build_ms_per_kdoc", ms(build)*1000/float64(half), "ms", 1)
		add("docstore.search_us", us(per(len(nl), func(i int) { store.SearchDocs(nl[i], probeK) })), "us", len(nl))
		start = time.Now()
		store.AddDocs(docs[half:])
		add("docstore.add_ms_per_doc", ms(time.Since(start))/float64(len(docs)-half), "ms", 1)
		add("docstore.update_ms", ms(per(sc.probeReps, func(i int) {
			store.UpdateDoc(docstore.Document{ID: docs[i].ID, Title: docs[i].Title, Text: docs[len(docs)-1-i].Text})
		})), "ms", sc.probeReps)
	}

	out = append(out, obsProbes(sc, t, in, nl)...)
	return append(out, serverProbes(t, nl)...)
}

// obsProbes measures what the always-on tracer and the trace store cost a
// query: warm passes over twin Systems, one with default retention and
// one with MaxTraces -1, sharing one set of recorded model replies.
func obsProbes(sc scale, t *traced, in *inputs, qs []string) []metric {
	var render bytes.Buffer
	renders := make([]float64, sc.probeReps)
	for i := range renders {
		render.Reset()
		start := time.Now()
		t.sys.Metrics.Reg.WritePrometheus(&render)
		renders[i] = us(time.Since(start))
	}
	out := []metric{{"obs.prometheus_render_us", median(renders), "us", len(renders)}}

	n := len(in.ds.Docs)
	if n > sc.probeDocs {
		n = sc.probeDocs
	}
	ds := prefix(in.ds, n)
	simP, simW := stockSims()
	planner, worker := newReplay(simP), newReplay(simW)
	open := func(opts ...unify.Option) (*unify.System, error) {
		sys, err := openSystem(ds, append(opts, unify.WithClients(planner, worker))...)
		if err != nil {
			return nil, err
		}
		p := pass(qs, libraryAsk(sys), nil, 0)
		for _, err := range p.errs {
			if err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	on, err := open()
	if err != nil {
		return out
	}
	off, err := open(unify.WithTraceRetention(-1, 0))
	if err != nil {
		return out
	}
	var diffs []float64
	for i := 0; i < 3*sc.probeReps; i++ {
		a := pass(qs, libraryAsk(on), nil, 0).wall
		b := pass(qs, libraryAsk(off), nil, 0).wall
		diffs = append(diffs, ms(a-b)/float64(len(qs)))
	}
	return append(out, metric{"obs.trace_cost_ms_per_query", median(diffs), "ms", len(diffs)})
}

// serverProbes measures what the HTTP layer adds to a warm query: the
// handler on a ResponseRecorder against the library call, and a real
// loopback round trip against the handler.
func serverProbes(t *traced, qs []string) []metric {
	s, err := serve(t.sys)
	if err != nil {
		return nil
	}
	defer s.stop()
	client := newHTTPClient()
	wire := httpAsk(client, s.url)
	// Paired per query, after one unmeasured call so that all three
	// measured calls find the same warm state.
	var overHandler, overWire []float64
	var bytesOut, rejected int
	for _, q := range qs {
		if _, err := t.sys.Query(context.Background(), q); err != nil {
			continue
		}
		start := time.Now()
		t.sys.Query(context.Background(), q)
		lib := ms(time.Since(start))

		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"query":%q}`, q)))
		start = time.Now()
		s.srv.ServeHTTP(rw, req)
		handler := ms(time.Since(start))
		bytesOut += rw.Body.Len()
		if rw.Code != http.StatusOK {
			rejected++
		}

		start = time.Now()
		if _, err := wire(q); err != nil {
			rejected++
		}
		loop := ms(time.Since(start))
		overHandler = append(overHandler, handler-lib)
		overWire = append(overWire, loop-handler)
	}
	n := len(overHandler)
	return []metric{
		{"server.handler_overhead_ms", median(overHandler), "ms", n},
		{"server.wire_overhead_ms", median(overWire), "ms", n},
		{"server.response_bytes", div(float64(bytesOut), float64(n)), "B", n},
		{"server.rejected_share", div(float64(rejected), float64(2*n)), "ratio", 0},
	}
}
