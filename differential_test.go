package unify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"unify/internal/baselines"
	"unify/internal/check"
	"unify/internal/corpus"
	"unify/internal/faults"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/optimizer"
	"unify/internal/workload"
)

// The differential/metamorphic harness: the axes registered in
// internal/check.Axes are wired to real system pairs here (check cannot
// import unify). Every axis runs the same seeded workload slice through
// both configurations; exact axes must agree byte-for-byte.

// diffDataset is the harness corpus: small and noise-free so runs are
// fast and bit-for-bit deterministic.
func diffDataset(t *testing.T) *corpus.Dataset {
	t.Helper()
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// diffSystem opens a strict-checked, noise-free system; mut customizes
// the config for one side of an axis.
func diffSystem(t *testing.T, ds *corpus.Dataset, mut func(*Config)) *System {
	t.Helper()
	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1} // zero noise
	cfg := Config{Dataset: "sports", Sim: &sim, StrictChecks: true}
	if mut != nil {
		mut(&cfg)
	}
	sys, err := New(WithConfig(cfg), WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// diffQueries is the seeded workload slice every axis replays.
func diffQueries(ds *corpus.Dataset, n int) []string {
	qs := workload.Generate(ds, 1, 42)
	if n > len(qs) {
		n = len(qs)
	}
	out := make([]string, 0, n)
	for _, q := range qs[:n] {
		out = append(out, q.Text)
	}
	return out
}

// textRunner fingerprints a query by answer text only (for axes where
// virtual latency legitimately shifts, e.g. cache hits).
func textRunner(sys *System) check.Runner {
	return func(ctx context.Context, q string) (string, error) {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			return "", err
		}
		return ans.Text, nil
	}
}

// exactRunner fingerprints answer text plus virtual latency: the axis
// must be invisible to results AND timing.
func exactRunner(sys *System) check.Runner {
	return func(ctx context.Context, q string) (string, error) {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			return "", err
		}
		return ans.Text + " @" + ans.TotalDur.String(), nil
	}
}

func assertNoMismatch(t *testing.T, axis string, ms []check.Mismatch) {
	t.Helper()
	for _, m := range ms {
		t.Errorf("metamorphic violation %s", m)
	}
}

// Axis "cache": a cache hit must change latency only, never the answer.
func TestDifferentialCacheOnOff(t *testing.T) {
	ds := diffDataset(t)
	on := diffSystem(t, ds, nil)
	off := diffSystem(t, ds, func(c *Config) { c.CacheBytes = -1 })
	ms := check.Differential(context.Background(), "cache", diffQueries(ds, 6),
		textRunner(on), textRunner(off))
	assertNoMismatch(t, "cache", ms)
}

// Axis "faults-zero": a fault plan that can never fire (rate 0), plus the
// retry layer it installs, must be a perfect no-op — same answers, same
// virtual latency.
func TestDifferentialZeroFaultRate(t *testing.T) {
	ds := diffDataset(t)
	clean := diffSystem(t, ds, nil)
	zero := diffSystem(t, ds, func(c *Config) {
		c.FaultPlan = faults.Uniform(faults.Transient, 0, 7)
	})
	ms := check.Differential(context.Background(), "faults-zero", diffQueries(ds, 6),
		exactRunner(clean), exactRunner(zero))
	assertNoMismatch(t, "faults-zero", ms)
}

// Axis "pool": a lone query on the shared slot pool must schedule exactly
// as on a private single-query pool (the PR-4 equivalence guarantee).
func TestDifferentialSharedVsSoloPool(t *testing.T) {
	ds := diffDataset(t)
	shared := diffSystem(t, ds, nil)
	solo := diffSystem(t, ds, nil)
	// A nil executor pool selects a fresh private pool per execution; the
	// system-level pool still admits/releases but is never scheduled on.
	solo.Executor.Pool = nil
	ms := check.Differential(context.Background(), "pool", diffQueries(ds, 6),
		exactRunner(shared), exactRunner(solo))
	assertNoMismatch(t, "pool", ms)
}

// Axis "mode-override": per-query WithModeOverride(m) must behave exactly
// like a system opened with Mode m.
func TestDifferentialModeOverride(t *testing.T) {
	ds := diffDataset(t)
	ruleSys := diffSystem(t, ds, func(c *Config) { c.Mode = optimizer.Rule })
	overrideSys := diffSystem(t, ds, nil) // CostBased system, per-query override
	left := exactRunner(ruleSys)
	right := func(ctx context.Context, q string) (string, error) {
		ans, err := overrideSys.Query(ctx, q, WithModeOverride(optimizer.Rule))
		if err != nil {
			return "", err
		}
		return ans.Text + " @" + ans.TotalDur.String(), nil
	}
	ms := check.Differential(context.Background(), "mode-override", diffQueries(ds, 6), left, right)
	assertNoMismatch(t, "mode-override", ms)
}

// Axis "batching" (satellite: batching on/off differential): continuous
// batching coalesces compatible calls across queries into shared
// invocations, but answers are computed live before virtual-time replay —
// so enabling it must never change answer text on the seeded workload
// slice. Run under -race in CI: the batching wrapper and pool policy are
// exercised on the concurrent serving path elsewhere, and this test's
// sequential replay doubles as the data-race canary for the new layers.
func TestDifferentialBatchingOnOff(t *testing.T) {
	ds := diffDataset(t)
	off := diffSystem(t, ds, nil)
	on := diffSystem(t, ds, func(c *Config) { c.Batching = true })
	// exactRunner, not textRunner: sequential queries never co-pend, so
	// cross-query batching must be invisible to virtual latency too.
	ms := check.Differential(context.Background(), "batching", diffQueries(ds, 6),
		exactRunner(off), exactRunner(on))
	assertNoMismatch(t, "batching", ms)
	if got := len(check.Axes); got != 8 {
		t.Fatalf("axis registry has %d axes, expected 8 (batching, usql_vs_nl, or ingest missing?)", got)
	}
}

// Axis "ingest": a corpus grown incrementally (a base prefix at open plus
// an Ingest of the remainder) must be indistinguishable from one built
// statically over the full collection — byte-identical answers AND
// virtual latency. This leans on the docstore guarantee that AddDocs
// appends through the exact indexing sequence New uses (same vectors,
// same HNSW insertion order and RNG stream, same sentence ids).
func TestDifferentialIngest(t *testing.T) {
	full := diffDataset(t)
	static := diffSystem(t, full, nil)

	// The corpus generator is prefix-stable: the first 135 documents of a
	// 150-document corpus are the 135-document corpus.
	base, err := corpus.GenerateN("sports", 135)
	if err != nil {
		t.Fatal(err)
	}
	incr := diffSystem(t, base, nil)
	res, err := incr.Ingest(full.Documents()[135:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 15 || res.Generation != 1 || res.Docs != 150 {
		t.Fatalf("unexpected ingest result %+v", res)
	}

	ms := check.Differential(context.Background(), "ingest", diffQueries(full, 6),
		exactRunner(static), exactRunner(incr))
	assertNoMismatch(t, "ingest", ms)

	// A planning session outlives the ingest — no planner prompt carries a
	// document, so its key has no generation — while every plan and
	// selectivity derived from the old corpus dies with it. A system that
	// answered the slice before growing answers it afterwards from the
	// memoised sessions, re-optimized, and equal to the cold rebuild.
	warm := diffSystem(t, base, nil)
	queries := diffQueries(full, 6)
	for _, q := range queries {
		if _, err := warm.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := warm.Ingest(full.Documents()[135:], nil); err != nil {
		t.Fatal(err)
	}
	before := warm.CacheStats()
	replanned := func(ctx context.Context, q string) (string, error) {
		ans, err := warm.Query(ctx, q)
		if err != nil {
			return "", err
		}
		if ans.PlanningDur != 0 || ans.PlanCacheHit {
			t.Errorf("%q after the ingest: planning vtime %v, plan-cache hit %v; want the memoised session and a fresh optimization",
				q, ans.PlanningDur, ans.PlanCacheHit)
		}
		return ans.Text, nil
	}
	ms = check.Differential(context.Background(), "ingest", queries, textRunner(static), replanned)
	assertNoMismatch(t, "ingest", ms)
	after := warm.CacheStats()
	if d := after["session"].Sub(before["session"]); d.Hits != uint64(len(queries)) || d.Misses != 0 {
		t.Errorf("session layer across the generation bump: %d hits, %d misses; want %d hits", d.Hits, d.Misses, len(queries))
	}
	if d := after["plan"].Sub(before["plan"]); d.Hits != 0 {
		t.Errorf("plan layer served %d plans from before the ingest", d.Hits)
	}
}

// Axis "usql_vs_nl": the USQL parser route and the LLM planner route
// are two independent compilers onto the same logical operators, so on
// every workload query that exists in both forms they must produce
// byte-identical answers with identical estimation + execution virtual
// time (planning time legitimately differs: the parsed route has none).
// The USQL side's planner client is wrapped in a recorder BELOW the
// response cache, so the test also proves the parsed route never
// invokes the planner LLM at all — zero planner-task calls, cold or
// warm.
func TestDifferentialUSQLVsNL(t *testing.T) {
	ds := diffDataset(t)
	nl := diffSystem(t, ds, nil)

	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	cfg := Config{Dataset: "sports", Sim: &sim, StrictChecks: true}
	pcfg := sim
	pcfg.Profile = llm.PlannerProfile()
	prec := llm.NewRecorder(llm.NewSim(pcfg))
	us, err := New(WithConfig(cfg), WithCorpus(ds), WithClients(prec, llm.NewSim(sim)))
	if err != nil {
		t.Fatal(err)
	}

	toUSQL := map[string]string{}
	var queries []string
	for _, q := range workload.Generate(ds, 1, 42) {
		if q.USQL == "" {
			continue
		}
		queries = append(queries, q.Text)
		toUSQL[q.Text] = q.USQL
	}
	if len(queries) < 10 {
		t.Fatalf("only %d dual-form workload queries, expected at least 10", len(queries))
	}
	// Fingerprint: answer text plus estimation+execution vtime. Left
	// runs the NL text through the planner; right runs the USQL twin
	// through the parser, pinned to LangUSQL so a detection bug cannot
	// silently fall back to the planner.
	fingerprint := func(sys *System, rewrite func(string) string, opts ...QueryOption) check.Runner {
		return func(ctx context.Context, q string) (string, error) {
			ans, err := sys.Query(ctx, rewrite(q), opts...)
			if err != nil {
				return "", err
			}
			return ans.Text + " @" + (ans.EstimationDur + ans.ExecDur).String(), nil
		}
	}
	ms := check.Differential(context.Background(), "usql_vs_nl", queries,
		fingerprint(nl, func(q string) string { return q }),
		fingerprint(us, func(q string) string { return toUSQL[q] }, WithLanguage(LangUSQL)))
	assertNoMismatch(t, "usql_vs_nl", ms)
	if calls := prec.Calls(); len(calls) != 0 {
		t.Fatalf("USQL route made %d planner-LLM calls (first task %q), want 0", len(calls), calls[0].Task)
	}
}

// Axis "optimized-vs-exhaustive": the cost-based optimizer must not give
// up accuracy relative to the exhaustive baseline (the paper's headline
// claim); tolerance is one query on this small slice.
func TestDifferentialOptimizedVsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive baseline is slow")
	}
	ds := diffDataset(t)
	sys := diffSystem(t, ds, nil)
	ex := baselines.NewExhaust(sys.Store, sys.PlannerClient, sys.WorkerClient)
	queries := workload.Generate(ds, 1, 42)[:6]

	unifyOK, exOK := 0, 0
	for _, q := range queries {
		ans, err := sys.Query(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("unify %s: %v", q.ID, err)
		}
		if workload.Score(q, ans.Text) {
			unifyOK++
		}
		res, err := ex.Run(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("exhaust %s: %v", q.ID, err)
		}
		if workload.Score(q, res.Text) {
			exOK++
		}
	}
	if unifyOK < exOK-1 {
		t.Errorf("optimized accuracy %d/%d fell more than tolerance below exhaustive %d/%d",
			unifyOK, len(queries), exOK, len(queries))
	}
	t.Logf("unify %d/%d correct, exhaustive %d/%d correct", unifyOK, len(queries), exOK, len(queries))
}

// Satellite (nondeterminism sweep): two identical systems replaying the
// same workload slice must agree byte-for-byte — answers, the Prometheus
// exposition, and the stats snapshot JSON. This pins the fixed leaks
// (first-seen label order in /metrics, Snapshot mutating the registry).
func TestRepeatedRunByteIdentity(t *testing.T) {
	ds := diffDataset(t)
	queries := diffQueries(ds, 5)

	run := func() (answers []string, prom []byte, snap []byte, traced []byte) {
		sys := diffSystem(t, ds, nil)
		for _, q := range queries {
			ans, err := sys.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, fmt.Sprintf("%s @%s", ans.Text, ans.TotalDur))
		}
		var buf bytes.Buffer
		sys.Metrics.Reg.WritePrometheus(&buf)
		// Reading the snapshot must not change the exposition (regression:
		// Snapshot used to create empty series).
		js, err := json.Marshal(sys.Metrics.Reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		sys.Metrics.Reg.WritePrometheus(&buf2)
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("Snapshot changed subsequent /metrics output")
		}
		// The observability surfaces ride the same contract: the retained
		// trace list and the cumulative cost profile are vtime-only and
		// must serialize identically across identical runs.
		tj, err := json.Marshal(sys.Traces.List(obs.TraceFilter{}))
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(sys.Profiler.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return answers, buf.Bytes(), js, append(append(tj, '\n'), pj...)
	}

	a1, p1, s1, t1 := run()
	a2, p2, s2, t2 := run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("answer %d differs between identical runs:\n  run1: %s\n  run2: %s", i, a1[i], a2[i])
		}
	}
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus exposition differs between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("stats snapshot JSON differs between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace list / cost profile JSON differs between identical runs")
	}
	if bytes.Contains(t1, []byte("wall")) {
		t.Error("trace/profile JSON leaks wall-clock fields")
	}
}
