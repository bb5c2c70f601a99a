package unify

// End-to-end checks for the shared cache hierarchy: warm replays of a
// workload must be dramatically cheaper, byte budgets must hold under
// load, and the cache/sim accounting must reconcile at the system level.

import (
	"context"
	"testing"
	"time"

	"unify/internal/corpus"
	"unify/internal/llm"
)

// TestWarmWorkloadSpeedup replays a small workload against one system and
// requires the warm batch to be at least 5x cheaper in simulated time than
// the cold batch, with byte-identical answers. It also pins the truly-cold
// behavior: the first query on a cached system returns the same answer as
// an uncached (CacheBytes < 0) system and is never slower — it may be
// slightly faster, because estimation probes and execution share filter
// prompts even within a single query.
func TestWarmWorkloadSpeedup(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"How many questions are about tennis?",
		"How many questions are about golf?",
		"How many questions are about swimming?",
		"How many questions are about cycling?",
	}

	uncached, err := New(WithConfig(Config{Dataset: "sports", CacheBytes: -1}), WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithConfig(Config{Dataset: "sports"}), WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cache == nil {
		t.Fatal("default config did not enable the shared cache")
	}

	ctx := context.Background()
	first, err := uncached.Query(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	cold0, err := sys.Query(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if cold0.Text != first.Text {
		t.Fatalf("cold cached answer %q != uncached answer %q", cold0.Text, first.Text)
	}
	if cold0.TotalDur > first.TotalDur {
		t.Errorf("caching made a cold query slower: cached %v, uncached %v", cold0.TotalDur, first.TotalDur)
	}
	if cold0.PlanCacheHit {
		t.Error("first query reported a plan-cache hit")
	}

	coldTotal := cold0.TotalDur
	coldText := map[string]string{queries[0]: cold0.Text}
	for _, q := range queries[1:] {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		coldTotal += ans.TotalDur
		coldText[q] = ans.Text
	}

	var warmTotal time.Duration
	warmPlanHits, warmCached := 0, 0
	for _, q := range queries {
		ans, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		warmTotal += ans.TotalDur
		if ans.Text != coldText[q] {
			t.Errorf("warm answer for %q diverged: %q != %q", q, ans.Text, coldText[q])
		}
		if ans.PlanCacheHit {
			warmPlanHits++
		}
		warmCached += ans.CachedLLMCalls
	}
	if warmPlanHits != len(queries) {
		t.Errorf("plan cache served %d/%d warm queries", warmPlanHits, len(queries))
	}
	if warmCached == 0 {
		t.Error("warm pass reported zero cached LLM calls")
	}
	if warmTotal*5 > coldTotal {
		t.Errorf("warm batch not >=5x faster: cold %v, warm %v", coldTotal, warmTotal)
	}

	// Cache/sim reconciliation: every LLM-layer miss forwards exactly one
	// prompt to a simulated backend, so the backends' call counts must sum
	// to the layer's misses.
	layers := sys.CacheStats()

	// Dead-layer guard: the memoization story is exactly these four
	// layers, and each must have earned a hit over cold+warm. A layer
	// that registers on the shared cache without ever hitting fails here.
	if len(layers) != 4 {
		t.Errorf("cache layers = %v, want exactly llm, plan, selectivity, session", layers)
	}
	for _, name := range []string{"llm", "plan", "selectivity", "session"} {
		if st, ok := layers[name]; !ok || st.Hits == 0 {
			t.Errorf("cache layer %q: registered=%v hits=%d, want hits > 0", name, ok, st.Hits)
		}
	}

	sims := map[*llm.Sim]bool{}
	for _, c := range []llm.Client{sys.PlannerClient, sys.WorkerClient} {
		if s := llm.SimOf(c); s != nil {
			sims[s] = true
		}
	}
	if len(sims) == 0 {
		t.Fatal("no simulated backends found behind the system clients")
	}
	var backendCalls uint64
	for s := range sims {
		calls, _ := s.Stats()
		backendCalls += uint64(calls)
	}
	if backendCalls != layers["llm"].Misses {
		t.Errorf("sim backends saw %d calls but llm layer recorded %d misses",
			backendCalls, layers["llm"].Misses)
	}
}

// TestCacheByteBudgetEndToEnd opens a system with a tiny cache budget and
// verifies the resident footprint never exceeds it while evictions churn.
func TestCacheByteBudgetEndToEnd(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8 << 10
	sys, err := New(WithConfig(Config{Dataset: "sports", CacheBytes: budget}), WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []string{
		"How many questions are about tennis?",
		"How many questions are about golf?",
		"How many questions are about swimming?",
	} {
		if _, err := sys.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		if got := sys.Cache.Bytes(); got > budget {
			t.Fatalf("cache footprint %d exceeds budget %d", got, budget)
		}
	}
	if sys.Cache.Stats().Evictions == 0 {
		t.Error("tiny budget produced no evictions")
	}
}
