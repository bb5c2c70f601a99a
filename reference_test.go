package unify

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unify/internal/core"
	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/optimizer"
	"unify/internal/workload"
)

// The session memo's reference is the path it replaced, kept reachable as
// a System whose Planner has no cache attached: asked a question again,
// it walks Algorithm 1 through the warm llm layer, prompt by prompt. The
// memo has to be indistinguishable from it in everything a caller, a
// scrape or a profile can see.

// replaySystem is diffSystem with the planner's session cache detached.
func replaySystem(t *testing.T, ds *corpus.Dataset) *System {
	t.Helper()
	sys := diffSystem(t, ds, nil)
	sys.Planner = core.NewPlanner(sys.PlannerClient, sys.Store.Embedder(), sys.Config.K, 3, sys.Config.Tau)
	return sys
}

// expositionLessCache renders /metrics without the cache's own series:
// the layers' traffic is where the two paths are meant to differ.
func expositionLessCache(sys *System) string {
	var buf bytes.Buffer
	sys.Metrics.Reg.WritePrometheus(&buf)
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "unify_cache_") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func TestSessionMemoMatchesReplayEndToEnd(t *testing.T) {
	ds := diffDataset(t)
	memo, replay := diffSystem(t, ds, nil), replaySystem(t, ds)
	// Two instances of each of the 20 templates: the 40 Q-nl texts the
	// cache experiment and the wall-clock benchmark replay.
	var queries []string
	for _, wq := range workload.Generate(ds, 2, 42) {
		queries = append(queries, wq.Text)
	}
	if len(queries) != 40 {
		t.Fatalf("workload has %d NL queries, want 40", len(queries))
	}
	ctx := context.Background()
	for repeat := 0; repeat < 2; repeat++ {
		for _, q := range queries {
			got, err := memo.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != want.Text || got.TotalDur != want.TotalDur || got.PlanningDur != want.PlanningDur ||
				got.LLMCalls != want.LLMCalls || got.CachedLLMCalls != want.CachedLLMCalls ||
				got.PlanCacheHit != want.PlanCacheHit || got.Fallback != want.Fallback {
				t.Errorf("repeat %d %q:\n memo   %q total %v planning %v calls %d cached %d plan-hit %v\n replay %q total %v planning %v calls %d cached %d plan-hit %v",
					repeat, q, got.Text, got.TotalDur, got.PlanningDur, got.LLMCalls, got.CachedLLMCalls, got.PlanCacheHit,
					want.Text, want.TotalDur, want.PlanningDur, want.LLMCalls, want.CachedLLMCalls, want.PlanCacheHit)
			}
			if !reflect.DeepEqual(got.Profile, want.Profile) {
				t.Errorf("repeat %d %q: cost profiles differ:\n memo   %+v\n replay %+v", repeat, q, got.Profile, want.Profile)
			}
			if !reflect.DeepEqual(got.Unresolved, want.Unresolved) {
				t.Errorf("repeat %d %q: unresolved %v vs %v", repeat, q, got.Unresolved, want.Unresolved)
			}
		}
	}
	// Every per-task counter, histogram and profile series the queries
	// fed: byte-identical.
	if a, b := expositionLessCache(memo), expositionLessCache(replay); a != b {
		t.Errorf("expositions differ outside the cache's own series:\n--- memo\n%s\n--- replay\n%s", a, b)
	}
	// The planner's own output, session by session.
	for _, q := range queries {
		got, gotStats, err := memo.Planner.GeneratePlans(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := replay.Planner.GeneratePlans(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: memoised plans differ from the replay's", q)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("%q: memoised PlanStats differ from the replay's:\n got %+v\nwant %+v", q, gotStats, wantStats)
		}
		// The digest the planner computed once is the one the optimizer
		// would compute per query.
		for i, p := range got {
			if p.Digest() != p.Clone().Digest() {
				t.Errorf("%q: plan %d's sealed digest is not its content's", q, i)
			}
		}
	}
	layers := memo.CacheStats()
	if st := layers["session"]; st.Misses != 40 || st.Hits != 80 {
		t.Errorf("session layer = %+v, want 40 misses (first pass) and 80 hits (second pass, planner pass)", st)
	}
	if ev := memo.Cache.Stats().Evictions + replay.Cache.Stats().Evictions; ev != 0 {
		t.Errorf("%d evictions: the comparison only holds while the llm layer keeps every prompt", ev)
	}
	if st := replay.CacheStats()["session"]; st.Hits+st.Misses+uint64(st.Entries) != 0 {
		t.Errorf("the reference system used a session layer: %+v", st)
	}
}

// opsDown is a worker client that, once armed, fails every operator
// prompt and still answers the Generate fallback's.
type opsDown struct {
	llm.Client
	armed atomic.Bool
}

func (o *opsDown) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	if o.armed.Load() && llm.TaskOf(prompt) != "generate" {
		return llm.Response{}, errors.New("operator model down")
	}
	return o.Client.Complete(ctx, prompt)
}

// TestSessionMemoIsNotPoisoned: a query that hit the memo and then fell
// back at execution wrote Fallback on its own copy of the stats, and
// nothing on the query path writes through the shared plans — checked
// under -race with eight goroutines on one question.
func TestSessionMemoIsNotPoisoned(t *testing.T) {
	sys, _ := openSmall(t, 150)
	ctx := context.Background()
	const q = "How many questions about football have more than 500 views?"
	first, err := sys.Query(ctx, q)
	if err != nil || first.Fallback {
		t.Fatalf("first answer: %+v, %v", first, err)
	}
	shared, _, err := sys.Planner.GeneratePlans(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	pristine := make([]*core.Plan, len(shared))
	for i, p := range shared {
		pristine[i] = p.Clone()
	}
	untouched := func(when string) {
		t.Helper()
		plans, stats, err := sys.Planner.GeneratePlans(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Fallback {
			t.Errorf("%s: the stored session says Fallback", when)
		}
		for i, p := range plans {
			if p != shared[i] {
				t.Errorf("%s: plan %d is no longer the shared plan", when, i)
			}
			if !reflect.DeepEqual(p.Clone(), pristine[i]) {
				t.Errorf("%s: shared plan %d was modified:\n%s\nwas\n%s", when, i, p, pristine[i])
			}
		}
	}

	down := &opsDown{Client: sys.Executor.Worker}
	sys.Executor.Worker = down
	down.armed.Store(true)
	hurt, err := sys.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hurt.Fallback || hurt.Plan.Root().Op != "Generate" {
		t.Fatalf("operators down: fallback=%v root=%s, want the execute-phase Generate fallback", hurt.Fallback, hurt.Plan.Root().Op)
	}
	down.armed.Store(false)
	untouched("after the fallback")
	again, err := sys.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fallback || again.Text != first.Text {
		t.Errorf("re-asked after the fallback: %q fallback=%v, want %q", again.Text, again.Fallback, first.Text)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ans, err := sys.Query(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				if ans.Text != first.Text || ans.Fallback {
					t.Errorf("concurrent answer %q fallback=%v, want %q", ans.Text, ans.Fallback, first.Text)
				}
			}
		}()
	}
	wg.Wait()
	untouched("after eight goroutines")
}

// TestModeOverrideSharesTheSessionNotThePlan: the optimizer mode is no
// part of a planning session, so a per-query override is planned from the
// memo; it is part of the plan-cache key, so the first overridden query
// still optimizes and the second hits.
func TestModeOverrideSharesTheSessionNotThePlan(t *testing.T) {
	sys, _ := openSmall(t, 150)
	ctx := context.Background()
	const q = "How many questions about football have more than 500 views?"
	if _, err := sys.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	for i, wantPlanHit := range []bool{false, true} {
		before := sys.CacheStats()
		ans, err := sys.Query(ctx, q, WithModeOverride(optimizer.Rule))
		if err != nil {
			t.Fatal(err)
		}
		after := sys.CacheStats()
		if d := after["session"].Sub(before["session"]); d.Hits != 1 || d.Misses != 0 {
			t.Errorf("override query %d: session layer %d hits %d misses, want one hit", i, d.Hits, d.Misses)
		}
		if ans.PlanningDur != 0 {
			t.Errorf("override query %d: planning vtime %v, want 0 (memoised session)", i, ans.PlanningDur)
		}
		if ans.PlanCacheHit != wantPlanHit {
			t.Errorf("override query %d: plan-cache hit = %v, want %v", i, ans.PlanCacheHit, wantPlanHit)
		}
	}
}
