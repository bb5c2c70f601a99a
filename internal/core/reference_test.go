package core

import (
	"context"
	"reflect"
	"testing"

	"unify/internal/cache"
	"unify/internal/embedding"
	"unify/internal/llm"
	"unify/internal/obs"
)

// The reference for the session memo is the path it replaced: a Planner
// with no cache attached, asked again over a warm response cache. It
// replays Algorithm 1 prompt by prompt and finds every answer cached;
// the memo has to report that same session from one lookup.

var memoQueries = []string{
	"How many questions about football have more than 500 views?",
	"What is the average score of questions related to injury?",
	"Among questions with over 500 views, which sport has the highest ratio of number of questions related to injury to number of questions related to training?",
	"Please summarize the general mood of the community.", // Generate fallback
}

// memoPair returns a memoising planner and its replaying reference over
// one response cache, both on lru.
func memoPair(lru *cache.LRU, k int, tau float64) (memo, replay *Planner) {
	cfg := llm.DefaultSimConfig()
	cfg.Profile = llm.PlannerProfile()
	cfg.RerankNoise, cfg.BindNoise = 0, 0
	client := llm.NewCached(llm.NewSim(cfg), cache.NewLayer[llm.Response](lru, "llm", llm.ResponseCost))
	emb := embedding.New(embedding.DefaultDim)
	memo = NewPlanner(client, emb, k, 3, tau)
	memo.AttachCache(lru)
	return memo, NewPlanner(client, emb, k, 3, tau)
}

func TestSessionMemoMatchesReplay(t *testing.T) {
	lru := cache.New(64 << 20)
	memo, replay := memoPair(lru, 5, 0.75)
	ctx := context.Background()
	for _, q := range memoQueries {
		cold, coldStats, err := memo.GeneratePlans(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if coldStats.Duration <= 0 {
			t.Fatalf("%q: first planning reported no vtime", q)
		}
		for repeat := 0; repeat < 2; repeat++ {
			span := obs.NewTracer().Start("planning", obs.KindPhase)
			got, gotStats, err := memo.GeneratePlans(obs.WithSpan(ctx, span), q)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := replay.GeneratePlans(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: memoised plans differ from the replay's", q)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%q: memoised stats differ from the replay's:\n got %+v\nwant %+v", q, gotStats, wantStats)
			}
			for i := range got {
				if got[i] != cold[i] {
					t.Errorf("%q: plan %d is not the shared plan of the first session", q, i)
				}
				if got[i].Digest() != got[i].Clone().Digest() {
					t.Errorf("%q: plan %d carries a digest that is not its content's", q, i)
				}
			}
			// One line of EXPLAIN ANALYZE: totals, no children.
			attrs := map[string]string{}
			for _, a := range span.Attrs() {
				attrs[a.Key] = a.Value
			}
			if attrs["cached"] != "true" || attrs["plans"] == "" || attrs["llm_calls"] == "" || len(span.Children()) != 0 {
				t.Errorf("%q: planning span of a memo hit: attrs %v, %d children", q, attrs, len(span.Children()))
			}
			if (attrs["fallback"] == "true") != gotStats.Fallback {
				t.Errorf("%q: span fallback attr %q, stats say %v", q, attrs["fallback"], gotStats.Fallback)
			}
		}
	}
	st := lru.LayerStats()["session"]
	if want := uint64(len(memoQueries)); st.Misses != want || st.Hits != 2*want || st.Entries != int64(want) {
		t.Errorf("session layer = %+v, want %d misses, %d hits, %d entries", st, want, 2*want, want)
	}
}

// TestSessionMemoHandsOutACopyOfTheHeader: the caller owns the PlanStats
// it is handed (System.execute writes Fallback); the stored session must
// not see the write.
func TestSessionMemoHandsOutACopyOfTheHeader(t *testing.T) {
	memo, _ := memoPair(cache.New(64<<20), 5, 0.75)
	ctx := context.Background()
	q := memoQueries[0]
	if _, _, err := memo.GeneratePlans(ctx, q); err != nil {
		t.Fatal(err)
	}
	_, stats, err := memo.GeneratePlans(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	stats.Fallback, stats.Duration = true, 1
	_, again, err := memo.GeneratePlans(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fallback || again.Duration != 0 {
		t.Errorf("a caller's write reached the stored session: %+v", again)
	}
}

// TestSessionKeySeparation: everything a session depends on is in its
// key, so planners that would search differently never share an entry on
// a cache they share.
func TestSessionKeySeparation(t *testing.T) {
	lru := cache.New(64 << 20)
	base, _ := memoPair(lru, 5, 0.75)
	variants := map[string]*Planner{}
	variants["tau"], _ = memoPair(lru, 5, 0.5)
	variants["k"], _ = memoPair(lru, 3, 0.75)
	variants["nc"], _ = memoPair(lru, 5, 0.75)
	variants["nc"].NC = 1
	variants["max-steps"], _ = memoPair(lru, 5, 0.75)
	variants["max-steps"].MaxSteps = 2
	ctx := context.Background()
	q := memoQueries[0]
	if _, _, err := base.GeneratePlans(ctx, q); err != nil {
		t.Fatal(err)
	}
	sessions := func() cache.Stats { return lru.LayerStats()["session"] }
	for name, p := range variants {
		before := sessions()
		if _, _, err := p.GeneratePlans(ctx, q); err != nil {
			t.Fatal(err)
		}
		if d := sessions().Sub(before); d.Hits != 0 || d.Misses != 1 {
			t.Errorf("planner differing in %s: %d hits, %d misses on the shared cache; want its own entry", name, d.Hits, d.Misses)
		}
	}
	// A planner configured the same shares the entry.
	twin, _ := memoPair(lru, 5, 0.75)
	before := sessions()
	if _, _, err := twin.GeneratePlans(ctx, q); err != nil {
		t.Fatal(err)
	}
	if d := sessions().Sub(before); d.Hits != 1 {
		t.Errorf("identically configured planner: %d hits, want 1", d.Hits)
	}
	if got := sessions().Entries; got != int64(1+len(variants)) {
		t.Errorf("session entries = %d, want %d", got, 1+len(variants))
	}
}

// TestPlannerWithoutCachePlansAfresh: no cache attached, no memo — the
// configuration the reference above and CacheBytes < 0 both rely on.
func TestPlannerWithoutCachePlansAfresh(t *testing.T) {
	pl := noiselessPlanner(3, 0.75)
	pl.AttachCache(nil)
	ctx := context.Background()
	_, a, err := pl.GeneratePlans(ctx, memoQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := pl.GeneratePlans(ctx, memoQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration <= 0 || b.Duration != a.Duration {
		t.Errorf("uncached planner: durations %v then %v, want the same live session twice", a.Duration, b.Duration)
	}
}
