package llm

import (
	"context"
	"sync"
	"testing"

	"unify/internal/cache"
)

func newCachedSim(t *testing.T) (*Cached, *Sim, *cache.LRU) {
	t.Helper()
	sim := NewSim(SimConfig{Profile: WorkerProfile(), Seed: 1})
	lru := cache.New(1 << 20)
	layer := cache.NewLayer[Response](lru, "llm", ResponseCost)
	return NewCached(sim, layer), sim, lru
}

func TestCachedMemoizesAndZeroesDur(t *testing.T) {
	c, _, _ := newCachedSim(t)
	ctx := context.Background()
	prompt := "#TASK filter_doc\n#COND about gravity\n#DOC d1: apples fall down"
	r1, err := c.Complete(ctx, prompt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Dur == 0 {
		t.Fatalf("cold call: cached=%v dur=%v, want live call with positive dur", r1.Cached, r1.Dur)
	}
	r2, err := c.Complete(ctx, prompt)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Dur != 0 {
		t.Fatalf("warm call: cached=%v dur=%v, want cached with zero dur", r2.Cached, r2.Dur)
	}
	if r2.Text != r1.Text || r2.OutTokens != r1.OutTokens {
		t.Fatalf("cached response differs: %q vs %q", r2.Text, r1.Text)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("layer stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCachedKeysIncludeModel(t *testing.T) {
	lru := cache.New(1 << 20)
	layer := cache.NewLayer[Response](lru, "llm", ResponseCost)
	worker := NewCached(NewSim(SimConfig{Profile: WorkerProfile(), Seed: 1}), layer)
	planner := NewCached(NewSim(SimConfig{Profile: PlannerProfile(), Seed: 1}), layer)
	ctx := context.Background()
	prompt := "#TASK filter_doc\n#COND about gravity\n#DOC d1: apples fall"
	if _, err := worker.Complete(ctx, prompt); err != nil {
		t.Fatal(err)
	}
	r, err := planner.Complete(ctx, prompt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("planner call hit the worker's cache entry: keys must include model name")
	}
}

func TestCachedVsSimAccounting(t *testing.T) {
	// Every call that reaches the Sim corresponds to exactly one cache
	// layer miss: layer.misses == sim calls, layer hits never reach it.
	c, sim, _ := newCachedSim(t)
	ctx := context.Background()
	prompts := []string{
		"#TASK filter_doc\n#COND about space\n#DOC d1: stars shine",
		"#TASK filter_doc\n#COND about space\n#DOC d2: planets orbit",
		"#TASK filter_doc\n#COND about space\n#DOC d1: stars shine", // repeat
	}
	for _, p := range prompts {
		for i := 0; i < 3; i++ {
			if _, err := c.Complete(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls, _ := sim.Stats()
	st := c.Stats()
	if uint64(calls) != st.Misses {
		t.Fatalf("sim calls %d != layer misses %d", calls, st.Misses)
	}
	if calls != 2 {
		t.Fatalf("sim calls = %d, want 2 distinct prompts", calls)
	}
	if st.Hits != 7 {
		t.Fatalf("layer hits = %d, want 7 (9 calls - 2 misses)", st.Hits)
	}
}

func TestCachedCoalescesConcurrentPrompts(t *testing.T) {
	c, sim, _ := newCachedSim(t)
	ctx := context.Background()
	prompt := "#TASK filter_doc\n#COND about rain\n#DOC d9: clouds gather"
	var wg sync.WaitGroup
	const n = 12
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Complete(ctx, prompt); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls, _ := sim.Stats(); calls != 1 {
		t.Fatalf("sim saw %d calls for one prompt, want 1 (memoized or coalesced)", calls)
	}
	st := c.Stats()
	if st.Hits+st.Misses != n {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, n)
	}
}

func TestUnwrapAndSimOf(t *testing.T) {
	c, sim, _ := newCachedSim(t)
	rec := NewRecorder(c)
	tr := NewTraced(rec, nil)
	if got := SimOf(tr); got != sim {
		t.Fatal("SimOf failed to reach the base Sim through Traced>Recorder>Cached")
	}
	if SimOf(nil) != nil {
		t.Fatal("SimOf(nil) should be nil")
	}
}

func TestRecorderPropagatesCachedFlag(t *testing.T) {
	c, _, _ := newCachedSim(t)
	rec := NewRecorder(c)
	ctx := context.Background()
	prompt := "#TASK filter_doc\n#COND about fire\n#DOC d3: flames rise"
	for i := 0; i < 2; i++ {
		if _, err := rec.Complete(ctx, prompt); err != nil {
			t.Fatal(err)
		}
	}
	calls := rec.Calls()
	if len(calls) != 2 {
		t.Fatalf("recorded %d calls, want 2", len(calls))
	}
	if calls[0].Cached || !calls[1].Cached {
		t.Fatalf("cached flags = %v,%v, want false,true", calls[0].Cached, calls[1].Cached)
	}
	if calls[1].Dur != 0 {
		t.Fatalf("cached call dur = %v, want 0", calls[1].Dur)
	}
}
