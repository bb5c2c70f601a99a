package llm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// gated is a base client that answers when released and gives up when
// its caller's context does, as Sim and HTTPClient do.
type gated struct {
	entered chan struct{} // one send per call that reached the model
	release chan struct{}
	calls   atomic.Int64
}

func (g *gated) Complete(ctx context.Context, prompt string) (Response, error) {
	g.calls.Add(1)
	g.entered <- struct{}{}
	select {
	case <-ctx.Done():
		return Response{}, ctx.Err()
	case <-g.release:
		return Response{Text: "yes", InTokens: 1, OutTokens: 1, Dur: time.Second}, nil
	}
}

func (g *gated) Profile() Profile { return Profile{Name: "gated"} }

// TestCoalescedCallerKeepsItsOwnContext: a call that joins another's
// in-flight prompt must not fail because the other caller's deadline
// passed. The leader is cancelled inside the model call with a follower
// waiting on its flight; the follower then sends the prompt itself.
func TestCoalescedCallerKeepsItsOwnContext(t *testing.T) {
	base := &gated{entered: make(chan struct{}, 2), release: make(chan struct{})}
	lru := cache.New(1 << 20)
	c := NewCached(base, cache.NewLayer[Response](lru, "llm", ResponseCost))
	const prompt = "#TASK filter_doc\n#COND about tides\n#DOC d4: the moon pulls"

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(leaderCtx, prompt)
		leaderErr <- err
	}()
	<-base.entered // the leader is inside the model call

	type outcome struct {
		resp Response
		err  error
	}
	followed := make(chan outcome, 1)
	go func() {
		resp, err := c.Complete(context.Background(), prompt)
		followed <- outcome{resp, err}
	}()
	// Let the follower park on the leader's flight. Arriving late, it
	// leads a call of its own and every assertion below still holds.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want its own context.Canceled", err)
	}
	var got outcome
	select {
	case <-base.entered: // the follower's own call
		close(base.release)
		got = <-followed
	case got = <-followed:
	}
	if got.err != nil {
		t.Fatalf("follower with a live context inherited %v", got.err)
	}
	if got.resp.Text != "yes" || got.resp.Cached || got.resp.Dur != time.Second {
		t.Errorf("follower response = %+v, want the live call it made itself", got.resp)
	}
	if n := base.calls.Load(); n != 2 {
		t.Errorf("model saw %d calls, want 2 (the leader's and the follower's)", n)
	}
	if st := c.Stats(); st.Entries != 1 || lru.Len() != 1 {
		t.Errorf("entries = %d (lru %d), want the response stored once", st.Entries, lru.Len())
	}
	// A follower whose own context is done gets the error it was handed.
	if resp, err := c.Complete(context.Background(), prompt); err != nil || !resp.Cached {
		t.Errorf("after the fact: %+v, %v; want a cache hit", resp, err)
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
