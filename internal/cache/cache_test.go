package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLayerGetPut(t *testing.T) {
	l := New(1 << 20)
	lay := NewLayer[string](l, "test", func(s string) int64 { return int64(len(s)) })
	if _, ok := lay.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	lay.Put("a", "hello")
	v, ok := lay.Get("a")
	if !ok || v != "hello" {
		t.Fatalf("got %q ok=%v, want hello", v, ok)
	}
	st := lay.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes = %d, want > 0", st.Bytes)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// Single shard so the budget applies to one LRU list.
	l := New(100, WithShards(1))
	lay := NewLayer[string](l, "ev", func(s string) int64 { return int64(len(s)) })
	for i := 0; i < 20; i++ {
		// Each entry costs ~10 (value) + key length; 20 of them exceed 100.
		lay.Put(fmt.Sprintf("k%02d", i), "0123456789")
	}
	st := lay.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under byte budget")
	}
	if got := l.Bytes(); got > 100 {
		t.Fatalf("resident bytes %d exceed budget 100", got)
	}
	if st.Entries != int64(l.Len()) {
		t.Fatalf("layer entries %d != lru len %d", st.Entries, l.Len())
	}
	// LRU order: the most recent entry must have survived.
	if _, ok := lay.Get("k19"); !ok {
		t.Fatal("most recently inserted entry was evicted")
	}
	// The oldest entry must be gone.
	if _, ok := lay.Get("k00"); ok {
		t.Fatal("oldest entry survived past budget")
	}
}

func TestGetOrComputeCoalescing(t *testing.T) {
	l := New(1 << 20)
	lay := NewLayer[int](l, "sf", func(int) int64 { return 8 })
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := lay.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				<-gate // hold the flight open so everyone piles on
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	// Wait for the leader to register the flight, then give the
	// followers time to join it before releasing.
	for lay.Stats().Misses == 0 {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1 (coalesced)", got)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("result[%d] = %d, want 7", i, v)
		}
	}
	st := lay.Stats()
	if st.Coalesced == 0 {
		t.Fatal("expected coalesced waits recorded")
	}
	if st.Hits+st.Misses != n {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, n)
	}
}

func TestGetOrComputeError(t *testing.T) {
	l := New(1 << 20)
	lay := NewLayer[int](l, "err", func(int) int64 { return 8 })
	boom := errors.New("boom")
	calls := 0
	_, _, err := lay.GetOrCompute("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Errors are not cached: a retry recomputes.
	v, hit, err := lay.GetOrCompute("k", func() (int, error) { calls++; return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("retry got v=%d hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2", calls)
	}
}

func TestNilLayerAndNilLRU(t *testing.T) {
	var lay *Layer[int]
	if _, ok := lay.Get("k"); ok {
		t.Fatal("nil layer returned a hit")
	}
	lay.Put("k", 1) // must not panic
	v, hit, err := lay.GetOrCompute("k", func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("nil layer GetOrCompute = %d,%v,%v", v, hit, err)
	}
	if lay2 := NewLayer[int](nil, "x", nil); lay2 != nil {
		t.Fatal("NewLayer over nil LRU should be nil")
	}
	var lru *LRU
	if lru.Len() != 0 || lru.Bytes() != 0 {
		t.Fatal("nil LRU reports non-zero size")
	}
}

func TestEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	l := New(60, WithShards(1), WithEvents(func(layer string, ev Event, n int) {
		mu.Lock()
		counts[layer+"/"+ev.String()] += n
		mu.Unlock()
	}))
	lay := NewLayer[string](l, "evt", func(s string) int64 { return int64(len(s)) })
	for i := 0; i < 10; i++ {
		lay.GetOrCompute(fmt.Sprintf("key-%d", i), func() (string, error) { return "0123456789", nil })
	}
	lay.GetOrCompute("key-9", func() (string, error) { return "0123456789", nil })
	mu.Lock()
	defer mu.Unlock()
	if counts["evt/miss"] != 10 {
		t.Fatalf("miss events = %d, want 10", counts["evt/miss"])
	}
	if counts["evt/hit"] != 1 {
		t.Fatalf("hit events = %d, want 1", counts["evt/hit"])
	}
	if counts["evt/evict"] == 0 {
		t.Fatal("expected evict events under tight budget")
	}
	st := lay.Stats()
	if uint64(counts["evt/evict"]) != st.Evictions {
		t.Fatalf("evict events %d != stats evictions %d", counts["evt/evict"], st.Evictions)
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	l := New(4096)
	lay := NewLayer[int](l, "conc", func(int) int64 { return 16 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%40)
				switch i % 3 {
				case 0:
					lay.GetOrCompute(k, func() (int, error) { return i, nil })
				case 1:
					lay.Get(k)
				default:
					lay.Put(k, i)
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Bytes(); got > 4096 {
		t.Fatalf("resident bytes %d exceed budget", got)
	}
	// Per-layer byte/entry accounting must agree with shard accounting.
	st := l.Stats()
	if st.Bytes != l.Bytes() {
		t.Fatalf("layer bytes %d != shard bytes %d", st.Bytes, l.Bytes())
	}
	if st.Entries != int64(l.Len()) {
		t.Fatalf("layer entries %d != lru len %d", st.Entries, l.Len())
	}
}

func TestLayerStatsByName(t *testing.T) {
	l := New(1 << 20)
	a := NewLayer[int](l, "a", nil)
	b := NewLayer[int](l, "b", nil)
	a.Put("k", 1)
	a.Get("k")
	b.Get("k") // miss: layers are namespaced
	m := l.LayerStats()
	if m["a"].Hits != 1 || m["b"].Hits != 0 || m["b"].Misses != 1 {
		t.Fatalf("layer stats = %+v", m)
	}
	tot := l.Stats()
	if tot.Hits != 1 || tot.Misses != 1 {
		t.Fatalf("aggregate stats = %+v", tot)
	}
}
