package cache

import (
	"errors"
	"fmt"
	"hash/maphash"
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
	l := New(60, WithShards(1))
	lay := NewLayer[string](l, "evt", func(s string) int64 { return int64(len(s)) })
	for i := 0; i < 10; i++ {
		lay.GetOrCompute(fmt.Sprintf("key-%d", i), func() (string, error) { return "0123456789", nil })
	}
	lay.GetOrCompute("key-9", func() (string, error) { return "0123456789", nil })
	st := lay.Stats()
	if st.Misses != 10 {
		t.Fatalf("misses = %d, want 10", st.Misses)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under tight budget")
	}
	// Every computed value is either resident or was evicted.
	if st.Evictions+uint64(st.Entries) != st.Misses {
		t.Fatalf("evictions %d + entries %d != misses %d", st.Evictions, st.Entries, st.Misses)
	}
	// The per-layer snapshot the metrics registry reads is the same one.
	if got := l.LayerStats()["evt"]; got != st {
		t.Fatalf("LayerStats = %+v, layer Stats = %+v", got, st)
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

// collidingKey is a Key whose digest says nothing beyond its group:
// every key of a group lands on one collision chain, so only Equal
// tells them apart.
type collidingKey struct{ group, name string }

func (k collidingKey) HashTo(h *maphash.Hash) { h.WriteString(k.group) }
func (k collidingKey) Equal(o Key) bool {
	ok, is := o.(collidingKey)
	return is && ok == k
}
func (k collidingKey) Len() int { return len(k.name) }

// TestCollidingKeysStayDistinct is the cache's exactness under the worst
// digest there is: distinct keys keep distinct values, and replacing or
// evicting the head, the middle or the tail of a collision chain loses
// no other entry and moves no counter it should not.
func TestCollidingKeysStayDistinct(t *testing.T) {
	const cost = 10
	names := []string{"a", "b", "c"} // chain after the inserts: c -> b -> a
	for pos, victim := range map[string]string{"head": "c", "middle": "b", "tail": "a"} {
		for _, via := range []string{"replace", "evict"} {
			t.Run(pos+"/"+via, func(t *testing.T) {
				l := New(3*cost, WithShards(1))
				lay := NewLayer[string](l, "x", func(string) int64 { return cost })
				get := func(name string) (string, bool) {
					v, ok := l.get(lay.stats, lookup{key: collidingKey{"g", name}})
					s, _ := v.(string)
					return s, ok
				}
				for _, n := range names {
					l.put(lay.stats, lookup{key: collidingKey{"g", n}}, "v-"+n, cost)
				}
				if got := len(l.shards[0].items); got != 1 {
					t.Fatalf("%d digests for three colliding keys, want 1", got)
				}
				for _, n := range names {
					if v, ok := get(n); !ok || v != "v-"+n {
						t.Fatalf("get(%s) = %q, %v", n, v, ok)
					}
				}
				want := map[string]string{"a": "v-a", "b": "v-b", "c": "v-c"}
				switch via {
				case "replace":
					l.put(lay.stats, lookup{key: collidingKey{"g", victim}}, "new", cost)
					want[victim] = "new"
				case "evict":
					// Make the victim the least recently used, then push
					// it out from another chain.
					for _, n := range names {
						if n != victim {
							get(n)
						}
					}
					l.put(lay.stats, lookup{key: collidingKey{"other", "d"}}, "v-d", cost)
					delete(want, victim)
				}
				for _, n := range names {
					v, ok := get(n)
					if w, live := want[n]; ok != live || v != w {
						t.Errorf("after %s of %s: get(%s) = %q, %v; want %q, %v", via, victim, n, v, ok, w, live)
					}
				}
				st := lay.Stats()
				wantEvictions := map[string]uint64{"replace": 0, "evict": 1}[via]
				if st.Evictions != wantEvictions || st.Entries != 3 || st.Bytes != 3*cost || l.Len() != 3 || l.Bytes() != 3*cost {
					t.Errorf("after %s: stats %+v, lru len %d bytes %d; want %d evictions, 3 entries, %d bytes", via, st, l.Len(), l.Bytes(), wantEvictions, 3*cost)
				}
			})
		}
	}
}

// TestCollidingKeysCoalesceOnlyWhenEqual: a lookup joins an in-flight
// computation of an Equal key, never one that merely shares its digest.
func TestCollidingKeysCoalesceOnlyWhenEqual(t *testing.T) {
	lay := NewLayer[string](New(1<<20), "x", nil)
	gate := make(chan struct{})
	leading := make(chan struct{})
	var wg sync.WaitGroup
	var computes atomic.Int64
	lookup := func(name string, compute func() (string, error)) {
		defer wg.Done()
		v, _, err := lay.GetOrComputeKey(collidingKey{"g", name}, compute)
		if err != nil || v != "v-"+name {
			t.Errorf("lookup(%s) = %q, %v", name, v, err)
		}
	}
	wg.Add(2)
	go lookup("a", func() (string, error) {
		computes.Add(1)
		close(leading)
		<-gate
		return "v-a", nil
	})
	<-leading
	go lookup("a", func() (string, error) { computes.Add(1); return "v-a", nil })
	// Same digest, different key: computes at once, beside a's flight.
	wg.Add(1)
	lookup("b", func() (string, error) { computes.Add(1); return "v-b", nil })
	time.Sleep(50 * time.Millisecond) // let the follower reach a's flight
	close(gate)
	wg.Wait()
	st := lay.Stats()
	if c := computes.Load(); c != 2 || st.Coalesced != 1 || st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("computes = %d, stats = %+v; want 2 computes (a and b), a's follower coalesced", c, st)
	}
}

// TestGetOrComputePanicDoesNotWedgeKey: a computation that panics must
// not leave its flight behind. Before the deferred clean-up, the second
// lookup of the key — and every one after — blocked forever.
func TestGetOrComputePanicDoesNotWedgeKey(t *testing.T) {
	lay := NewLayer[int](New(1<<20, WithShards(1)), "p", nil)
	joined := make(chan struct{})
	waiter := make(chan error, 1)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the computation's own panic", r)
			}
		}()
		lay.GetOrCompute("k", func() (int, error) {
			go func() {
				close(joined)
				_, _, err := lay.GetOrCompute("k", func() (int, error) { return 2, nil })
				waiter <- err
			}()
			<-joined
			time.Sleep(20 * time.Millisecond) // let the waiter reach the flight
			panic("boom")
		})
	}()
	deadline := time.After(10 * time.Second)
	select {
	case err := <-waiter:
		// Joined the flight (woken with the error) or arrived after it
		// was cleaned up (computed 2 itself): either way it returned.
		if err != nil && !errors.Is(err, ErrComputePanicked) {
			t.Errorf("waiter err = %v", err)
		}
	case <-deadline:
		t.Fatal("a lookup that joined the panicked flight never woke")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := lay.GetOrCompute("k", func() (int, error) { return 3, nil })
		if err != nil || (v != 2 && v != 3) {
			t.Errorf("lookup after the panic = %d, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("the key is wedged: a lookup after the panic never returned")
	}
	if n := len(lay.lru.shards[0].inflight); n != 0 {
		t.Errorf("%d flights left behind", n)
	}
}

// TestStringKeyHitAllocatesNothing pins the hit path of a string-keyed
// layer: the hasher is pooled and the key is never boxed, so Get and a
// GetOrCompute hit allocate nothing. (A value wider than a pointer is
// boxed once, when it is stored, and unboxing it copies no heap. Under
// the race detector sync.Pool drops a quarter of what it is handed back;
// AllocsPerRun's integer average still reads 0.)
func TestStringKeyHitAllocatesNothing(t *testing.T) {
	lay := NewLayer[float64](New(1<<20), "x", nil)
	lay.Put("a key of ordinary length", 0.25)
	compute := func() (float64, error) { return 0, errors.New("computed on a hit") }
	var sink float64
	if n := testing.AllocsPerRun(200, func() {
		v, _ := lay.Get("a key of ordinary length")
		sink += v
	}); n != 0 {
		t.Errorf("Layer.Get hit: %v allocations per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		v, _, _ := lay.GetOrCompute("a key of ordinary length", compute)
		sink += v
	}); n != 0 {
		t.Errorf("Layer.GetOrCompute hit: %v allocations per run, want 0", n)
	}
	if sink == 0 {
		t.Fatal("hits returned nothing")
	}
}
