// Package cache is Unify's shared reuse backbone: a sharded,
// byte-cost-bounded LRU with in-flight coalescing (singleflight). One LRU
// instance backs every caching layer in the system — LLM responses,
// planning sessions, optimizer selectivities and plans — so a single byte
// budget governs total memory and hot layers can displace cold ones.
// Entries are never invalidated in place: a layer whose values depend on
// mutable state (the corpus) puts that state's generation in its keys, and
// superseded entries age out of the LRU.
//
// Layers are typed, named views over the shared LRU (see Layer). Each
// layer owns its hit/miss/eviction/coalesce counters; LayerStats is the
// one place to read them, and a lookup never calls out of the package.
//
// Values handed back by Get/GetOrCompute are shared between callers:
// treat them as immutable.
package cache

import (
	"container/list"
	"errors"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one layer (or the whole LRU).
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Coalesced += o.Coalesced
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// Sub returns the delta s - o (counters only; Entries/Bytes are copied
// from s). Used to report per-phase hit rates in benchmarks.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
		Coalesced: s.Coalesced - o.Coalesced,
		Entries:   s.Entries,
		Bytes:     s.Bytes,
	}
}

// layerStats holds one layer's counters (updated with atomics so hot
// paths never contend on a layer-wide lock).
type layerStats struct {
	name      string
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	coalesced atomic.Uint64
	entries   atomic.Int64
	bytes     atomic.Int64
}

func (ls *layerStats) snapshot() Stats {
	return Stats{
		Hits:      ls.hits.Load(),
		Misses:    ls.misses.Load(),
		Evictions: ls.evictions.Load(),
		Coalesced: ls.coalesced.Load(),
		Entries:   ls.entries.Load(),
		Bytes:     ls.bytes.Load(),
	}
}

// Key identifies an entry within a layer without being one string. The
// LRU finds entries by a 64-bit digest of the bytes HashTo streams and
// then verifies Equal on every digest match, so two keys share an entry
// exactly when they are Equal — a digest collision costs a comparison,
// never a wrong answer. Equal keys must stream equal bytes. A key is
// retained for as long as its entry lives and is read concurrently:
// treat it as immutable.
type Key interface {
	// HashTo streams the key's identity into h.
	HashTo(h *maphash.Hash)
	// Equal reports whether other names the same entry.
	Equal(other Key) bool
	// Len is the key's share of the entry's byte cost.
	Len() int
}

// StringKey is a Key that is one string.
type StringKey string

// HashTo implements Key.
func (k StringKey) HashTo(h *maphash.Hash) { h.WriteString(string(k)) }

// Equal implements Key.
func (k StringKey) Equal(other Key) bool {
	o, ok := other.(StringKey)
	return ok && o == k
}

// Len implements Key.
func (k StringKey) Len() int { return len(k) }

// lookup names an entry for the length of one call: a structured Key, or
// a plain string that travels unboxed — it becomes a StringKey only when
// an entry or a flight has to retain it — so a string-keyed hit allocates
// nothing.
type lookup struct {
	key Key // nil for a string key
	str string
}

func (k lookup) hashTo(h *maphash.Hash) {
	if k.key != nil {
		k.key.HashTo(h)
		return
	}
	h.WriteString(k.str)
}

// names reports whether stored is the key k looks up.
func (k lookup) names(stored Key) bool {
	if k.key != nil {
		return stored.Equal(k.key)
	}
	s, ok := stored.(StringKey)
	return ok && string(s) == k.str
}

// retained is the form of k an entry keeps.
func (k lookup) retained() Key {
	if k.key != nil {
		return k.key
	}
	return StringKey(k.str)
}

// ErrComputePanicked is what the waiters of a coalesced lookup receive
// when the computation they joined panicked; the panic itself continues
// up the computing goroutine's stack.
var ErrComputePanicked = errors.New("cache: computation panicked")

// entry is one cached value with its accounting metadata.
type entry struct {
	hash  uint64 // digest of (layer name, key)
	key   Key
	val   any
	bytes int64
	layer *layerStats
	el    *list.Element
	next  *entry // next entry with the same digest
}

// flight is one in-progress computation that concurrent identical lookups
// join.
type flight struct {
	hash  uint64
	key   Key
	layer *layerStats
	done  chan struct{}
	val   any
	err   error
}

// shard is one lock domain of the LRU.
type shard struct {
	mu       sync.Mutex
	ll       *list.List        // front = most recently used
	items    map[uint64]*entry // digest -> collision chain
	inflight []*flight         // a handful at most: scanned, not indexed
	bytes    int64
	budget   int64
}

// LRU is the shared cache. Construct with New; the zero value is not
// usable. A nil *LRU is a valid "caching disabled" sink: layers over a
// nil LRU compute every lookup.
type LRU struct {
	shards []*shard
	seed   maphash.Seed

	mu     sync.Mutex
	layers map[string]*layerStats
}

// Option configures LRU construction.
type Option func(*LRU)

// WithShards overrides the shard count (rounded up to a power of two).
func WithShards(n int) Option {
	return func(l *LRU) {
		if n < 1 {
			n = 1
		}
		p := 1
		for p < n {
			p <<= 1
		}
		l.shards = make([]*shard, p)
	}
}

// DefaultShards is the default lock-domain count.
const DefaultShards = 8

// New returns an LRU bounded by maxBytes (divided evenly across shards).
// A non-positive maxBytes yields a cache that stores nothing but still
// coalesces concurrent computations.
func New(maxBytes int64, opts ...Option) *LRU {
	l := &LRU{seed: maphash.MakeSeed(), layers: map[string]*layerStats{}}
	l.shards = make([]*shard, DefaultShards)
	for _, o := range opts {
		o(l)
	}
	per := maxBytes / int64(len(l.shards))
	for i := range l.shards {
		l.shards[i] = &shard{
			ll:     list.New(),
			items:  map[uint64]*entry{},
			budget: per,
		}
	}
	return l
}

const layerSep = "\x1f"

// hashers recycles the digest state: a hasher handed to Key.HashTo
// escapes, and one allocated per lookup was the cost of every hit.
var hashers = sync.Pool{New: func() any { return new(maphash.Hash) }}

// locate digests (layer name, key) and returns the digest with the shard
// it selects.
func (l *LRU) locate(ls *layerStats, key lookup) (uint64, *shard) {
	h := hashers.Get().(*maphash.Hash)
	h.SetSeed(l.seed) // also discards what the last user wrote
	h.WriteString(ls.name)
	h.WriteString(layerSep)
	key.hashTo(h)
	sum := h.Sum64()
	hashers.Put(h)
	return sum, l.shards[sum&uint64(len(l.shards)-1)]
}

func (l *LRU) layer(name string) *layerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, ok := l.layers[name]
	if !ok {
		ls = &layerStats{name: name}
		l.layers[name] = ls
	}
	return ls
}

// findLocked walks the digest's collision chain for the entry whose layer
// and key are the ones asked for. Caller holds sh.mu.
func (sh *shard) findLocked(hash uint64, ls *layerStats, key lookup) *entry {
	for e := sh.items[hash]; e != nil; e = e.next {
		if e.layer == ls && key.names(e.key) {
			return e
		}
	}
	return nil
}

// lookupLocked returns the value for key, marking it most recently used.
// Caller holds sh.mu.
func (sh *shard) lookupLocked(hash uint64, ls *layerStats, key lookup) (any, bool) {
	e := sh.findLocked(hash, ls, key)
	if e == nil {
		return nil, false
	}
	sh.ll.MoveToFront(e.el)
	return e.val, true
}

// removeLocked unlinks an entry and updates its layer accounting. Caller
// holds sh.mu.
func (sh *shard) removeLocked(e *entry) {
	sh.ll.Remove(e.el)
	if head := sh.items[e.hash]; head != e {
		for head.next != e {
			head = head.next
		}
		head.next = e.next
	} else if e.next != nil {
		sh.items[e.hash] = e.next
	} else {
		delete(sh.items, e.hash)
	}
	sh.bytes -= e.bytes
	e.layer.entries.Add(-1)
	e.layer.bytes.Add(-e.bytes)
}

// insertLocked adds or replaces an entry, then evicts from the LRU tail
// until the shard respects its budget. Caller holds sh.mu.
func (sh *shard) insertLocked(hash uint64, key lookup, val any, cost int64, ls *layerStats) {
	if old := sh.findLocked(hash, ls, key); old != nil {
		sh.removeLocked(old) // replaced, not evicted
	}
	e := &entry{hash: hash, key: key.retained(), val: val, bytes: cost, layer: ls, next: sh.items[hash]}
	e.el = sh.ll.PushFront(e)
	sh.items[hash] = e
	sh.bytes += cost
	ls.entries.Add(1)
	ls.bytes.Add(cost)
	for sh.bytes > sh.budget && sh.ll.Len() > 0 {
		back := sh.ll.Back().Value.(*entry)
		sh.removeLocked(back)
		back.layer.evictions.Add(1)
	}
}

// get returns the cached value for (layer, key).
func (l *LRU) get(ls *layerStats, key lookup) (any, bool) {
	if l == nil {
		return nil, false
	}
	hash, sh := l.locate(ls, key)
	sh.mu.Lock()
	v, ok := sh.lookupLocked(hash, ls, key)
	sh.mu.Unlock()
	if ok {
		ls.hits.Add(1)
		return v, true
	}
	ls.misses.Add(1)
	return nil, false
}

// put inserts a value.
func (l *LRU) put(ls *layerStats, key lookup, val any, cost int64) {
	if l == nil {
		return
	}
	if cost < 1 {
		cost = 1
	}
	hash, sh := l.locate(ls, key)
	sh.mu.Lock()
	sh.insertLocked(hash, key, val, cost, ls)
	sh.mu.Unlock()
}

// do implements GetOrCompute with singleflight coalescing: the first
// caller computes, concurrent identical callers wait for its result. The
// boolean reports whether the caller avoided the computation (cache hit
// or coalesced wait).
func (l *LRU) do(ls *layerStats, key lookup, cost func(any) int64, compute func() (any, error)) (any, bool, error) {
	if l == nil {
		v, err := compute()
		return v, false, err
	}
	hash, sh := l.locate(ls, key)
	sh.mu.Lock()
	if v, ok := sh.lookupLocked(hash, ls, key); ok {
		sh.mu.Unlock()
		ls.hits.Add(1)
		return v, true, nil
	}
	for _, f := range sh.inflight {
		if f.hash != hash || f.layer != ls || !key.names(f.key) {
			continue
		}
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			ls.misses.Add(1)
			return nil, false, f.err
		}
		ls.hits.Add(1)
		ls.coalesced.Add(1)
		return f.val, true, nil
	}
	// Until compute returns, the flight's outcome is "panicked": the
	// deferred block below runs on a panic too, so the flight always
	// leaves inflight and its waiters always wake.
	f := &flight{hash: hash, key: key.retained(), layer: ls, done: make(chan struct{}), err: ErrComputePanicked}
	sh.inflight = append(sh.inflight, f)
	sh.mu.Unlock()
	ls.misses.Add(1)

	defer func() {
		sh.mu.Lock()
		i := slices.Index(sh.inflight, f)
		sh.inflight = slices.Delete(sh.inflight, i, i+1)
		if f.err == nil {
			c := cost(f.val)
			if c < 1 {
				c = 1
			}
			sh.insertLocked(hash, key, f.val, c, ls)
		}
		sh.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, false, f.err
}

// Stats aggregates every layer's counters.
func (l *LRU) Stats() Stats {
	var out Stats
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ls := range l.layers {
		out.add(ls.snapshot())
	}
	return out
}

// LayerStats returns a per-layer snapshot keyed by layer name.
func (l *LRU) LayerStats() map[string]Stats {
	out := map[string]Stats{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, ls := range l.layers {
		out[name] = ls.snapshot()
	}
	return out
}

// Bytes returns the total resident cost across shards.
func (l *LRU) Bytes() int64 {
	if l == nil {
		return 0
	}
	var n int64
	for _, sh := range l.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Len returns the total entry count across shards.
func (l *LRU) Len() int {
	if l == nil {
		return 0
	}
	n := 0
	for _, sh := range l.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Layer is a typed, named view over a shared LRU. The cost function
// prices an entry in bytes for the shared budget. A nil *Layer (or a
// layer over a nil LRU) is a valid no-op: every lookup computes.
type Layer[V any] struct {
	lru   *LRU
	stats *layerStats
	cost  func(V) int64
}

// NewLayer registers (or rejoins) the named layer on l. A nil l returns a
// nil layer.
func NewLayer[V any](l *LRU, name string, cost func(V) int64) *Layer[V] {
	if l == nil {
		return nil
	}
	if cost == nil {
		cost = func(V) int64 { return 64 }
	}
	return &Layer[V]{lru: l, stats: l.layer(name), cost: cost}
}

// Get returns the cached value for key.
func (l *Layer[V]) Get(key string) (V, bool) {
	var zero V
	if l == nil {
		return zero, false
	}
	v, ok := l.lru.get(l.stats, lookup{str: key})
	if !ok {
		return zero, false
	}
	return v.(V), true
}

// Put inserts a value, pricing it with the layer's cost function.
func (l *Layer[V]) Put(key string, v V) {
	if l == nil {
		return
	}
	l.lru.put(l.stats, lookup{str: key}, v, l.cost(v)+int64(len(key)))
}

// GetOrCompute returns the cached value for key, computing and caching it
// on a miss while coalescing concurrent identical lookups. The boolean
// reports whether the computation was avoided (hit or coalesced).
func (l *Layer[V]) GetOrCompute(key string, compute func() (V, error)) (V, bool, error) {
	return l.getOrCompute(lookup{str: key}, len(key), compute)
}

// GetOrComputeKey is GetOrCompute for a structured key. The key is
// retained with the entry it creates; an entry is charged the value's
// cost plus key.Len().
func (l *Layer[V]) GetOrComputeKey(key Key, compute func() (V, error)) (V, bool, error) {
	return l.getOrCompute(lookup{key: key}, key.Len(), compute)
}

func (l *Layer[V]) getOrCompute(key lookup, keyLen int, compute func() (V, error)) (V, bool, error) {
	if l == nil {
		v, err := compute()
		return v, false, err
	}
	v, hit, err := l.lru.do(l.stats, key,
		func(a any) int64 { return l.cost(a.(V)) + int64(keyLen) },
		func() (any, error) { return compute() })
	if err != nil {
		var zero V
		return zero, false, err
	}
	return v.(V), hit, nil
}

// Stats snapshots the layer's counters.
func (l *Layer[V]) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return l.stats.snapshot()
}
