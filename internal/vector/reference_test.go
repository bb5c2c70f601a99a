package vector_test

// refHNSW is the HNSW implementation as it stood before the link-distance
// cache: container/heap behind interfaces, a map as the visited set, a link
// that recomputes every distance it prunes by, the dense embedding.Distance.
// It is kept verbatim (identifiers renamed, package qualifiers added) as
// the reference the differential tests at the end of this file hold the
// production HNSW to, byte for byte.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"unify/internal/corpus"
	"unify/internal/embedding"
	"unify/internal/vector"
)

type refNode struct {
	id    int
	vec   []float32
	level int
	// links[l] lists neighbor slots (indices into nodes) at layer l.
	links [][]int32
}

type refHNSW struct {
	cfg    vector.HNSWConfig
	nodes  []refNode
	byID   map[int]int32
	entry  int32 // slot of entry point, -1 if empty
	maxLvl int
	rng    uint64
	mult   float64 // level multiplier 1/ln(M)
}

func newRefHNSW(cfg vector.HNSWConfig) *refHNSW {
	if cfg.M < 2 {
		cfg.M = 2
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = cfg.M * 4
	}
	if cfg.EfSearch < 1 {
		cfg.EfSearch = 16
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &refHNSW{
		cfg:   cfg,
		byID:  make(map[int]int32),
		entry: -1,
		rng:   seed,
		mult:  1 / math.Log(float64(cfg.M)),
	}
}

// nextFloat is a deterministic xorshift64* PRNG in (0,1).
func (h *refHNSW) nextFloat() float64 {
	h.rng ^= h.rng >> 12
	h.rng ^= h.rng << 25
	h.rng ^= h.rng >> 27
	v := h.rng * 0x2545F4914F6CDD1D
	return (float64(v>>11) + 1) / (1 << 53)
}

func (h *refHNSW) randomLevel() int {
	return int(-math.Log(h.nextFloat()) * h.mult)
}

func (h *refHNSW) maxLinks(layer int) int {
	if layer == 0 {
		return h.cfg.M * 2
	}
	return h.cfg.M
}

// Add implements Index.
func (h *refHNSW) Add(id int, vec []float32) error {
	if id < 0 {
		return fmt.Errorf("vector: negative id %d", id)
	}
	if _, dup := h.byID[id]; dup {
		return fmt.Errorf("vector: duplicate id %d", id)
	}
	level := h.randomLevel()
	slot := int32(len(h.nodes))
	node := refNode{id: id, vec: vec, level: level, links: make([][]int32, level+1)}
	h.nodes = append(h.nodes, node)
	h.byID[id] = slot

	if h.entry < 0 {
		h.entry = slot
		h.maxLvl = level
		return nil
	}

	ep := h.entry
	// Greedy descent through layers above the new node's level.
	for l := h.maxLvl; l > level; l-- {
		ep = h.greedyClosest(vec, ep, l)
	}
	// Insert with beam search on each layer from min(level, maxLvl) down.
	top := level
	if top > h.maxLvl {
		top = h.maxLvl
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(vec, ep, h.cfg.EfConstruction, l)
		neighbors := h.selectNeighbors(vec, cands, h.maxLinks(l))
		h.nodes[slot].links[l] = append(h.nodes[slot].links[l], neighbors...)
		for _, n := range neighbors {
			h.link(n, slot, l)
		}
		if len(cands) > 0 {
			ep = cands[0].slot
		}
	}
	if level > h.maxLvl {
		h.maxLvl = level
		h.entry = slot
	}
	return nil
}

// link adds dst to src's layer-l neighbor list, pruning to capacity by
// keeping the closest links.
func (h *refHNSW) link(src, dst int32, l int) {
	node := &h.nodes[src]
	node.links[l] = append(node.links[l], dst)
	maxL := h.maxLinks(l)
	if len(node.links[l]) <= maxL {
		return
	}
	// Prune: keep the maxL closest neighbors to src.
	type cand struct {
		slot int32
		dist float64
	}
	cands := make([]cand, 0, len(node.links[l]))
	for _, n := range node.links[l] {
		cands = append(cands, cand{n, embedding.Distance(node.vec, h.nodes[n].vec)})
	}
	// Selection by partial sort (small lists).
	for i := 0; i < maxL; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist < cands[best].dist {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	kept := make([]int32, maxL)
	for i := 0; i < maxL; i++ {
		kept[i] = cands[i].slot
	}
	node.links[l] = kept
}

func (h *refHNSW) greedyClosest(q []float32, ep int32, l int) int32 {
	cur := ep
	curDist := embedding.Distance(q, h.nodes[cur].vec)
	for {
		improved := false
		for _, n := range h.nodes[cur].links[l] {
			if d := embedding.Distance(q, h.nodes[n].vec); d < curDist {
				cur, curDist = n, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

type refScored struct {
	slot int32
	dist float64
}

// refMinHeap orders by ascending distance (candidates to expand).
type refMinHeap []refScored

func (h refMinHeap) Len() int            { return len(h) }
func (h refMinHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMinHeap) Push(x interface{}) { *h = append(*h, x.(refScored)) }
func (h *refMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refMaxHeap orders by descending distance (result set, worst on top).
type refMaxHeap []refScored

func (h refMaxHeap) Len() int            { return len(h) }
func (h refMaxHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h refMaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMaxHeap) Push(x interface{}) { *h = append(*h, x.(refScored)) }
func (h *refMaxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// searchLayer runs a beam search of width ef on layer l starting from ep.
// Results are sorted ascending by distance.
func (h *refHNSW) searchLayer(q []float32, ep int32, ef, l int) []refScored {
	visited := map[int32]bool{ep: true}
	start := refScored{ep, embedding.Distance(q, h.nodes[ep].vec)}
	cands := &refMinHeap{start}
	res := &refMaxHeap{start}
	for cands.Len() > 0 {
		c := heap.Pop(cands).(refScored)
		if res.Len() >= ef && c.dist > (*res)[0].dist {
			break
		}
		for _, n := range h.nodes[c.slot].links[l] {
			if visited[n] {
				continue
			}
			visited[n] = true
			d := embedding.Distance(q, h.nodes[n].vec)
			if res.Len() < ef || d < (*res)[0].dist {
				heap.Push(cands, refScored{n, d})
				heap.Push(res, refScored{n, d})
				if res.Len() > ef {
					heap.Pop(res)
				}
			}
		}
	}
	out := make([]refScored, res.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(res).(refScored)
	}
	return out
}

// selectNeighbors keeps the m closest candidates (simple selection, which
// is adequate at the corpus scales exercised here).
func (h *refHNSW) selectNeighbors(q []float32, cands []refScored, m int) []int32 {
	if len(cands) > m {
		cands = cands[:m]
	}
	out := make([]int32, len(cands))
	for i, c := range cands {
		out[i] = c.slot
	}
	return out
}

// Search implements Index.
func (h *refHNSW) Search(query []float32, k int) []vector.Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	ep := h.entry
	for l := h.maxLvl; l > 0; l-- {
		ep = h.greedyClosest(query, ep, l)
	}
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	cands := h.searchLayer(query, ep, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]vector.Result, len(cands))
	for i, c := range cands {
		out[i] = vector.Result{ID: h.nodes[c.slot].id, Distance: c.dist}
	}
	return out
}

// Export snapshots the graph for persistence.
func (h *refHNSW) Export() *vector.HNSWDump {
	d := &vector.HNSWDump{
		Cfg:    h.cfg,
		IDs:    make([]int, len(h.nodes)),
		Vecs:   make([][]float32, len(h.nodes)),
		Levels: make([]int, len(h.nodes)),
		Links:  make([][][]int32, len(h.nodes)),
		Entry:  h.entry,
		MaxLvl: h.maxLvl,
		RNG:    h.rng,
	}
	for i, n := range h.nodes {
		d.IDs[i] = n.id
		d.Vecs[i] = n.vec
		d.Levels[i] = n.level
		links := make([][]int32, len(n.links))
		for l, ls := range n.links {
			links[l] = append([]int32(nil), ls...)
		}
		d.Links[i] = links
	}
	return d
}

// importRefHNSW reconstructs a graph from a dump.
func importRefHNSW(d *vector.HNSWDump) (*refHNSW, error) {
	if d == nil {
		return nil, fmt.Errorf("vector: nil HNSW dump")
	}
	n := len(d.IDs)
	if len(d.Vecs) != n || len(d.Levels) != n || len(d.Links) != n {
		return nil, fmt.Errorf("vector: inconsistent HNSW dump (%d/%d/%d/%d)",
			n, len(d.Vecs), len(d.Levels), len(d.Links))
	}
	h := newRefHNSW(d.Cfg)
	h.rng = d.RNG
	h.entry = d.Entry
	h.maxLvl = d.MaxLvl
	h.nodes = make([]refNode, n)
	for i := 0; i < n; i++ {
		if _, dup := h.byID[d.IDs[i]]; dup {
			return nil, fmt.Errorf("vector: duplicate id %d in dump", d.IDs[i])
		}
		h.byID[d.IDs[i]] = int32(i)
		h.nodes[i] = refNode{
			id:    d.IDs[i],
			vec:   d.Vecs[i],
			level: d.Levels[i],
			links: d.Links[i],
		}
	}
	if n > 0 && (h.entry < 0 || int(h.entry) >= n) {
		return nil, fmt.Errorf("vector: dump entry point %d out of range", h.entry)
	}
	return h, nil
}

// graph is what the production and the reference implementation share.
type graph interface {
	Add(id int, vec []float32) error
	Search(query []float32, k int) []vector.Result
	Export() *vector.HNSWDump
}

// links strips a dump of the vectors, which are the caller's own slices:
// comparing the rest after every insertion stays cheap.
func links(d *vector.HNSWDump) *vector.HNSWDump {
	c := *d
	c.Vecs = nil
	return &c
}

// addBoth inserts vecs[from:] into both graphs and requires, after every
// insertion, equal exported graphs and equal results for every query; the
// full dumps, vectors included, must be equal at the end.
func addBoth(t *testing.T, got, want graph, vecs, queries [][]float32, from int) {
	t.Helper()
	for i := from; i < len(vecs); i++ {
		if err := got.Add(i, vecs[i]); err != nil {
			t.Fatal(err)
		}
		if err := want.Add(i, vecs[i]); err != nil {
			t.Fatal(err)
		}
		if g, w := links(got.Export()), links(want.Export()); !reflect.DeepEqual(g, w) {
			t.Fatalf("graphs differ after insertion %d:\n got %+v\nwant %+v", i, g, w)
		}
		for _, q := range queries {
			for _, k := range []int{1, 10} {
				if g, w := got.Search(q, k), want.Search(q, k); !reflect.DeepEqual(g, w) {
					t.Fatalf("Search(k=%d) differs after insertion %d:\n got %v\nwant %v", k, i, g, w)
				}
			}
		}
	}
	if !reflect.DeepEqual(got.Export(), want.Export()) {
		t.Fatal("final dumps differ")
	}
	for _, q := range queries {
		if g, w := got.Search(q, 100), want.Search(q, 100); !reflect.DeepEqual(g, w) {
			t.Fatalf("final Search(k=100) differs:\n got %v\nwant %v", g, w)
		}
	}
}

func sportsVectors(t *testing.T, n int) [][]float32 {
	t.Helper()
	ds, err := corpus.GenerateN("sports", n)
	if err != nil {
		t.Fatal(err)
	}
	e := embedding.New(embedding.DefaultDim)
	vecs := make([][]float32, n)
	for i, d := range ds.Docs {
		vecs[i] = e.Embed(d.Text)
	}
	return vecs
}

// randomVectors draws n vectors of which every fourth repeats an earlier
// one, half of those as the same slice: duplicates put exact distance ties
// into every heap and every pruned list. With nonZero < dim the coordinates
// come from {-1, 0, 1}, so distinct vectors tie as well.
func randomVectors(rng *rand.Rand, n, dim, nonZero int) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		if i > 0 && i%4 == 0 {
			vecs[i] = vecs[rng.Intn(i)]
			if i%8 == 0 {
				vecs[i] = append([]float32(nil), vecs[i]...)
			}
			continue
		}
		v := make([]float32, dim)
		if nonZero < dim {
			for j := 0; j < nonZero; j++ {
				v[rng.Intn(dim)] = float32(rng.Intn(3) - 1)
			}
		} else {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
		}
		var norm float64
		for _, x := range v {
			norm += float64(x) * float64(x)
		}
		if norm > 0 {
			for j := range v {
				v[j] = float32(float64(v[j]) / math.Sqrt(norm))
			}
		}
		vecs[i] = v
	}
	return vecs
}

func TestHNSWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sports := sportsVectors(t, 400)
	data := []struct {
		name string
		vecs [][]float32
	}{
		{"sports", sports[:150]},
		{"dense", randomVectors(rng, 150, 24, 24)},
		{"sparse", randomVectors(rng, 150, 24, 3)},
	}
	for _, m := range []int{2, 4, 16} {
		for _, efc := range []int{8, 128} {
			cfg := vector.HNSWConfig{M: m, EfConstruction: efc, EfSearch: 32, Seed: uint64(m*1000 + efc)}
			for _, d := range data {
				t.Run(fmt.Sprintf("%s/M%d/efc%d", d.name, m, efc), func(t *testing.T) {
					queries := [][]float32{d.vecs[3], d.vecs[len(d.vecs)-1], make([]float32, len(d.vecs[0]))}
					addBoth(t, vector.NewHNSW(cfg), newRefHNSW(cfg), d.vecs, queries, 0)
				})
			}
		}
	}
	t.Run("sports/default", func(t *testing.T) {
		cfg := vector.DefaultHNSWConfig()
		addBoth(t, vector.NewHNSW(cfg), newRefHNSW(cfg), sports, [][]float32{sports[0], sports[399]}, 0)
	})
}

// TestHNSWImportMatchesReference continues a graph after Export and
// ImportHNSW: the link distances the import recomputes must be the ones the
// build cached, or later prunes would keep different neighbours.
func TestHNSWImportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, vecs := range map[string][][]float32{
		"sports": sportsVectors(t, 300),
		"sparse": randomVectors(rng, 300, 24, 3),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := vector.HNSWConfig{M: 4, EfConstruction: 32, EfSearch: 32, Seed: 5}
			got, want := vector.NewHNSW(cfg), newRefHNSW(cfg)
			queries := [][]float32{vecs[1], vecs[299]}
			addBoth(t, got, want, vecs[:150], queries, 0)
			// Each side imports the other's dump (they are equal).
			gotDump, wantDump := got.Export(), want.Export()
			got2, err := vector.ImportHNSW(wantDump)
			if err != nil {
				t.Fatal(err)
			}
			want2, err := importRefHNSW(gotDump)
			if err != nil {
				t.Fatal(err)
			}
			addBoth(t, got2, want2, vecs, queries, 150)
		})
	}
}
