package vector

import (
	"fmt"
	"math"

	"unify/internal/embedding"
)

// HNSWConfig controls graph construction and search.
type HNSWConfig struct {
	M              int    // max links per node per layer (layer 0 uses 2M)
	EfConstruction int    // beam width during insertion
	EfSearch       int    // beam width during search
	Seed           uint64 // level-generator seed (deterministic builds)
}

// DefaultHNSWConfig mirrors common hnswlib defaults scaled for the corpus
// sizes used in the paper (1k-5k documents).
func DefaultHNSWConfig() HNSWConfig {
	return HNSWConfig{M: 16, EfConstruction: 128, EfSearch: 64, Seed: 1}
}

type hnswNode struct {
	id    int
	vec   []float32
	level int
	// links[l] lists neighbor slots (indices into nodes) at layer l, and
	// dists[l][j] is the distance from this node to links[l][j]: the value
	// computed when the link was made, kept so pruning never recomputes it.
	links [][]int32
	dists [][]float64
}

// HNSW is a hierarchical navigable small-world graph index.
type HNSW struct {
	cfg    HNSWConfig
	nodes  []hnswNode
	byID   map[int]int32
	entry  int32 // slot of entry point, -1 if empty
	maxLvl int
	rng    uint64
	mult   float64 // level multiplier 1/ln(M)
}

// NewHNSW returns an empty HNSW index with the given configuration.
func NewHNSW(cfg HNSWConfig) *HNSW {
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
	return &HNSW{
		cfg:   cfg,
		byID:  make(map[int]int32),
		entry: -1,
		rng:   seed,
		mult:  1 / math.Log(float64(cfg.M)),
	}
}

// Len implements Index.
func (h *HNSW) Len() int { return len(h.nodes) }

// Config returns the (normalized) construction parameters, so a caller
// can rebuild an equivalent graph from scratch.
func (h *HNSW) Config() HNSWConfig { return h.cfg }

// nextFloat is a deterministic xorshift64* PRNG in (0,1).
func (h *HNSW) nextFloat() float64 {
	h.rng ^= h.rng >> 12
	h.rng ^= h.rng << 25
	h.rng ^= h.rng >> 27
	v := h.rng * 0x2545F4914F6CDD1D
	return (float64(v>>11) + 1) / (1 << 53)
}

func (h *HNSW) randomLevel() int {
	return int(-math.Log(h.nextFloat()) * h.mult)
}

func (h *HNSW) maxLinks(layer int) int {
	if layer == 0 {
		return h.cfg.M * 2
	}
	return h.cfg.M
}

// Add implements Index.
func (h *HNSW) Add(id int, vec []float32) error {
	if id < 0 {
		return fmt.Errorf("vector: negative id %d", id)
	}
	if _, dup := h.byID[id]; dup {
		return fmt.Errorf("vector: duplicate id %d", id)
	}
	level := h.randomLevel()
	slot := int32(len(h.nodes))
	h.nodes = append(h.nodes, hnswNode{
		id: id, vec: vec, level: level,
		links: make([][]int32, level+1),
		dists: make([][]float64, level+1),
	})
	h.byID[id] = slot

	if h.entry < 0 {
		h.entry = slot
		h.maxLvl = level
		return nil
	}

	q := newQuery(vec)
	ep := h.entry
	// Greedy descent through layers above the new node's level.
	for l := h.maxLvl; l > level; l-- {
		ep = h.greedyClosest(q, ep, l)
	}
	// Insert with beam search on each layer from min(level, maxLvl) down.
	top := level
	if top > h.maxLvl {
		top = h.maxLvl
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(q, ep, h.cfg.EfConstruction, l)
		ep = cands[0].slot
		// Keep the m closest candidates (simple selection, which is
		// adequate at the corpus scales exercised here).
		maxL := h.maxLinks(l)
		if len(cands) > maxL {
			cands = cands[:maxL]
		}
		// One spare slot, so a later reverse link appends and prunes in place.
		links := make([]int32, len(cands), maxL+1)
		dists := make([]float64, len(cands), maxL+1)
		for i, c := range cands {
			links[i], dists[i] = c.slot, c.dist
		}
		h.nodes[slot].links[l], h.nodes[slot].dists[l] = links, dists
		for _, c := range cands {
			// Distance is symmetric to the bit (see query.distance), so the
			// value the search computed for (new, c) serves (c, new).
			h.link(c.slot, slot, c.dist, l)
		}
	}
	if level > h.maxLvl {
		h.maxLvl = level
		h.entry = slot
	}
	return nil
}

// link adds dst, at distance dist, to src's layer-l neighbor list, pruning
// to capacity by keeping the closest links. It computes no distance: the
// partial selection sort runs over the values cached beside the links.
func (h *HNSW) link(src, dst int32, dist float64, l int) {
	node := &h.nodes[src]
	links := append(node.links[l], dst)
	dists := append(node.dists[l], dist)
	if maxL := h.maxLinks(l); len(links) > maxL {
		for i := 0; i < maxL; i++ {
			best := i
			for j := i + 1; j < len(dists); j++ {
				if dists[j] < dists[best] {
					best = j
				}
			}
			links[i], links[best] = links[best], links[i]
			dists[i], dists[best] = dists[best], dists[i]
		}
		links, dists = links[:maxL], dists[:maxL]
	}
	node.links[l], node.dists[l] = links, dists
}

// query is a vector prepared for repeated distance computations: its
// non-zero coordinates only (a document embedding averages 84 of 256, a
// sentence or query embedding under 10).
type query struct {
	idx []int32
	val []float64
}

func newQuery(v []float32) query {
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	q := query{idx: make([]int32, 0, nz), val: make([]float64, 0, nz)}
	for i, x := range v {
		if x != 0 {
			q.idx = append(q.idx, int32(i))
			q.val = append(q.val, float64(x))
		}
	}
	return q
}

// distance returns embedding.Distance(q's vector, v), to the bit, for
// finite v. The dense dot product adds float64(a[i])*float64(b[i]) in index
// order to a sum that starts at +0; where a[i] is ±0 that term is ±0, and
// adding ±0 leaves any sum unchanged, +0 included (+0 + -0 = +0, and a sum
// that starts at +0 can never become -0). Skipping those terms therefore
// performs the same sequence of roundings on the same values (fused into a
// multiply-add or not: the skipped product is an exact zero either way).
// Each product commutes, so distance(a, b) and distance(b, a) are the same
// bits.
func (q query) distance(v []float32) float64 {
	var dot float64
	for j, i := range q.idx {
		dot += q.val[j] * float64(v[i])
	}
	d := 1 - dot
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}

func (h *HNSW) greedyClosest(q query, ep int32, l int) int32 {
	cur := ep
	curDist := q.distance(h.nodes[cur].vec)
	for {
		improved := false
		for _, n := range h.nodes[cur].links[l] {
			if d := q.distance(h.nodes[n].vec); d < curDist {
				cur, curDist = n, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

type scored struct {
	slot int32
	dist float64
}

// minHeap is a binary heap of scored ordered by ascending dist. push and
// pop sift exactly as container/heap's up and down do, so entries at equal
// distance leave in the order they would leave a container/heap — the graph
// a build produces depends on that order.
type minHeap []scored

func (h *minHeap) push(s scored) {
	*h = append(*h, s)
	a := *h
	for j := len(a) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(a[j].dist < a[i].dist) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *minHeap) pop() scored {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].dist < a[j].dist {
			j = j2
		}
		if !(a[j].dist < a[i].dist) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return a[n]
}

// searchLayer runs a beam search of width ef on layer l starting from ep.
// Results are sorted ascending by distance. The visited set and both heaps
// are allocated per call: concurrent Searches share no scratch.
func (h *HNSW) searchLayer(q query, ep int32, ef, l int) []scored {
	visited := make([]bool, len(h.nodes))
	visited[ep] = true
	d := q.distance(h.nodes[ep].vec)
	// cands holds the nodes still to expand, closest on top. res holds the
	// best ef found so far with dist negated, which makes the same min-heap
	// keep the worst on top (a > b exactly when -a < -b).
	cands := make(minHeap, 0, ef+1)
	res := make(minHeap, 0, ef+1)
	cands.push(scored{ep, d})
	res.push(scored{ep, -d})
	for len(cands) > 0 {
		c := cands.pop()
		if len(res) >= ef && c.dist > -res[0].dist {
			break
		}
		for _, n := range h.nodes[c.slot].links[l] {
			if visited[n] {
				continue
			}
			visited[n] = true
			d := q.distance(h.nodes[n].vec)
			if len(res) < ef || d < -res[0].dist {
				cands.push(scored{n, d})
				res.push(scored{n, -d})
				if len(res) > ef {
					res.pop()
				}
			}
		}
	}
	out := make([]scored, len(res))
	for i := len(out) - 1; i >= 0; i-- {
		s := res.pop()
		out[i] = scored{s.slot, -s.dist}
	}
	return out
}

// Search implements Index.
func (h *HNSW) Search(query []float32, k int) []Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	q := newQuery(query)
	ep := h.entry
	for l := h.maxLvl; l > 0; l-- {
		ep = h.greedyClosest(q, ep, l)
	}
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	cands := h.searchLayer(q, ep, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: h.nodes[c.slot].id, Distance: c.dist}
	}
	return out
}

var (
	_ Index = (*Flat)(nil)
	_ Index = (*HNSW)(nil)
)

// HNSWDump is the serializable form of an HNSW graph.
type HNSWDump struct {
	Cfg    HNSWConfig
	IDs    []int
	Vecs   [][]float32
	Levels []int
	Links  [][][]int32
	Entry  int32
	MaxLvl int
	RNG    uint64
}

// Export snapshots the graph for persistence.
func (h *HNSW) Export() *HNSWDump {
	d := &HNSWDump{
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

// ImportHNSW reconstructs a graph from a dump, recomputing the cached link
// distances the dump does not carry. A dump that could not have come from
// Export — a link to a node that does not exist on that layer, a link list
// per layer other than Levels[i]+1, vectors of unequal length, an entry
// point that is not a top-level node — is an error here, not a panic in a
// later Search.
func ImportHNSW(d *HNSWDump) (*HNSW, error) {
	if d == nil {
		return nil, fmt.Errorf("vector: nil HNSW dump")
	}
	n := len(d.IDs)
	if len(d.Vecs) != n || len(d.Levels) != n || len(d.Links) != n {
		return nil, fmt.Errorf("vector: inconsistent HNSW dump (%d/%d/%d/%d)",
			n, len(d.Vecs), len(d.Levels), len(d.Links))
	}
	h := NewHNSW(d.Cfg)
	h.rng = d.RNG
	if n == 0 {
		return h, nil
	}
	if d.Entry < 0 || int(d.Entry) >= n {
		return nil, fmt.Errorf("vector: dump entry point %d out of range", d.Entry)
	}
	if d.MaxLvl != d.Levels[d.Entry] {
		return nil, fmt.Errorf("vector: dump max level %d, entry point is on level %d", d.MaxLvl, d.Levels[d.Entry])
	}
	h.entry = d.Entry
	h.maxLvl = d.MaxLvl
	h.nodes = make([]hnswNode, n)
	for i := 0; i < n; i++ {
		if _, dup := h.byID[d.IDs[i]]; dup {
			return nil, fmt.Errorf("vector: duplicate id %d in dump", d.IDs[i])
		}
		if len(d.Vecs[i]) != len(d.Vecs[0]) {
			return nil, fmt.Errorf("vector: dump node %d has %d dimensions, node 0 has %d", i, len(d.Vecs[i]), len(d.Vecs[0]))
		}
		if d.Levels[i] < 0 || len(d.Links[i]) != d.Levels[i]+1 {
			return nil, fmt.Errorf("vector: dump node %d has %d link lists on level %d", i, len(d.Links[i]), d.Levels[i])
		}
		h.byID[d.IDs[i]] = int32(i)
		h.nodes[i] = hnswNode{
			id:    d.IDs[i],
			vec:   d.Vecs[i],
			level: d.Levels[i],
			links: d.Links[i],
			dists: make([][]float64, len(d.Links[i])),
		}
	}
	for i := range h.nodes {
		node := &h.nodes[i]
		for l, links := range node.links {
			dists := make([]float64, len(links))
			for j, nb := range links {
				if nb < 0 || int(nb) >= n || d.Levels[nb] < l {
					return nil, fmt.Errorf("vector: dump node %d links to %d on layer %d, which has no such node", i, nb, l)
				}
				dists[j] = embedding.Distance(node.vec, d.Vecs[nb])
			}
			node.dists[l] = dists
		}
	}
	return h, nil
}
