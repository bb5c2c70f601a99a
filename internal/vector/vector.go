// Package vector provides vector indexes for approximate and exact
// nearest-neighbor search over embedding vectors: a brute-force Flat index
// and a from-scratch HNSW graph (Malkov & Yashunin, the index the paper
// uses via hnswlib). The planner's IndexScan physical operator and the
// semantic cardinality estimator build on these.
package vector

import (
	"fmt"
	"sort"

	"unify/internal/embedding"
)

// Result is one nearest-neighbor hit.
type Result struct {
	ID       int
	Distance float64
}

// Index is the interface shared by Flat and HNSW.
type Index interface {
	// Add inserts a vector under the given non-negative id. Adding the
	// same id twice is an error.
	Add(id int, vec []float32) error
	// Search returns up to k nearest neighbors of query by cosine
	// distance, closest first.
	Search(query []float32, k int) []Result
	// Len returns the number of indexed vectors.
	Len() int
}

// Flat is an exact brute-force index. It is the reference implementation
// used to validate HNSW recall and the default for small collections.
type Flat struct {
	ids  []int
	vecs [][]float32
	byID map[int]int
}

// NewFlat returns an empty exact index.
func NewFlat() *Flat {
	return &Flat{byID: make(map[int]int)}
}

// Add implements Index.
func (f *Flat) Add(id int, vec []float32) error {
	if id < 0 {
		return fmt.Errorf("vector: negative id %d", id)
	}
	if _, dup := f.byID[id]; dup {
		return fmt.Errorf("vector: duplicate id %d", id)
	}
	f.byID[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, vec)
	return nil
}

// Len implements Index.
func (f *Flat) Len() int { return len(f.ids) }

// Vector returns the stored vector for id, or nil if absent.
func (f *Flat) Vector(id int) []float32 {
	if i, ok := f.byID[id]; ok {
		return f.vecs[i]
	}
	return nil
}

// Set replaces the stored vector for id, keeping its position, and
// reports whether id was present.
func (f *Flat) Set(id int, vec []float32) bool {
	i, ok := f.byID[id]
	if ok {
		f.vecs[i] = vec
	}
	return ok
}

// Search implements Index.
func (f *Flat) Search(query []float32, k int) []Result {
	if k <= 0 || len(f.ids) == 0 {
		return nil
	}
	res := make([]Result, len(f.ids))
	for i, v := range f.vecs {
		res[i] = Result{ID: f.ids[i], Distance: embedding.Distance(query, v)}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Distance != res[j].Distance {
			return res[i].Distance < res[j].Distance
		}
		return res[i].ID < res[j].ID
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// Distances returns the distance from query to every indexed vector,
// keyed by id. Used by the cardinality estimator to bucket the corpus.
func (f *Flat) Distances(query []float32) map[int]float64 {
	out := make(map[int]float64, len(f.ids))
	for i, v := range f.vecs {
		out[f.ids[i]] = embedding.Distance(query, v)
	}
	return out
}
