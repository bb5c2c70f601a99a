// Package embedding implements the deterministic text-embedding substrate
// that substitutes for the Sentence-Transformer model used in the paper.
//
// The embedder hashes stemmed unigrams and bigrams into a fixed-dimension
// vector (feature hashing with a signed second hash), applies sublinear
// term-frequency weighting and L2-normalizes the result. Cosine distance in
// this space correlates with lexical/topical overlap, which is the only
// property Unify depends on: operator matching by logical-representation
// similarity, importance sampling by query-document distance, and the
// vector IndexScan.
package embedding

import (
	"math"

	"unify/internal/lexicon"
	"unify/internal/tokenizer"
)

// DefaultDim is the default embedding dimensionality.
const DefaultDim = 256

// Embedder converts text into unit-length float32 vectors. The zero value
// is not usable; construct with New.
type Embedder struct {
	dim int
}

// New returns an Embedder producing vectors of the given dimension.
// Dimensions below 8 are raised to 8.
func New(dim int) *Embedder {
	if dim < 8 {
		dim = 8
	}
	return &Embedder{dim: dim}
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Embed returns the unit-length embedding of text. Empty or stop-word-only
// text yields the zero vector.
//
// Terms that name a lexicon concept are expanded with the concept's
// indicator vocabulary at reduced weight: this emulates the semantic
// proximity a trained sentence embedder provides ("golf" lands near
// "fairway"), which the vector IndexScan and importance sampling rely on.
func (e *Embedder) Embed(text string) []float32 {
	v := make([]float32, e.dim)
	terms := tokenizer.Terms(text)
	var tf counter
	for _, t := range terms {
		tf.add(feature{a: t})
	}
	tf.flush(v, 1.0)
	for i := 0; i+1 < len(terms); i++ {
		tf.add(feature{terms[i], terms[i+1]})
	}
	tf.flush(v, 0.5)
	for _, t := range terms {
		c, ok := lexicon.Lookup(t)
		if !ok {
			continue
		}
		// The concept's stemmed indicator words, other than the term itself.
		for _, w := range c.Words {
			if s := tokenizer.Stem(w); s != t {
				tf.add(feature{a: s})
			}
		}
	}
	tf.flush(v, 0.6)
	normalize(v)
	return v
}

// feature is one hashed feature: the unigram a, or the bigram a+"_"+b when
// b is set. Terms hold only letters and digits, so the pair identifies the
// joined string and the string itself is never built.
type feature struct{ a, b string }

// hash is the 64-bit FNV-1a hash of the feature's string form.
func (f feature) hash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sum := uint64(offset64)
	for i := 0; i < len(f.a); i++ {
		sum = (sum ^ uint64(f.a[i])) * prime64
	}
	if f.b != "" {
		sum = (sum ^ '_') * prime64
		for i := 0; i < len(f.b); i++ {
			sum = (sum ^ uint64(f.b[i])) * prime64
		}
	}
	return sum
}

// counter counts the occurrences of each distinct feature added since the
// last flush, remembering the order in which they first appeared. It is a
// small open-addressing table probed with the feature hash the embedding
// needs anyway, so a feature is hashed once and no map is built per call.
type counter struct {
	order []tally // distinct features, in first-occurrence order
	slots []int32 // 1 + index into order, 0 when empty; len is a power of two
}

type tally struct {
	f   feature
	sum uint64 // f.hash()
	n   int
}

func (c *counter) add(f feature) {
	if 2*(len(c.order)+1) > len(c.slots) {
		c.grow()
	}
	sum := f.hash()
	mask := uint64(len(c.slots) - 1)
	i := sum & mask
	for ; c.slots[i] != 0; i = (i + 1) & mask {
		if t := &c.order[c.slots[i]-1]; t.sum == sum && t.f == f {
			t.n++
			return
		}
	}
	c.order = append(c.order, tally{f, sum, 1})
	c.slots[i] = int32(len(c.order))
}

// grow doubles the table and re-seats what has been counted.
func (c *counter) grow() {
	c.slots = make([]int32, max(64, 2*len(c.slots)))
	mask := uint64(len(c.slots) - 1)
	for j, t := range c.order {
		i := t.sum & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(j + 1)
	}
}

// flush adds each counted feature's weighted sublinear term frequency to
// its hash bucket of v (the bucket and a ±1 sign both come from the feature
// hash), in first-occurrence order, and empties the counter. The order is
// part of the result: float32 addition does not associate, so when three or
// more features share a bucket a different order gives different bits
// (ranging over a count map here once made Embed nondeterministic).
func (c *counter) flush(v []float32, weight float64) {
	for _, t := range c.order {
		w := float32(weight * (1 + math.Log(float64(t.n))))
		if (t.sum>>32)&1 == 1 {
			w = -w
		}
		v[t.sum%uint64(len(v))] += w
	}
	c.order = c.order[:0]
	clear(c.slots)
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range v {
		v[i] *= inv
	}
}

// Cosine returns the cosine similarity of two vectors of equal length.
// For unit vectors this is the dot product.
func Cosine(a, b []float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// Distance returns the cosine distance 1 - Cosine(a, b), clamped to
// [0, 2]. Smaller means more similar.
func Distance(a, b []float32) float64 {
	d := 1 - Cosine(a, b)
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}
