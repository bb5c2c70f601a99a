package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"unify/internal/embedding"
)

func buildHNSW(t testing.TB, cfg HNSWConfig, n, dim int) *HNSW {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	h := NewHNSW(cfg)
	for i := 0; i < n; i++ {
		if err := h.Add(i, randVec(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestImportHNSWRejectsCorruptDump: a dump no Export could have produced is
// an error at import, where it used to be a panic inside a later Search.
func TestImportHNSWRejectsCorruptDump(t *testing.T) {
	h := buildHNSW(t, HNSWConfig{M: 4, EfConstruction: 16, EfSearch: 16, Seed: 9}, 80, 8)
	if _, err := ImportHNSW(h.Export()); err != nil {
		t.Fatalf("clean dump rejected: %v", err)
	}
	upper := -1 // a node that is not on the top layer, and the top layer itself
	for i, l := range h.Export().Levels {
		if l < h.maxLvl {
			upper = i
		}
	}
	if upper < 0 || h.maxLvl == 0 {
		t.Fatal("precondition: want a graph with more than one layer")
	}
	cases := []struct {
		name    string
		corrupt func(d *HNSWDump)
		want    string
	}{
		{"link past the last node", func(d *HNSWDump) { d.Links[5][0][0] = int32(len(d.IDs)) }, "links to"},
		{"negative link", func(d *HNSWDump) { d.Links[5][0][0] = -1 }, "links to"},
		{"link to a node below the layer", func(d *HNSWDump) {
			d.Links[d.Entry][d.MaxLvl] = append(d.Links[d.Entry][d.MaxLvl], int32(upper))
		}, "links to"},
		{"missing link list", func(d *HNSWDump) { d.Links[7] = d.Links[7][:len(d.Links[7])-1] }, "link lists"},
		{"extra link list", func(d *HNSWDump) { d.Links[7] = append(d.Links[7], nil) }, "link lists"},
		{"negative level", func(d *HNSWDump) { d.Levels[7], d.Links[7] = -1, nil }, "link lists"},
		{"max level above the entry point", func(d *HNSWDump) { d.MaxLvl++ }, "max level"},
		{"entry point below the max level", func(d *HNSWDump) { d.Entry = int32(upper) }, "max level"},
		{"entry point out of range", func(d *HNSWDump) { d.Entry = int32(len(d.IDs)) }, "entry point"},
		{"short vector", func(d *HNSWDump) { d.Vecs[9] = d.Vecs[9][:4] }, "dimensions"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := h.Export()
			c.corrupt(d)
			got, err := ImportHNSW(d)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ImportHNSW = %v, %v; want an error mentioning %q", got, err, c.want)
			}
		})
	}
}

func TestImportHNSWEmptyDump(t *testing.T) {
	// The zero Entry of an empty dump must not become an entry point.
	h, err := ImportHNSW(&HNSWDump{Cfg: DefaultHNSWConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Search(make([]float32, 8), 3); got != nil {
		t.Fatalf("empty graph returned %v", got)
	}
	if err := h.Add(1, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
}

// FuzzSparseDistance: the distance over the query's non-zero coordinates is
// embedding.Distance to the bit, for any query and any finite vector.
func FuzzSparseDistance(f *testing.F) {
	bits := func(xs ...float32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	negZero := float32(math.Copysign(0, -1))
	f.Add(bits(0, 0, 0, 0), bits(1, 2, 3, 4))
	f.Add(bits(negZero, 1, negZero, 0), bits(negZero, negZero, 5, 0))
	f.Add(bits(1e-45, -1e-45, 0, 1), bits(1e-45, 1e38, negZero, -1))
	f.Add(bits(0.6, 0, 0.8, 0), bits(0.6, 0, 0.8, 0))
	f.Add(bits(float32(math.Inf(1)), float32(math.NaN()), 0), bits(0, 1, 2))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := min(len(a), len(b)) / 4
		q, v := make([]float32, n), make([]float32, n)
		for i := range q {
			q[i] = math.Float32frombits(binary.LittleEndian.Uint32(a[4*i:]))
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			if x := float64(v[i]); math.IsInf(x, 0) || math.IsNaN(x) {
				v[i] = 0 // 0 * Inf is NaN: the argument needs a finite stored vector
			}
		}
		got, want := newQuery(q).distance(v), embedding.Distance(q, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sparse %v (%#x), dense %v (%#x)\nq=%v\nv=%v", got, math.Float64bits(got), want, math.Float64bits(want), q, v)
		}
	})
}

// TestHNSWAllocCeilings pins what the build and the search may allocate.
// Before the link-distance cache a Search at k=50 over this graph made 636
// allocations (a boxed heap entry per push and pop).
func TestHNSWAllocCeilings(t *testing.T) {
	h := buildHNSW(t, DefaultHNSWConfig(), 600, 64)
	rng := rand.New(rand.NewSource(4))
	q := randVec(rng, 64)
	if got := testing.AllocsPerRun(20, func() { h.Search(q, 50) }); got > 12 {
		t.Errorf("Search(k=50) allocates %v times, ceiling 12", got)
	}

	// A neighbour list at capacity has a spare slot: link appends, prunes
	// in place and allocates nothing.
	src := int32(-1)
	for i := range h.nodes {
		if len(h.nodes[i].links[0]) == h.maxLinks(0) {
			src = int32(i)
			break
		}
	}
	if src < 0 {
		t.Fatal("precondition: no layer-0 list at capacity")
	}
	dst, d := int32(0), 0.5
	if got := testing.AllocsPerRun(20, func() { h.link(src, dst, d, 0) }); got != 0 {
		t.Errorf("link on a full list allocates %v times, want 0", got)
	}
}
