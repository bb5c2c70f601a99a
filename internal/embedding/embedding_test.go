package embedding

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"unify/internal/lexicon"
	"unify/internal/tokenizer"
)

// embedReference is Embed written the long way: every feature a string
// (bigrams joined with '_'), counted in a map, hashed through hash/fnv, and
// summed in first-occurrence order.
func embedReference(dim int, text string) []float32 {
	v := make([]float32, dim)
	accumulate := func(feats []string, weight float64) {
		tf := make(map[string]int)
		var order []string
		for _, f := range feats {
			if tf[f] == 0 {
				order = append(order, f)
			}
			tf[f]++
		}
		for _, f := range order {
			h := fnv.New64a()
			h.Write([]byte(f))
			sum := h.Sum64()
			sign := 1
			if (sum>>32)&1 == 1 {
				sign = -1
			}
			v[sum%uint64(dim)] += float32(sign) * float32(weight*(1+math.Log(float64(tf[f]))))
		}
	}
	terms := tokenizer.Terms(text)
	accumulate(terms, 1.0)
	accumulate(tokenizer.Bigrams(terms), 0.5)
	var expanded []string
	for _, t := range terms {
		if c, ok := lexicon.Lookup(t); ok {
			for _, w := range c.Words {
				if s := tokenizer.Stem(w); s != t {
					expanded = append(expanded, s)
				}
			}
		}
	}
	accumulate(expanded, 0.6)
	normalize(v)
	return v
}

func TestEmbedMatchesReference(t *testing.T) {
	long := strings.Repeat("the goalkeeper saved a penalty in the football match while tennis fans discussed injury recovery ", 6)
	for i := 0; i < 150; i++ { // enough distinct terms to grow the counter twice
		long += " term" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + " golf"
	}
	texts := []string{
		"", "the of and", "golf", "golf golf golf fairway", "Tennis serve; TENNIS volley. tennis!",
		"injury recovery advice for marathon training", "Views: 805\nTags: archery, yesterday\nBody: bow nock bullseye", long,
	}
	for _, dim := range []int{8, 64, DefaultDim} {
		e := New(dim)
		for _, text := range texts {
			got, want := e.Embed(text), embedReference(dim, text)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dim %d, %.40q: coordinate %d is %v, reference %v", dim, text, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := New(128)
	v := e.Embed("questions about football with many views")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("norm^2 = %v, want 1", norm)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e := New(128)
	a := e.Embed("injury recovery advice")
	b := e.Embed("injury recovery advice")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	e := New(64)
	v := e.Embed("the of and")
	for _, x := range v {
		if x != 0 {
			t.Fatal("stopword-only text should embed to zero")
		}
	}
}

// TestTopicalSimilarity is the load-bearing property: texts sharing topic
// vocabulary must be closer than unrelated texts.
func TestTopicalSimilarity(t *testing.T) {
	e := New(DefaultDim)
	football1 := e.Embed("the goalkeeper saved a penalty in the football match")
	football2 := e.Embed("football fans discussed the penalty and the goalkeeper")
	chemistry := e.Embed("the laboratory experiment used a chemistry hypothesis")
	dSame := Distance(football1, football2)
	dDiff := Distance(football1, chemistry)
	if dSame >= dDiff {
		t.Errorf("same-topic distance %v not below cross-topic %v", dSame, dDiff)
	}
}

func TestCosineBounds(t *testing.T) {
	e := New(64)
	f := func(a, b string) bool {
		va, vb := e.Embed(a), e.Embed(b)
		c := Cosine(va, vb)
		if c < -1.0001 || c > 1.0001 {
			return false
		}
		d := Distance(va, vb)
		return d >= 0 && d <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSelf(t *testing.T) {
	e := New(64)
	v := e.Embed("identical text identical text")
	if d := Distance(v, v); d > 1e-6 {
		t.Errorf("self-distance = %v", d)
	}
}

func TestMinDim(t *testing.T) {
	e := New(1)
	if e.Dim() < 8 {
		t.Errorf("dim clamped to %d, want >= 8", e.Dim())
	}
}
