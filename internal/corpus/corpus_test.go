package corpus

import (
	"strings"
	"testing"

	"unify/internal/lexicon"
	"unify/internal/nlcond"
)

func TestGenerateAllDatasets(t *testing.T) {
	for _, name := range Names() {
		ds, err := GenerateN(name, 200)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Docs) != 200 {
			t.Errorf("%s: %d docs", name, len(ds.Docs))
		}
		if ds.EntityWord == "" || ds.CatClass == "" || ds.AspectClass == "" {
			t.Errorf("%s: incomplete metadata %+v", name, ds)
		}
		cats := map[string]bool{}
		for n, c := range lexicon.Names(ds.CatClass) {
			_ = n
			cats[c] = true
		}
		for _, d := range ds.Docs[:20] {
			if !cats[d.Hidden.Category] {
				t.Errorf("%s doc %d: category %q not in class %s", name, d.ID, d.Hidden.Category, ds.CatClass)
			}
			if d.Hidden.Views < 5 || d.Hidden.Score < 3 {
				t.Errorf("%s doc %d: implausible fields %+v", name, d.ID, d.Hidden)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateN("nope", 10); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := GenerateN("sports", 0); err == nil {
		t.Error("zero size accepted")
	}
}

func TestDefaultSizesMatchPaper(t *testing.T) {
	want := map[string]int{"sports": 3898, "ai": 5137, "law": 2053, "wiki": 1000}
	for name, n := range want {
		if DefaultSize(name) != n {
			t.Errorf("%s default size = %d, want %d", name, DefaultSize(name), n)
		}
	}
	if DefaultSize("nope") != 0 {
		t.Error("unknown dataset size should be 0")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, _ := GenerateN("sports", 100)
	b, _ := GenerateN("sports", 100)
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text || a.Docs[i].Hidden != b.Docs[i].Hidden {
			t.Fatal("generation not deterministic")
		}
	}
}

// TestRenderedFieldsRecoverable: the structured header fields must be
// exactly recoverable from the rendered text (the contract the exact
// pre-programmed operators rely on).
func TestRenderedFieldsRecoverable(t *testing.T) {
	ds, _ := GenerateN("sports", 150)
	for _, d := range ds.Docs {
		if v, ok := nlcond.ExtractField(d.Text, "views"); !ok || int(v) != d.Hidden.Views {
			t.Fatalf("doc %d views: got %v/%v, want %d", d.ID, v, ok, d.Hidden.Views)
		}
		if v, ok := nlcond.ExtractField(d.Text, "score"); !ok || int(v) != d.Hidden.Score {
			t.Fatalf("doc %d score mismatch", d.ID)
		}
		if v, ok := nlcond.ExtractField(d.Text, "year"); !ok || int(v) != d.Hidden.Year {
			t.Fatalf("doc %d year mismatch", d.ID)
		}
		if !strings.HasPrefix(d.Text, "Title: "+d.Title) {
			t.Fatalf("doc %d title not first line", d.ID)
		}
	}
}

// TestSemanticRecoverability: a lexicon-based judge must recover the
// hidden category from text with high (but not perfect) fidelity — this
// is the property making semantic filtering a real task.
func TestSemanticRecoverability(t *testing.T) {
	for _, name := range Names() {
		ds, _ := GenerateN(name, 300)
		correct := 0
		for _, d := range ds.Docs {
			if lexicon.BestConcept(d.Text, ds.CatClass) == d.Hidden.Category {
				correct++
			}
		}
		frac := float64(correct) / float64(len(ds.Docs))
		if frac < 0.9 {
			t.Errorf("%s: category recoverable for only %.1f%%", name, 100*frac)
		}
		if frac == 1.0 {
			t.Logf("%s: category recovery is perfect — distractors may be too weak", name)
		}
	}
}

// TestFieldCorrelation: numeric fields must correlate with concepts, so
// that dropping a filter visibly changes aggregates.
func TestFieldCorrelation(t *testing.T) {
	ds, _ := GenerateN("sports", 2000)
	sums := map[string][2]float64{} // cat -> (sum views, count)
	for _, d := range ds.Docs {
		s := sums[d.Hidden.Category]
		s[0] += float64(d.Hidden.Views)
		s[1]++
		sums[d.Hidden.Category] = s
	}
	var lo, hi float64
	lo = 1e18
	for _, s := range sums {
		if s[1] < 30 {
			continue
		}
		mean := s[0] / s[1]
		if mean < lo {
			lo = mean
		}
		if mean > hi {
			hi = mean
		}
	}
	if hi/lo < 1.5 {
		t.Errorf("per-category view means too uniform: lo=%.0f hi=%.0f", lo, hi)
	}
}

func TestDocuments(t *testing.T) {
	ds, _ := GenerateN("wiki", 50)
	docs := ds.Documents()
	if len(docs) != 50 || docs[7].Text != ds.Docs[7].Text {
		t.Error("Documents conversion broken")
	}
}
