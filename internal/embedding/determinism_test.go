package embedding_test

import (
	"math"
	"strings"
	"testing"

	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/embedding"
)

// TestEmbedBitDeterministic embeds every document and sentence of two
// corpora repeatedly and requires the same bits each time. Features that
// collide in a hash bucket are summed in float32, which does not associate:
// summing them in map order made about one sports document in 600 embed to
// different bits from one call to the next, and docstore.UpdateDocs relies
// on a held vector being the one a re-embedding would give.
func TestEmbedBitDeterministic(t *testing.T) {
	const repeats = 50
	e := embedding.New(embedding.DefaultDim)
	for _, name := range []string{"sports", "law"} {
		ds, err := corpus.GenerateN(name, 600)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for _, d := range ds.Docs {
			texts = append(texts, d.Text)
			texts = append(texts, docstore.SplitSentences(d.Text)...)
		}
		for _, text := range texts {
			want := e.Embed(text)
			for r := 1; r < repeats; r++ {
				got := e.Embed(text)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: embedding of %q differs at coordinate %d on repeat %d: %x vs %x",
							name, text, i, r, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestEmbedAllocCeiling: a 100-word document embeds in at most half the 94
// allocations it took when every bigram was joined into a string and every
// feature went through a hash.Hash64 (28 when this was written).
func TestEmbedAllocCeiling(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 2)
	if err != nil {
		t.Fatal(err)
	}
	text := ds.Docs[1].Text
	if n := len(strings.Fields(text)); n != 100 {
		t.Fatalf("precondition: document has %d words, want 100", n)
	}
	e := embedding.New(embedding.DefaultDim)
	if got := testing.AllocsPerRun(20, func() { e.Embed(text) }); got > 47 {
		t.Errorf("Embed of a 100-word document allocates %v times, ceiling 47", got)
	}
}
