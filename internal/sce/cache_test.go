package sce_test

// Estimation has no cache of its own: a bucketization is recomputed per
// Estimate and all reuse happens above it (the optimizer's selectivity
// layer) or below it (the LLM response layer). These tests pin the two
// properties the removed sce/distance/embed layers had to preserve.

import (
	"context"
	"testing"

	"unify"
	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/sce"
)

// bareEstimator builds an estimator over a fresh store with nothing
// cached anywhere, using the System's default worker model.
func bareEstimator(t *testing.T, docs []docstore.Document) *sce.Estimator {
	t.Helper()
	store, err := docstore.New("sports", docs, docstore.WithoutSentences())
	if err != nil {
		t.Fatal(err)
	}
	return sce.NewEstimator(store, llm.NewSim(llm.DefaultSimConfig()), 8)
}

// TestCachedBucketizeMatchesUncached verifies the System's cache stack
// changes estimates in no way: the estimator of a default (cached) System
// and a bare NewEstimator agree call-for-call, repeats included.
func TestCachedBucketizeMatchesUncached(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 300)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := unify.New(unify.WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	plain := bareEstimator(t, ds.Documents())

	ctx := context.Background()
	for _, pred := range []string{"related to injury", "related to injury", "about a transfer"} {
		a, aCalls, err := sys.Estimator.Estimate(ctx, sce.Unify, pred, 80)
		if err != nil {
			t.Fatal(err)
		}
		b, bCalls, err := plain.Estimate(ctx, sce.Unify, pred, 80)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || len(aCalls) != len(bCalls) {
			t.Fatalf("pred %q: cached estimate %v (%d calls) != uncached %v (%d calls)",
				pred, a, len(aCalls), b, len(bCalls))
		}
	}
}

// TestEstimateAfterIngestEnumeratesMutatedCorpus estimates a predicate,
// mutates the corpus through both ingest paths (AddDocs and UpdateDoc),
// and requires the next estimate of the same predicate to sample the
// mutated corpus: it judges every live document once and equals a bare
// estimator over a cold build of the final collection.
func TestEstimateAfterIngestEnumeratesMutatedCorpus(t *testing.T) {
	full, err := corpus.GenerateN("sports", 400)
	if err != nil {
		t.Fatal(err)
	}
	base, err := corpus.GenerateN("sports", 300)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := unify.New(unify.WithCorpus(base))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const pred = "related to injury"
	if _, calls, err := sys.Estimator.Estimate(ctx, sce.Uniform, pred, 300); err != nil || len(calls) != 300 {
		t.Fatalf("pre-ingest estimate judged %d docs (err %v), want 300", len(calls), err)
	}

	final := append([]docstore.Document(nil), full.Documents()...)
	updated := final[0]
	updated.Text = final[399].Text
	final[0] = updated
	if _, err := sys.Ingest(final[300:], []docstore.Document{updated}); err != nil {
		t.Fatal(err)
	}

	plain := bareEstimator(t, final)
	for _, m := range []sce.Method{sce.Uniform, sce.Unify} {
		got, calls, err := sys.Estimator.Estimate(ctx, m, pred, 400)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.Estimate(ctx, m, pred, 400)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: post-ingest estimate %v != cold-build estimate %v", m, got, want)
		}
		if m == sce.Uniform && len(calls) != 400 {
			t.Fatalf("post-ingest uniform estimate judged %d docs, want all 400", len(calls))
		}
	}
}
