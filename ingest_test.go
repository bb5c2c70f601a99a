package unify

import (
	"bytes"
	"testing"

	"unify/internal/corpus"
	"unify/internal/docstore"
)

func savedStore(t *testing.T, s *docstore.Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// One Ingest carrying three updates leaves the store exactly as three
// Ingests of one update each do, and as a cold build over the mutated
// corpus does (generation aside, which a cold build starts at 0), and it
// is all-or-nothing: an unknown id anywhere in the call changes nothing.
func TestIngestBatchedUpdates(t *testing.T) {
	ds := diffDataset(t)
	docs := ds.Documents()
	n := len(docs)
	updates := []docstore.Document{docs[2], docs[n/2], docs[n-1]}
	updates[0].Text = docs[7].Text
	updates[1].Text = "" // no sentences left
	updates[2].Text = docs[9].Text + " One more sentence. And another!"

	batched := diffSystem(t, ds, nil)
	res, err := batched.Ingest(nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updated != 3 || res.Generation != 3 || batched.Store.Generation() != 3 {
		t.Fatalf("batched ingest: %+v, store generation %d; want 3 updates, generation 3", res, batched.Store.Generation())
	}

	single := diffSystem(t, ds, nil)
	for _, u := range updates {
		if _, err := single.Ingest(nil, []docstore.Document{u}); err != nil {
			t.Fatal(err)
		}
	}
	if savedStore(t, batched.Store) != savedStore(t, single.Store) {
		t.Fatal("one Ingest of three updates diverges from three Ingests of one")
	}

	mutated := *ds
	mutated.Docs = append([]corpus.Doc(nil), ds.Docs...)
	for _, u := range updates {
		for i := range mutated.Docs {
			if mutated.Docs[i].ID == u.ID {
				mutated.Docs[i].Text = u.Text
			}
		}
	}
	cold := diffSystem(t, &mutated, nil)
	// Three updates of documents that exist, changing nothing, only move
	// the cold store's generation to the batched one's.
	if _, err := cold.Ingest(nil, updates); err != nil {
		t.Fatal(err)
	}
	if savedStore(t, batched.Store) != savedStore(t, cold.Store) {
		t.Fatal("batched ingest diverges from a cold build over the mutated corpus")
	}

	before := savedStore(t, batched.Store)
	bad := append(append([]docstore.Document(nil), updates...), docstore.Document{ID: 1 << 30, Text: "no such document"})
	bad[0].Text = "changed again"
	add := []docstore.Document{{ID: 1 << 29, Title: "new", Text: "A new document."}}
	if _, err := batched.Ingest(add, bad); err == nil {
		t.Fatal("ingest with an unknown update id accepted")
	}
	if savedStore(t, batched.Store) != before {
		t.Fatal("a rejected ingest changed the store")
	}
}
