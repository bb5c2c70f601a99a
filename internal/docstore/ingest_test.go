package docstore

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"unify/internal/vector"
)

// storeFingerprint captures every byte of derived index state: the
// exported HNSW graph (vectors, links, levels, RNG position), the flat
// index order, sentences, and content hashes.
func storeFingerprint(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestAddDocsMatchesStaticBuild(t *testing.T) {
	docs := mkDocs(60)
	static, err := New("static", docs)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := New("static", docs[:40])
	if err != nil {
		t.Fatal(err)
	}
	if err := incr.AddDocs(docs[40:50]); err != nil {
		t.Fatal(err)
	}
	if err := incr.AddDocs(docs[50:]); err != nil {
		t.Fatal(err)
	}
	if incr.Generation() != 2 {
		t.Fatalf("generation = %d after two ingests", incr.Generation())
	}

	// Force both generations equal before comparing persisted bytes:
	// everything else — vectors, HNSW graph and RNG, sentences — must
	// be byte-identical between the static and incremental builds.
	static.generation.Store(incr.Generation())
	if storeFingerprint(t, static) != storeFingerprint(t, incr) {
		t.Fatal("incremental build diverges from static build")
	}

	// Search behavior is identical too.
	for _, q := range []string{"tennis serve", "chemistry theory", "football match"} {
		a := static.SearchDocs(q, 7)
		b := incr.SearchDocs(q, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("SearchDocs(%q) diverges: %v vs %v", q, a, b)
		}
	}
}

func TestAddDocsRejectsDuplicatesAtomically(t *testing.T) {
	s, err := New("d", mkDocs(10))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Len()
	add := []Document{{ID: 100, Text: "new"}, {ID: 5, Text: "dup"}}
	if err := s.AddDocs(add); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if s.Len() != before || s.Generation() != 0 {
		t.Fatalf("failed ingest mutated the store: len %d gen %d", s.Len(), s.Generation())
	}
}

func TestUpdateDocMatchesColdBuild(t *testing.T) {
	docs := mkDocs(40)
	s, err := New("u", docs)
	if err != nil {
		t.Fatal(err)
	}
	mutated := Document{ID: 13, Title: "doc 13 v2", Text: "Title: doc 13 v2\nViews: 999\nBody: now about archery."}
	if err := s.UpdateDoc(mutated); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d after update", s.Generation())
	}
	coldDocs := append([]Document(nil), docs...)
	coldDocs[13] = mutated
	cold, err := New("u", coldDocs)
	if err != nil {
		t.Fatal(err)
	}
	cold.generation.Store(1)
	if storeFingerprint(t, s) != storeFingerprint(t, cold) {
		t.Fatal("update path diverges from a cold build over the mutated corpus")
	}

	h, ok := s.ContentHash(13)
	if !ok {
		t.Fatal("no content hash for updated doc")
	}
	hc, _ := cold.ContentHash(13)
	if h != hc {
		t.Fatal("content hash differs from cold build")
	}
	if err := s.UpdateDoc(Document{ID: 999}); err == nil {
		t.Fatal("update of unknown id accepted")
	}
}

func TestRoundTripPreservesMutationState(t *testing.T) {
	docs := mkDocs(50)
	live, err := New("rt", docs[:40])
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Post-load ingestion must be byte-identical to ingestion into the
	// never-persisted store: same options, hashes, HNSW RNG position.
	if err := live.AddDocs(docs[40:]); err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddDocs(docs[40:]); err != nil {
		t.Fatal(err)
	}
	if storeFingerprint(t, live) != storeFingerprint(t, loaded) {
		t.Fatal("post-load ingest diverges from never-persisted ingest")
	}
	if loaded.Generation() != live.Generation() {
		t.Fatalf("generation %d vs %d", loaded.Generation(), live.Generation())
	}

	// UpdateDoc needs the reconstructed construction options.
	upd := Document{ID: 3, Title: "doc 3 v2", Text: "Body: rewritten."}
	if err := live.UpdateDoc(upd); err != nil {
		t.Fatal(err)
	}
	if err := loaded.UpdateDoc(upd); err != nil {
		t.Fatal(err)
	}
	if storeFingerprint(t, live) != storeFingerprint(t, loaded) {
		t.Fatal("post-load update diverges from never-persisted update")
	}

	// A second round-trip carries the bumped generation.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	again, err := Load(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation() != loaded.Generation() {
		t.Fatalf("generation dropped by round-trip: %d vs %d", again.Generation(), loaded.Generation())
	}
}

func TestRoundTripPreservesEmptySentenceIndex(t *testing.T) {
	// A store whose documents produce no sentences still has a sentence
	// index; gob encodes the empty vector slice as nil, which used to
	// disable sentence retrieval (and sentence ingestion) after a
	// round-trip.
	s, err := New("empty-sent", []Document{{ID: 1, Title: "t", Text: ""}})
	if err != nil {
		t.Fatal(err)
	}
	if s.sentIndex == nil {
		t.Fatal("precondition: sentence index missing")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.sentIndex == nil {
		t.Fatal("round-trip dropped the (empty) sentence index")
	}
	if err := loaded.AddDocs([]Document{{ID: 2, Title: "u", Text: "One sentence."}}); err != nil {
		t.Fatal(err)
	}
	if got := loaded.SearchSentences("sentence", 1); len(got) != 1 {
		t.Fatalf("sentence retrieval broken after round-trip ingest: %v", got)
	}
}

func TestShardingExtendFreezesExistingAssignments(t *testing.T) {
	docs := mkDocs(80)
	s, err := New("sh", docs[:60])
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Shard(nil, 4)
	before := sh.Assignment()

	if err := s.AddDocs(docs[60:]); err != nil {
		t.Fatal(err)
	}
	sh.Extend(docs[60:])
	after := sh.Assignment()
	if len(after) <= len(before) || after[:len(before)] != before {
		t.Fatalf("Extend rewrote existing assignments:\nbefore %q\nafter  %q", before, after)
	}
	// Every new id is assigned, and to the same shard a static sharding
	// of the full corpus would choose (the partitioner is pure).
	full, err := New("sh", docs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after, full.Shard(nil, 4).Assignment(); got != want {
		t.Fatalf("extended assignment diverges from static:\n%q\n%q", got, want)
	}
	counts := 0
	for _, c := range sh.Counts() {
		counts += c
	}
	if counts != 80 {
		t.Fatalf("extended sharding covers %d docs, want 80", counts)
	}
	// Extend is idempotent for already-assigned ids.
	sh.Extend(docs)
	if sh.Assignment() != after {
		t.Fatal("re-Extend mutated the assignment")
	}
	_ = fmt.Sprint(sh)
}

// coldWith builds a store over docs with the given documents replaced, at
// the given generation: what every update path must equal byte for byte.
func coldWith(t *testing.T, name string, docs []Document, generation uint64, updates ...Document) *Store {
	t.Helper()
	docs = append([]Document(nil), docs...)
	for _, u := range updates {
		docs[u.ID] = u // mkDocs ids are positions
	}
	cold, err := New(name, docs)
	if err != nil {
		t.Fatal(err)
	}
	cold.generation.Store(generation)
	return cold
}

func TestUpdateDocsMatchesSingleUpdatesAndColdBuild(t *testing.T) {
	docs := mkDocs(40)
	updates := []Document{
		{ID: 31, Title: "doc 31 v2", Text: "Body: now about archery. And about fencing!"},
		{ID: 0, Title: "doc 0 v2", Text: ""},
		{ID: 31, Title: "doc 31 v3", Text: "Body: rewritten a second time in one batch."},
	}
	batched, err := New("b", docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.UpdateDocs(updates); err != nil {
		t.Fatal(err)
	}
	if batched.Generation() != 3 {
		t.Fatalf("generation = %d after a batch of three updates", batched.Generation())
	}
	single, err := New("b", docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if err := single.UpdateDoc(u); err != nil {
			t.Fatal(err)
		}
	}
	want := storeFingerprint(t, coldWith(t, "b", docs, 3, updates...))
	if storeFingerprint(t, batched) != want {
		t.Fatal("batched update diverges from a cold build over the mutated corpus")
	}
	if storeFingerprint(t, single) != want {
		t.Fatal("single updates diverge from a cold build over the mutated corpus")
	}
	for _, q := range []string{"archery", "tennis serve", "rewritten"} {
		if a, b := batched.SearchSentences(q, 5), single.SearchSentences(q, 5); !reflect.DeepEqual(a, b) {
			t.Fatalf("SearchSentences(%q) diverges: %v vs %v", q, a, b)
		}
	}
}

func TestUpdateDocsIsAllOrNothing(t *testing.T) {
	s, err := New("a", mkDocs(20))
	if err != nil {
		t.Fatal(err)
	}
	before := storeFingerprint(t, s)
	hash, _ := s.ContentHash(4)
	err = s.UpdateDocs([]Document{
		{ID: 4, Title: "doc 4 v2", Text: "Body: changed."},
		{ID: 5, Title: "doc 5 v2", Text: "Body: changed too."},
		{ID: 999, Text: "no such document"},
	})
	if err == nil {
		t.Fatal("update of an unknown id accepted")
	}
	if storeFingerprint(t, s) != before {
		t.Fatal("a rejected batch changed documents, vectors, sentences or the generation")
	}
	if h, _ := s.ContentHash(4); h != hash {
		t.Fatal("a rejected batch changed a content hash")
	}
	if err := s.UpdateDocs(nil); err != nil || s.Generation() != 0 {
		t.Fatalf("empty batch: err %v, generation %d", err, s.Generation())
	}
}

// TestUpdateDocSplicesSentences walks one document's sentence list through
// growing, shrinking, emptying and refilling, for a first, a middle and the
// last document: sentence ids are positions, so every later sentence moves.
func TestUpdateDocSplicesSentences(t *testing.T) {
	docs := mkDocs(12)
	texts := []string{
		"One. Two. Three. Four. Five about fencing.", // grow
		"Just one sentence about rowing.",            // shrink
		"",                                           // empty
		"Back again. With two sentences on judo.", // un-empty
	}
	for _, id := range []int{0, 5, 11} {
		s, err := New("s", docs)
		if err != nil {
			t.Fatal(err)
		}
		for step, text := range texts {
			u := Document{ID: id, Title: fmt.Sprintf("doc %d step %d", id, step), Text: text}
			if err := s.UpdateDoc(u); err != nil {
				t.Fatal(err)
			}
			cold := coldWith(t, "s", docs, uint64(step+1), u)
			if storeFingerprint(t, s) != storeFingerprint(t, cold) {
				t.Fatalf("doc %d step %d (%q): update diverges from a cold build", id, step, text)
			}
			for _, q := range []string{"fencing", "judo sentences", "football match"} {
				if a, b := s.SearchSentences(q, 4), cold.SearchSentences(q, 4); !reflect.DeepEqual(a, b) {
					t.Fatalf("doc %d step %d: SearchSentences(%q) = %v, cold build %v", id, step, q, a, b)
				}
			}
		}
	}
}

// TestLoadRejectsCorruptGraph: a snapshot whose graph links past the last
// node fails to load; it used to load and panic in the first SearchDocs.
func TestLoadRejectsCorruptGraph(t *testing.T) {
	s, err := New("g", mkDocs(30))
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(d *vector.HNSWDump){
		"link out of range":   func(d *vector.HNSWDump) { d.Links[3][0][0] = 30 },
		"missing link list":   func(d *vector.HNSWDump) { d.Links[3] = nil },
		"max level off entry": func(d *vector.HNSWDump) { d.MaxLvl += 2 },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			snap := snapshot{
				Version: snapshotVersion, Name: s.Name, Dim: s.embedder.Dim(),
				Docs: s.Docs, DocVecs: s.docVecs, HNSW: s.hnsw.Export(),
			}
			corrupt(snap.HNSW)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Fatal("corrupt graph loaded")
			}
		})
	}
}

// TestConcurrentSearchDocs: searches share the graph and nothing else, so
// eight at once (under -race in CI) each return what a serial search does.
func TestConcurrentSearchDocs(t *testing.T) {
	s, err := New("c", mkDocs(120))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"tennis serve", "chemistry theory", "football match", "goalkeeper penalty", "racket volley", "laboratory experiment", "views", "doc"}
	want := make([][]vector.Result, len(queries))
	for i, q := range queries {
		want[i] = s.SearchDocs(q, 20)
	}
	var wg sync.WaitGroup
	for g := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				i := (g + r) % len(queries)
				if got := s.SearchDocs(queries[i], 20); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent SearchDocs(%q) = %v, serial %v", queries[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
