package views

import (
	"fmt"
	"strings"
	"testing"
)

func TestGetServesOnlyMatchingHash(t *testing.T) {
	s := NewStore()
	col := FilterColumn("about tennis")
	h := DocHash("t", "a doc about tennis")
	s.Put(col, 7, h, "yes")

	if v, ok := s.Get(col, 7, h); !ok || v != "yes" {
		t.Fatalf("fresh row: got (%q, %v), want (yes, true)", v, ok)
	}
	// Content changed: the stored row must not be served.
	h2 := DocHash("t", "now about golf")
	if v, ok := s.Get(col, 7, h2); ok {
		t.Fatalf("stale row served: %q", v)
	}
	if _, ok := s.Get(col, 8, h); ok {
		t.Fatal("missing row served")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Backfills != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 backfill", st)
	}
	if got := st.HitRate(); got != 1.0/3.0 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestInvalidateDropsAllColumnsForDoc(t *testing.T) {
	s := NewStore()
	h := DocHash("", "x")
	s.Put(FilterColumn("p"), 1, h, "yes")
	s.Put(ClassifyColumn("sport"), 1, h, "tennis")
	s.Put(ExtractColumn("views"), 1, h, "512")
	s.Put(FilterColumn("p"), 2, h, "no")

	if n := s.Invalidate(1); n != 3 {
		t.Fatalf("Invalidate(1) removed %d rows, want 3", n)
	}
	if _, ok := s.Get(FilterColumn("p"), 1, h); ok {
		t.Fatal("row survived invalidation")
	}
	if v, ok := s.Get(FilterColumn("p"), 2, h); !ok || v != "no" {
		t.Fatal("unrelated row was dropped")
	}
	st := s.Stats()
	if st.Invalidated != 3 || st.Rows != 1 || st.Columns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCovers(t *testing.T) {
	s := NewStore()
	col := ClassifyColumn("sport")
	hashes := map[int]uint64{1: 11, 2: 22, 3: 33}
	hashOf := func(id int) (uint64, bool) { h, ok := hashes[id]; return h, ok }
	s.Put(col, 1, 11, "tennis")
	s.Put(col, 2, 22, "golf")

	if s.Covers(col, []int{1, 2, 3}, hashOf) {
		t.Fatal("Covers true with doc 3 missing")
	}
	if !s.Covers(col, []int{1, 2}, hashOf) {
		t.Fatal("Covers false with both rows fresh")
	}
	// A stale row breaks coverage.
	hashes[2] = 99
	if s.Covers(col, []int{1, 2}, hashOf) {
		t.Fatal("Covers true over a stale row")
	}
	// Coverage probes must not perturb serve counters.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("planning probes moved counters: %+v", st)
	}
}

func TestAuditServed(t *testing.T) {
	s := NewStore()
	s.SetAudit(true)
	col := FilterColumn("p")
	hashes := map[int]uint64{1: 11, 2: 22}
	hashOf := func(id int) (uint64, bool) { h, ok := hashes[id]; return h, ok }
	s.Put(col, 1, 11, "yes")
	s.Put(col, 2, 22, "yes")
	s.Get(col, 1, 11)
	s.Get(col, 2, 22)

	if bad := s.AuditServed(hashOf); bad != nil {
		t.Fatalf("fresh serves flagged: %v", bad)
	}
	// Serve, then mutate the doc without invalidating: audit must flag it.
	s.Get(col, 1, 11)
	hashes[1] = 99
	bad := s.AuditServed(hashOf)
	if len(bad) != 1 || !strings.Contains(bad[0], Key(col, 1)) {
		t.Fatalf("stale serve not flagged: %v", bad)
	}
	// The audit set clears after each call.
	if bad := s.AuditServed(hashOf); bad != nil {
		t.Fatalf("audit set not cleared: %v", bad)
	}
	// Invalidate clears pending serve records for the touched doc.
	hashes[1] = 11
	s.Put(col, 1, 11, "yes")
	s.Get(col, 1, 11)
	s.Invalidate(1)
	if bad := s.AuditServed(hashOf); bad != nil {
		t.Fatalf("invalidated serve still flagged: %v", bad)
	}
}

func TestColumnsSortedDeterministically(t *testing.T) {
	s := NewStore()
	s.Put(ExtractColumn("views"), 1, 1, "9")
	s.Put(FilterColumn("b"), 1, 1, "yes")
	s.Put(FilterColumn("a"), 1, 1, "no")
	s.Put(ClassifyColumn("sport"), 1, 1, "golf")

	got := s.Columns()
	want := []ColumnStats{
		{Op: "classify", Target: "sport", Rows: 1},
		{Op: "extract", Target: "views", Rows: 1},
		{Op: "filter", Target: "a", Rows: 1},
		{Op: "filter", Target: "b", Rows: 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Columns() = %v, want %v", got, want)
	}
}

func TestDocHashSeparatesTitleAndText(t *testing.T) {
	if DocHash("ab", "c") == DocHash("a", "bc") {
		t.Fatal("title/text boundary not hashed")
	}
	if DocHash("t", "x") != DocHash("t", "x") {
		t.Fatal("hash not stable")
	}
}
