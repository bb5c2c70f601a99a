package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// tree builds a simple span tree: root -> n children, each with m
// grandchildren.
func tree(n, m int) *Span {
	tr := NewTracer()
	root := tr.Start("query", KindQuery)
	for i := 0; i < n; i++ {
		c := root.StartChild(fmt.Sprintf("phase-%d", i), KindPhase)
		for j := 0; j < m; j++ {
			c.StartChild(fmt.Sprintf("leaf-%d-%d", i, j), KindLLM).End()
		}
		c.End()
	}
	root.End()
	return root
}

func TestTraceStorePutGetList(t *testing.T) {
	ts := NewTraceStore(10, 100)
	for i := 0; i < 3; i++ {
		status := "ok"
		if i == 1 {
			status = "error"
		}
		ts.Put(fmt.Sprintf("q-%d", i), int64(i), status, fmt.Sprintf("query %d", i),
			time.Duration(i+1)*time.Second, i*10, i, tree(2, 2))
	}
	if ts.Len() != 3 {
		t.Fatalf("len = %d, want 3", ts.Len())
	}
	got, ok := ts.Get("q-1")
	if !ok || got.Status != "error" || got.VTime != 2*time.Second {
		t.Fatalf("Get(q-1) = %+v, %v", got, ok)
	}
	if got.Root == nil || got.Root.Name != "query" || got.Spans != 7 {
		t.Fatalf("stored tree wrong: %+v", got)
	}

	// Newest-first ordering.
	all := ts.List(TraceFilter{})
	if len(all) != 3 || all[0].ID != "q-2" || all[2].ID != "q-0" {
		t.Fatalf("list order wrong: %+v", all)
	}
	// Status filter.
	errs := ts.List(TraceFilter{Status: "error"})
	if len(errs) != 1 || errs[0].ID != "q-1" {
		t.Fatalf("status filter: %+v", errs)
	}
	// MinVTime filter.
	slow := ts.List(TraceFilter{MinVTime: 3 * time.Second})
	if len(slow) != 1 || slow[0].ID != "q-2" {
		t.Fatalf("min-vtime filter: %+v", slow)
	}
	// Limit.
	if lim := ts.List(TraceFilter{Limit: 2}); len(lim) != 2 || lim[0].ID != "q-2" {
		t.Fatalf("limit filter: %+v", lim)
	}
}

func TestTraceStoreEvictsLowestSeq(t *testing.T) {
	ts := NewTraceStore(2, 100)
	for i := 0; i < 5; i++ {
		ts.Put(fmt.Sprintf("q-%d", i), int64(i), "ok", "q", time.Second, 1, 1, tree(1, 1))
	}
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
	if ts.Evicted() != 3 {
		t.Fatalf("evicted = %d, want 3", ts.Evicted())
	}
	if _, ok := ts.Get("q-0"); ok {
		t.Error("q-0 should have been evicted")
	}
	if _, ok := ts.Get("q-4"); !ok {
		t.Error("q-4 should be retained")
	}
}

func TestTraceStoreReplacesDuplicateID(t *testing.T) {
	ts := NewTraceStore(10, 100)
	ts.Put("q-1", 1, "error", "first", time.Second, 1, 1, tree(1, 1))
	ts.Put("q-1", 7, "ok", "second", 2*time.Second, 2, 2, tree(1, 1))
	if ts.Len() != 1 {
		t.Fatalf("len = %d, want 1 after replacement", ts.Len())
	}
	got, _ := ts.Get("q-1")
	if got.Status != "ok" || got.Seq != 7 {
		t.Fatalf("replacement kept old entry: %+v", got)
	}
}

func TestTraceStoreTruncationKeepsShallowStructure(t *testing.T) {
	// 1 root + 3 phases + 30 leaves = 34 spans; budget 6 keeps the root,
	// all phases, and the first two leaves (BFS order).
	ts := NewTraceStore(10, 6)
	ts.Put("q-1", 1, "ok", "q", time.Second, 1, 1, tree(3, 10))
	got, _ := ts.Get("q-1")
	if !got.Truncated || got.Spans != 6 {
		t.Fatalf("truncated=%v spans=%d, want true/6", got.Truncated, got.Spans)
	}
	if len(got.Root.Children) != 3 {
		t.Fatalf("phase structure lost: %d children", len(got.Root.Children))
	}
	leaves := 0
	for _, p := range got.Root.Children {
		leaves += len(p.Children)
	}
	if leaves != 2 {
		t.Fatalf("leaves kept = %d, want 2", leaves)
	}
}

func TestTraceStoreFrozenAgainstLaterMutation(t *testing.T) {
	ts := NewTraceStore(10, 100)
	root := tree(1, 1)
	ts.Put("q-1", 1, "ok", "q", time.Second, 1, 1, root)
	root.SetAttr("after", "mutation")
	root.StartChild("late", KindPhase).End()
	got, _ := ts.Get("q-1")
	if got.Root.Attrs["after"] != "" {
		t.Error("stored trace saw attr set after Put")
	}
	if len(got.Root.Children) != 1 {
		t.Errorf("stored trace saw child added after Put: %d children", len(got.Root.Children))
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	ts.Put("q", 1, "ok", "q", 0, 0, 0, tree(1, 1))
	if ts.Len() != 0 || ts.Evicted() != 0 {
		t.Error("nil store not empty")
	}
	if got := ts.List(TraceFilter{}); got != nil {
		t.Errorf("nil store list = %v", got)
	}
	if _, ok := ts.Get("q"); ok {
		t.Error("nil store Get returned ok")
	}
	if a, b := ts.Bounds(); a != 0 || b != 0 {
		t.Error("nil store bounds non-zero")
	}
}

func TestTraceSummaryJSONHasNoWallClock(t *testing.T) {
	st := &StoredTrace{ID: "q-1", Seq: 1, Status: "ok", Query: "q", VTime: time.Second}
	b, err := json.Marshal(st.Summary())
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"wall", "time.Time", "start", "end"} {
		if containsFold(string(b), banned) {
			t.Errorf("summary JSON %s contains wall-clock field %q", b, banned)
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
