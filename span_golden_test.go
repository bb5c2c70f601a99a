package unify

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"unify/internal/obs"
)

// formatSpanTree renders the structure of a span tree: one line per
// span, indented by depth, with its name, kind, attribute keys in
// insertion order and virtual duration in nanoseconds. Attribute values
// and wall times are left out, so the rendering is the same on every
// run and on every host.
func formatSpanTree(b *strings.Builder, s *obs.Span, depth int) {
	keys := make([]string, 0, len(s.Attrs()))
	for _, a := range s.Attrs() {
		keys = append(keys, a.Key)
	}
	fmt.Fprintf(b, "%s%s\t%s\t[%s]\t%d\n", strings.Repeat("  ", depth), s.Name, s.Kind,
		strings.Join(keys, ","), s.VDur())
	for _, c := range s.Children() {
		formatSpanTree(b, c, depth+1)
	}
}

// formatStoredTree is formatSpanTree for a retained trace, the only view
// of a failed query's tree. The wire form keeps attributes in a map, so
// keys are sorted; an open span is marked.
func formatStoredTree(b *strings.Builder, s *obs.SpanJSON, depth int) {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	open := ""
	if s.Open {
		open = "\topen"
	}
	fmt.Fprintf(b, "%s%s\t%s\t[%s]\t%.9f%s\n", strings.Repeat("  ", depth), s.Name, s.Kind,
		strings.Join(keys, ","), s.VTimeSecs, open)
	for _, c := range s.Children {
		formatStoredTree(b, c, depth+1)
	}
}

// TestSpanTreeGolden pins the shape of the query path's span trees — an
// NL query, a USQL query, a plan-cache hit and a query that fails in the
// frontend — to a golden generated at the parent of the commit that made
// Query a sequence of phase functions. Regenerate with UPDATE_GOLDENS=1
// go test -run SpanTreeGolden.
func TestSpanTreeGolden(t *testing.T) {
	sys, err := New(WithDataset("sports"), WithSize(200), WithStrictChecks())
	if err != nil {
		t.Fatal(err)
	}
	const nl = "How many questions about football have more than 500 views?"
	cases := []struct{ name, query string }{
		{"nl", nl},
		{"usql", "SELECT AVG(score) FROM sports WHERE 'related to injury'"},
		{"plan-cache-hit", nl},
	}
	var b strings.Builder
	for _, tc := range cases {
		ans, err := sys.Query(context.Background(), tc.query, WithAnalyze())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hit := tc.name == "plan-cache-hit"; ans.PlanCacheHit != hit {
			t.Fatalf("%s: PlanCacheHit = %v", tc.name, ans.PlanCacheHit)
		}
		fmt.Fprintf(&b, "# %s\n", tc.name)
		formatSpanTree(&b, ans.Trace, 0)
	}
	ctx := obs.WithRequestID(context.Background(), "bad-usql")
	if _, err := sys.Query(ctx, "SELECT COUNT(*) FROM"); err == nil {
		t.Fatal("malformed USQL unexpectedly succeeded")
	}
	tr, ok := sys.Traces.Get("bad-usql")
	if !ok {
		t.Fatal("failed query left no retained trace")
	}
	fmt.Fprintf(&b, "# frontend-error (stored trace, status=%s)\n", tr.Status)
	formatStoredTree(&b, tr.Root, 0)
	got := b.String()

	const golden = "testdata/seed_span_tree.txt"
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("span trees diverged from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
