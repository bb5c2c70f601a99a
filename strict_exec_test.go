package unify

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unify/internal/check"
	"unify/internal/core"
	"unify/internal/obs"
)

// inflatingReplanner stands in for a buggy optimizer: its "replanned"
// suffix carries cardinality estimates far beyond the corpus.
type inflatingReplanner struct{}

func (inflatingReplanner) Reoptimize(_ context.Context, plan *core.Plan, _ map[string]core.Known) (time.Duration, error) {
	for _, n := range plan.Nodes {
		n.EstCard = 1 << 30
	}
	return 0, nil
}

// TestStrictViolationInExecFailsQuery: an invariant violation raised
// inside Executor.Run must fail the query with the *check.Error. It must
// not reach the Generate fallback, which would answer "1" in its place
// and leave plan.card_bounds unreported.
func TestStrictViolationInExecFailsQuery(t *testing.T) {
	sys, err := New(WithDataset("sports"), WithSize(200), WithStrictChecks())
	if err != nil {
		t.Fatal(err)
	}
	sys.Executor.ReplanThreshold = 1.0001
	sys.Executor.Replanner = inflatingReplanner{}
	failed := func() float64 { return sys.Metrics.Reg.Value("unify_queries_total", "error") }
	before := failed()

	ctx := obs.WithRequestID(context.Background(), "strict-exec")
	ans, err := sys.Query(ctx, "How many questions about football have more than 500 views?")
	if err == nil {
		t.Fatalf("query answered %q (fallback=%v); want the plan.card_bounds violation", ans.Text, ans.Fallback)
	}
	var cerr *check.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("error does not unwrap to *check.Error: %v", err)
	}
	if !strings.Contains(cerr.Error(), check.InvPlanCardBounds) {
		t.Fatalf("violation does not name %s: %v", check.InvPlanCardBounds, cerr)
	}
	tr, ok := sys.Traces.Get("strict-exec")
	if !ok || tr.Status != "error" {
		t.Fatalf("retained trace: found=%v, want status=error", ok)
	}
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s.Open {
			t.Errorf("span %q was never ended", s.Name)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if got := failed() - before; got != 1 {
		t.Errorf(`unify_queries_total{status="error"} moved by %v, want 1`, got)
	}
}
