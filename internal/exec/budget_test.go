package exec

import (
	"context"
	"strconv"
	"testing"

	"unify/internal/faults"
)

// TestErrorBudgetDegradesGracefully: with per-batch faults injected and a
// node error budget, the filter skips the failed chunks, reports them,
// and the plan still completes with a partial answer.
func TestErrorBudgetDegradesGracefully(t *testing.T) {
	e, _ := setup(t, 300)
	clean, err := e.Run(context.Background(), countPlan("related to injury"))
	if err != nil {
		t.Fatal(err)
	}
	cleanCount, _ := strconv.Atoi(clean.Answer.String())

	// Fault half the filter batches; without retries the budget is the
	// only defense.
	e2, _ := setup(t, 300)
	e2.Worker = faults.New(e2.Worker, faults.Uniform(faults.Transient, 0.5, 5, "filter_batch"))
	e2.NodeErrorBudget = 32
	res, err := e2.Run(context.Background(), countPlan("related to injury"))
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedDocs == 0 {
		t.Fatal("no documents skipped despite 50% batch faults")
	}
	if res.Nodes[0].SkippedDocs != res.SkippedDocs {
		t.Errorf("node/result skip accounting disagree: %d vs %d",
			res.Nodes[0].SkippedDocs, res.SkippedDocs)
	}
	got, err := strconv.Atoi(res.Answer.String())
	if err != nil {
		t.Fatalf("answer %q", res.Answer.String())
	}
	if got > cleanCount {
		t.Errorf("partial count %d exceeds clean count %d", got, cleanCount)
	}
}

// TestNoBudgetFailsFast: without a budget the same fault rate must
// surface an error (after exhausting fallback implementations) or
// complete only if a pre-programmed fallback absorbed the node.
func TestNoBudgetFailsFast(t *testing.T) {
	e, _ := setup(t, 200)
	e.Worker = faults.New(e.Worker, faults.Uniform(faults.Transient, 1, 5, "filter_batch", "filter_doc", "filter_label"))
	res, err := e.Run(context.Background(), countPlan("related to injury"))
	if err == nil && !res.Adjusted {
		t.Error("plan survived total LLM failure without adjustment or error")
	}
}
