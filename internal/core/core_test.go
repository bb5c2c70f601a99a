package core

import (
	"context"
	"strings"
	"testing"

	"unify/internal/embedding"
	"unify/internal/llm"
	"unify/internal/ops"
)

func noiselessPlanner(nc int, tau float64) *Planner {
	cfg := llm.DefaultSimConfig()
	cfg.Profile = llm.PlannerProfile()
	cfg.RerankNoise, cfg.BindNoise = 0, 0
	return NewPlanner(llm.NewSim(cfg), embedding.New(embedding.DefaultDim), 5, nc, tau)
}

func TestPlanModel(t *testing.T) {
	p := &Plan{Query: "q", Nodes: []*Node{
		{ID: 0, Op: "Filter", OutVar: "v1", Inputs: []string{"dataset"}},
		{ID: 1, Op: "Filter", OutVar: "v2", Inputs: []string{"{v1}"}, Deps: []int{0}},
		{ID: 2, Op: "Count", OutVar: "v3", Inputs: []string{"{v2}"}, Deps: []int{1}},
	}}
	if p.Root().ID != 2 {
		t.Error("root should be the last node")
	}
	order, err := p.Topo()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].ID != 0 || order[2].ID != 2 {
		t.Errorf("topo order %v", []int{order[0].ID, order[1].ID, order[2].ID})
	}
	lvl := p.Levels()
	if lvl[0] != 0 || lvl[2] != 2 {
		t.Errorf("levels = %v", lvl)
	}
	c := p.Clone()
	c.Nodes[0].Args = ops.Args{"x": "y"}
	if len(p.Nodes[0].Args) != 0 {
		t.Error("clone is not deep")
	}
	if !strings.Contains(p.String(), "Count") {
		t.Error("String() should list operators")
	}
}

func TestPlanCycleDetected(t *testing.T) {
	p := &Plan{Nodes: []*Node{
		{ID: 0, Deps: []int{1}},
		{ID: 1, Deps: []int{0}},
	}}
	if _, err := p.Topo(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestGeneratePlanSimpleCount(t *testing.T) {
	pl := noiselessPlanner(1, 1)
	plans, stats, err := pl.GeneratePlans(context.Background(),
		"How many questions about football have more than 500 views?")
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("got %d plans", len(plans))
	}
	if stats.Fallback {
		t.Fatal("simple count should not need the fallback")
	}
	counts := plans[0].OpCounts()
	if counts["Filter"]+counts["Scan"] != 2 || counts["Count"] != 1 {
		t.Errorf("ops = %v", counts)
	}
	if stats.Duration <= 0 || len(stats.Calls) == 0 {
		t.Error("planning cost not recorded")
	}
	// Planner calls must use the planner profile.
	root := plans[0].Root()
	if root.Op != "Count" {
		t.Errorf("root op = %s", root.Op)
	}
	if root.Inputs[0] == "dataset" {
		t.Error("count should consume the filtered variable")
	}
}

func TestGeneratePlanDAGSharing(t *testing.T) {
	pl := noiselessPlanner(1, 1)
	q := "Among questions with over 500 views, which sport has the highest ratio of number of questions related to injury to number of questions related to training?"
	plans, stats, err := pl.GeneratePlans(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallback {
		t.Fatal("running example fell back")
	}
	plan := plans[0]
	counts := plan.OpCounts()
	if counts["GroupBy"] != 1 {
		t.Errorf("grouping not shared: %v", counts)
	}
	if counts["Count"] != 2 || counts["Compute"] != 1 {
		t.Errorf("ops = %v", counts)
	}
	// The two count branches must be independent (DAG width > 1).
	lvl := plan.Levels()
	width := map[int]int{}
	for _, l := range lvl {
		width[l]++
	}
	maxWidth := 0
	for _, w := range width {
		if w > maxWidth {
			maxWidth = w
		}
	}
	if maxWidth < 2 {
		t.Errorf("plan has no parallel level: levels %v\n%s", lvl, plan)
	}
}

func TestGenerateMultiplePlans(t *testing.T) {
	pl := noiselessPlanner(3, 1.0)
	plans, _, err := pl.GeneratePlans(context.Background(),
		"How many questions about football have more than 500 views?")
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Errorf("exhaustive search found only %d plans", len(plans))
	}
	// Candidate plans must differ (e.g., filter order).
	if len(plans) >= 2 && plans[0].String() == plans[1].String() {
		t.Error("candidate plans are identical")
	}
}

func TestFallbackForUngroundableQuery(t *testing.T) {
	pl := noiselessPlanner(1, 0.75)
	plans, stats, err := pl.GeneratePlans(context.Background(),
		"Please summarize the general mood of the community.")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Error("ungroundable query should trigger the Generate fallback")
	}
	root := plans[0].Root()
	if root.Op != "Generate" {
		t.Errorf("fallback root = %s", root.Op)
	}
}

func TestPlannerDeterministic(t *testing.T) {
	q := "What is the average score of questions related to injury?"
	a, _, err1 := noiselessPlanner(1, 0.75).GeneratePlans(context.Background(), q)
	b, _, err2 := noiselessPlanner(1, 0.75).GeneratePlans(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a[0].String() != b[0].String() {
		t.Errorf("planner not deterministic:\n%s\nvs\n%s", a[0], b[0])
	}
}

func TestPlanDOT(t *testing.T) {
	pl := noiselessPlanner(1, 0.75)
	plans, _, err := pl.GeneratePlans(context.Background(),
		"How many questions about football have more than 500 views?")
	if err != nil {
		t.Fatal(err)
	}
	dot := plans[0].DOT()
	for _, want := range []string{"digraph plan", "Count", "->", "rankdir"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
