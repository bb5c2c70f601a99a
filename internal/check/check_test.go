package check

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unify/internal/core"
	"unify/internal/ops"
	"unify/internal/vtime"
)

// goodPlan is a well-formed Filter -> Count pipeline.
func goodPlan() *core.Plan {
	return &core.Plan{Query: "test", Nodes: []*core.Node{
		{ID: 0, Op: "Filter", Args: ops.Args{"Entity": "questions", "Condition": "related to golf"},
			Inputs: []string{"dataset"}, OutVar: "v1", Phys: "SemanticFilter", EstCard: 40},
		{ID: 1, Op: "Count", Args: ops.Args{"Entity": "{v1}"},
			Inputs: []string{"{v1}"}, OutVar: "v2", Deps: []int{0}, Phys: "PreCount", EstCard: 1},
	}}
}

func hasViolation(vs []Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestPlanCleanOnGoodPlan(t *testing.T) {
	if vs := Plan(goodPlan(), 200, true); len(vs) != 0 {
		t.Fatalf("violations on a well-formed plan: %v", vs)
	}
	if vs := Plan(goodPlan(), 200, false); len(vs) != 0 {
		t.Fatalf("violations on a well-formed logical plan: %v", vs)
	}
}

func TestPlanNonEmpty(t *testing.T) {
	if vs := Plan(&core.Plan{}, 100, false); !hasViolation(vs, InvPlanNonEmpty) {
		t.Fatalf("empty plan not flagged: %v", vs)
	}
	if vs := Plan(nil, 100, false); !hasViolation(vs, InvPlanNonEmpty) {
		t.Fatalf("nil plan not flagged: %v", vs)
	}
}

func TestPlanAcyclic(t *testing.T) {
	p := goodPlan()
	p.Nodes[0].Deps = []int{1} // 0 <-> 1
	if vs := Plan(p, 100, false); !hasViolation(vs, InvPlanAcyclic) {
		t.Fatalf("cycle not flagged: %v", vs)
	}
}

func TestPlanUniqueOutputs(t *testing.T) {
	p := goodPlan()
	p.Nodes[1].OutVar = "v1" // collides with node 0
	if vs := Plan(p, 100, false); !hasViolation(vs, InvPlanUniqueOutputs) {
		t.Fatalf("duplicate output variable not flagged: %v", vs)
	}
	p2 := goodPlan()
	p2.Nodes[1] = &core.Node{ID: 0, Op: "Filter",
		Args:   ops.Args{"Entity": "questions", "Condition": "related to tennis"},
		Inputs: []string{"dataset"}, OutVar: "v2"}
	if vs := Plan(p2, 100, false); !hasViolation(vs, InvPlanUniqueOutputs) {
		t.Fatalf("duplicate node id not flagged: %v", vs)
	}
}

func TestPlanDepsMatchInputs(t *testing.T) {
	p := goodPlan()
	p.Nodes[1].Deps = nil // consumes {v1} without depending on node 0
	if vs := Plan(p, 100, false); !hasViolation(vs, InvPlanDepsMatchInputs) {
		t.Fatalf("missing dep not flagged: %v", vs)
	}
	p2 := goodPlan()
	p2.Nodes[1].Inputs = []string{"{v9}"} // no producer
	if vs := Plan(p2, 100, false); !hasViolation(vs, InvPlanDepsMatchInputs) {
		t.Fatalf("unproduced input not flagged: %v", vs)
	}
}

func TestPlanSingleSink(t *testing.T) {
	p := goodPlan()
	// A dangling second sink: produced but never consumed, not the root.
	p.Nodes = append(p.Nodes[:1], &core.Node{
		ID: 2, Op: "Filter", Args: ops.Args{"Entity": "questions", "Condition": "related to tennis"},
		Inputs: []string{"dataset"}, OutVar: "v3", Phys: "SemanticFilter", EstCard: 10,
	}, p.Nodes[1])
	if vs := Plan(p, 100, true); !hasViolation(vs, InvPlanSingleSink) {
		t.Fatalf("dead branch not flagged: %v", vs)
	}
}

func TestPlanTypeCompat(t *testing.T) {
	p := goodPlan()
	p.Nodes[0].Op = "Frobnicate"
	if vs := Plan(p, 100, false); !hasViolation(vs, InvPlanTypeCompat) {
		t.Fatalf("unknown operator not flagged: %v", vs)
	}
	p2 := goodPlan()
	p2.Nodes[1].Phys = "NoSuchImpl"
	if vs := Plan(p2, 100, true); !hasViolation(vs, InvPlanTypeCompat) {
		t.Fatalf("physical not in spec not flagged: %v", vs)
	}
	p3 := goodPlan()
	p3.Nodes[1].Phys = ""
	if vs := Plan(p3, 100, true); !hasViolation(vs, InvPlanTypeCompat) {
		t.Fatalf("missing physical selection not flagged: %v", vs)
	}
}

func TestPlanCardBounds(t *testing.T) {
	p := goodPlan()
	p.Nodes[0].EstCard = 999 // corpus is 200
	if vs := Plan(p, 200, true); !hasViolation(vs, InvPlanCardBounds) {
		t.Fatalf("oversized EstCard not flagged: %v", vs)
	}
	p.Nodes[0].EstCard = -1
	if vs := Plan(p, 200, true); !hasViolation(vs, InvPlanCardBounds) {
		t.Fatalf("negative EstCard not flagged: %v", vs)
	}
	// Logical plans have no estimates yet: zero EstCard must pass.
	p2 := goodPlan()
	p2.Nodes[0].EstCard, p2.Nodes[1].EstCard = 0, 0
	p2.Nodes[0].Phys, p2.Nodes[1].Phys = "", ""
	if vs := Plan(p2, 200, false); len(vs) != 0 {
		t.Fatalf("logical plan flagged: %v", vs)
	}
}

func goodFacts() AnswerFacts {
	return AnswerFacts{
		Docs: 200, Slots: 4, MaxReplans: 1,
		PlanNodes: 2, NodeStats: 2,
		ScannedDocs: 240, SkippedDocs: 0, Replans: 0,
		LLMCalls: 20, CachedLLMCalls: 5,
		PlanningDur: 2 * time.Second, EstimationDur: time.Second,
		ExecDur: 4 * time.Second, TotalDur: 7 * time.Second,
		SoloExecDur: 4 * time.Second, SlotBusy: 10 * time.Second,
	}
}

func TestAnswerCleanOnGoodFacts(t *testing.T) {
	if vs := Answer(goodFacts()); len(vs) != 0 {
		t.Fatalf("violations on consistent facts: %v", vs)
	}
}

func TestAnswerViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AnswerFacts)
		inv  string
	}{
		{"negative duration", func(f *AnswerFacts) { f.ExecDur = -time.Second }, InvAnswerDursNonNeg},
		{"non-additive total", func(f *AnswerFacts) { f.TotalDur = time.Second }, InvAnswerDurAdditive},
		{"solo exceeds contended", func(f *AnswerFacts) { f.SoloExecDur = time.Hour }, InvAnswerSoloBound},
		{"utilization over 1", func(f *AnswerFacts) { f.SlotBusy = time.Hour }, InvAnswerUtilBound},
		{"skipped exceeds scanned", func(f *AnswerFacts) { f.SkippedDocs = 500 }, InvAnswerSkippedBound},
		{"replans over bound", func(f *AnswerFacts) { f.Replans = 2 }, InvAnswerReplansBound},
		{"missing node stats", func(f *AnswerFacts) { f.NodeStats = 1 }, InvAnswerNodesComplete},
		{"cached exceeds total calls", func(f *AnswerFacts) { f.CachedLLMCalls = 99 }, InvAnswerCallsBound},
	}
	for _, tc := range cases {
		f := goodFacts()
		tc.mut(&f)
		if vs := Answer(f); !hasViolation(vs, tc.inv) {
			t.Errorf("%s: %s not flagged: %v", tc.name, tc.inv, vs)
		}
	}
}

func TestVTimeCleanOnRealSchedule(t *testing.T) {
	tasks := []vtime.Task{
		{Label: "a", Job: 0, Units: []vtime.Unit{{Dur: time.Second, Pool: vtime.OnMachine(0)}, {Dur: time.Second, Pool: vtime.OnMachine(0)}}},
		{Label: "b", Job: 1, Units: []vtime.Unit{{Dur: 3 * time.Second, Pool: vtime.OnMachine(0)}}},
		{Label: "c", Job: 1, Deps: []int{1}, Units: []vtime.Unit{{Dur: time.Second}}},
	}
	res, err := vtime.NewSchedule(2).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if vs := VTime(res, 2); len(vs) != 0 {
		t.Fatalf("violations on a real schedule: %v", vs)
	}
}

func TestVTimeConservationViolations(t *testing.T) {
	tasks := []vtime.Task{
		{Label: "a", Job: 0, Units: []vtime.Unit{{Dur: time.Second, Pool: vtime.OnMachine(0)}}},
	}
	res, err := vtime.NewSchedule(2).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	broken := res
	broken.Jobs = []vtime.JobStats{{Busy: 5 * time.Second, End: res.Makespan}} // != Busy[0]
	if vs := VTime(broken, 2); !hasViolation(vs, InvVTimeConservation) {
		t.Fatalf("busy conservation break not flagged: %v", vs)
	}
	over := res
	over.Busy = []time.Duration{time.Hour}
	if vs := VTime(over, 2); !hasViolation(vs, InvVTimeSlotBound) {
		t.Fatalf("slot capacity break not flagged: %v", vs)
	}
}

// Satellite (batch.fairness_bound mutation test): a clean batched result
// passes, and each hand-mutated violation — oversized batch, deferral
// past the window, duration over the fairness cap, duplicate jobs, wait
// mismatch, share leakage — fires the invariant.
func TestBatchFairnessViolations(t *testing.T) {
	pol := &vtime.BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 2 * time.Second, MaxBatch: 4}
	good := func() vtime.Result {
		return vtime.Result{Batches: []vtime.BatchGrant{{
			Machine: 0, Key: "k",
			GrantAt: 0, Start: 50 * time.Millisecond, Dur: 900 * time.Millisecond,
			Members: []vtime.BatchMember{
				{Task: 0, Job: 0, Ready: 0, Wait: 50 * time.Millisecond, Solo: 700 * time.Millisecond, Share: 500 * time.Millisecond},
				{Task: 1, Job: 1, Ready: 50 * time.Millisecond, Wait: 0, Solo: 600 * time.Millisecond, Share: 400 * time.Millisecond},
			},
		}}}
	}
	if vs := BatchFairness(good(), pol); len(vs) != 0 {
		t.Fatalf("clean batched result flagged: %v", vs)
	}
	if vs := BatchFairness(good(), nil); len(vs) != 0 {
		t.Fatalf("nil policy must disable the check: %v", vs)
	}

	mutations := map[string]func(*vtime.Result){
		"oversized batch": func(r *vtime.Result) {
			g := &r.Batches[0]
			for len(g.Members) <= 4 {
				g.Members = append(g.Members, vtime.BatchMember{Job: 10 + len(g.Members)})
			}
		},
		"deferred past window": func(r *vtime.Result) {
			r.Batches[0].Start = 200 * time.Millisecond
			for i := range r.Batches[0].Members {
				m := &r.Batches[0].Members[i]
				m.Wait = r.Batches[0].Start - m.Ready
			}
		},
		"over fairness cap": func(r *vtime.Result) {
			r.Batches[0].Dur = 3 * time.Second
			r.Batches[0].Members[0].Share = 2600 * time.Millisecond
		},
		"duplicate jobs": func(r *vtime.Result) {
			r.Batches[0].Members[1].Job = r.Batches[0].Members[0].Job
		},
		"wait mismatch": func(r *vtime.Result) {
			r.Batches[0].Members[1].Wait = time.Second
		},
		"share leakage": func(r *vtime.Result) {
			r.Batches[0].Members[0].Share += time.Millisecond
		},
	}
	for name, mutate := range mutations {
		r := good()
		mutate(&r)
		if vs := BatchFairness(r, pol); !hasViolation(vs, InvBatchFairness) {
			t.Errorf("mutation %q not flagged: %v", name, vs)
		}
	}
}

// A real batched schedule passes the fairness invariant end to end.
func TestBatchFairnessCleanOnRealSchedule(t *testing.T) {
	pol := &vtime.BatchPolicy{Window: 100 * time.Millisecond, FairnessCap: 2500 * time.Millisecond, MaxBatch: 8}
	s := vtime.NewSchedule(4)
	s.Batching = pol
	spec := func() *vtime.BatchSpec {
		return &vtime.BatchSpec{
			Key: "k", Base: 80 * time.Millisecond, Decode: 200 * time.Millisecond,
			TemplatePrefill: 30 * time.Millisecond, PayloadPrefill: 100 * time.Millisecond,
		}
	}
	var tasks []vtime.Task
	for j := 0; j < 5; j++ {
		tasks = append(tasks, vtime.Task{
			Label: string(rune('a' + j)), Job: j, Sequential: true,
			Units: []vtime.Unit{
				{Dur: 410 * time.Millisecond, Pool: vtime.OnMachine(0), Batch: spec()},
				{Dur: 410 * time.Millisecond, Pool: vtime.OnMachine(0), Batch: spec()},
			},
		})
	}
	res, err := s.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) == 0 {
		t.Fatal("no batch grants recorded on a batched schedule")
	}
	if vs := BatchFairness(res, pol); len(vs) != 0 {
		t.Fatalf("violations on a real batched schedule: %v", vs)
	}
}

func TestPoolUtilization(t *testing.T) {
	if vs := PoolUtilization(0.97); len(vs) != 0 {
		t.Fatalf("valid utilization flagged: %v", vs)
	}
	if vs := PoolUtilization(1.2); !hasViolation(vs, InvPoolUtilBound) {
		t.Fatalf("utilization > 1 not flagged: %v", vs)
	}
}

func TestFailRendersViolations(t *testing.T) {
	if err := Fail("ctx", nil, nil); err != nil {
		t.Fatalf("no violations must yield nil error, got %v", err)
	}
	err := Fail("unit test", []Violation{{Invariant: InvPlanAcyclic, Detail: "boom"}}, nil)
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("Fail returned %T", err)
	}
	if !strings.Contains(err.Error(), InvPlanAcyclic) || !strings.Contains(err.Error(), "unit test") {
		t.Fatalf("error message missing context: %q", err.Error())
	}
}

func TestDifferentialDriver(t *testing.T) {
	echo := func(_ context.Context, q string) (string, error) { return "ans:" + q, nil }
	warp := func(_ context.Context, q string) (string, error) {
		if q == "q2" {
			return "divergent", nil
		}
		return "ans:" + q, nil
	}
	failing := func(_ context.Context, q string) (string, error) { return "", errors.New("boom") }

	if ms := Differential(context.Background(), "id", []string{"q1", "q2"}, echo, echo); len(ms) != 0 {
		t.Fatalf("identical runners diverged: %v", ms)
	}
	ms := Differential(context.Background(), "warp", []string{"q1", "q2", "q3"}, echo, warp)
	if len(ms) != 1 || ms[0].Query != "q2" {
		t.Fatalf("expected one q2 mismatch, got %v", ms)
	}
	ms = Differential(context.Background(), "err", []string{"q1"}, echo, failing)
	if len(ms) != 1 || ms[0].Err == nil {
		t.Fatalf("one-sided error not a mismatch: %v", ms)
	}
	// Same error on both sides is equivalent behavior.
	if ms := Differential(context.Background(), "bothfail", []string{"q1"}, failing, failing); len(ms) != 0 {
		t.Fatalf("symmetric errors flagged: %v", ms)
	}
}

func TestAxisRegistryShape(t *testing.T) {
	if len(Axes) < 5 {
		t.Fatalf("need >= 5 metamorphic axes, have %d", len(Axes))
	}
	seen := map[string]bool{}
	for _, a := range Axes {
		if a.Name == "" || a.Description == "" {
			t.Errorf("axis missing metadata: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
}
