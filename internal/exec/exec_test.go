package exec

import (
	"context"
	"errors"
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"unify/internal/core"
	"unify/internal/corpus"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/sched"
	"unify/internal/values"
	"unify/internal/vtime"
)

func setup(t *testing.T, n int) (*Executor, *corpus.Dataset) {
	t.Helper()
	ds, err := corpus.GenerateN("sports", n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := docstore.New("sports", ds.Documents(), docstore.WithoutSentences())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig()
	cfg.FilterNoise = 0
	return New(store, llm.NewSim(cfg), cost.NewCalibrator(16)), ds
}

func countPlan(cond string) *core.Plan {
	return &core.Plan{Query: "count", Nodes: []*core.Node{
		{ID: 0, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": cond},
			Inputs: []string{"dataset"}, OutVar: "v1"},
		{ID: 1, Op: "Count", Phys: "PreCount",
			Args:   ops.Args{"Entity": "{v1}"},
			Inputs: []string{"{v1}"}, OutVar: "v2", Deps: []int{0}},
	}}
}

func TestRunCountPlan(t *testing.T) {
	e, ds := setup(t, 300)
	res, err := e.Run(context.Background(), countPlan("related to injury"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range ds.Docs {
		if d.Hidden.Aspect == "injury" {
			want++
		}
	}
	got, err := strconv.Atoi(res.Answer.String())
	if err != nil || got != want {
		t.Errorf("answer %q, want %d", res.Answer.String(), want)
	}
	if res.Makespan <= 0 || res.LLMCalls == 0 {
		t.Errorf("accounting missing: %+v", res)
	}
	if res.Serial < res.Makespan {
		t.Errorf("serial (%v) below DAG makespan (%v)", res.Serial, res.Makespan)
	}
}

// TestParallelBranchesOverlap: two independent filters must overlap in
// DAG mode (makespan < serial).
func TestParallelBranchesOverlap(t *testing.T) {
	e, _ := setup(t, 400)
	plan := &core.Plan{Query: "compare", Nodes: []*core.Node{
		{ID: 0, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to injury"},
			Inputs: []string{"dataset"}, OutVar: "v1"},
		{ID: 1, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to training"},
			Inputs: []string{"dataset"}, OutVar: "v2"},
		{ID: 2, Op: "Count", Phys: "PreCount", Args: ops.Args{"Entity": "{v1}"},
			Inputs: []string{"{v1}"}, OutVar: "v3", Deps: []int{0}},
		{ID: 3, Op: "Count", Phys: "PreCount", Args: ops.Args{"Entity": "{v2}"},
			Inputs: []string{"{v2}"}, OutVar: "v4", Deps: []int{1}},
		{ID: 4, Op: "Compare", Phys: "NumericCompare",
			Args:   ops.Args{"Entity": "{v3}", "Entity2": "{v4}"},
			Inputs: []string{"{v3}", "{v4}"}, OutVar: "v5", Deps: []int{2, 3}},
	}}
	res, err := e.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != values.Str {
		t.Fatalf("answer kind %v", res.Answer.Kind)
	}
	if float64(res.Makespan) > 0.75*float64(res.Serial) {
		t.Errorf("independent branches did not overlap: makespan %v vs serial %v", res.Makespan, res.Serial)
	}
}

// TestPlanAdjustmentFallsBackToAnotherPhysical: an impossible physical
// choice must be repaired at run time.
func TestPlanAdjustment(t *testing.T) {
	e, _ := setup(t, 150)
	plan := countPlan("related to injury")
	plan.Nodes[0].Phys = "NoSuchImplementation"
	res, err := e.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[0].Adjusted && res.Nodes[0].Phys == "NoSuchImplementation" {
		t.Error("executor did not adjust the broken physical choice")
	}
}

func TestCalibratorFed(t *testing.T) {
	e, _ := setup(t, 200)
	if _, err := e.Run(context.Background(), countPlan("related to golf")); err != nil {
		t.Fatal(err)
	}
	// After one execution the calibrator must have history for the
	// semantic filter.
	est := e.Calib.EstimateLLM("SemanticFilter", 100)
	prior := cost.NewCalibrator(16).EstimateLLM("SemanticFilter", 100)
	if est == prior {
		t.Log("estimate equals prior; acceptable but unexpected after calibration")
	}
	if est <= 0 {
		t.Error("calibrated estimate not positive")
	}
}

func TestEmptyPlan(t *testing.T) {
	e, _ := setup(t, 50)
	if _, err := e.Run(context.Background(), &core.Plan{Query: "empty"}); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestMissingVariable(t *testing.T) {
	e, _ := setup(t, 50)
	plan := &core.Plan{Query: "broken", Nodes: []*core.Node{
		{ID: 0, Op: "Count", Phys: "PreCount",
			Args:   ops.Args{"Entity": "{v9}"},
			Inputs: []string{"{v9}"}, OutVar: "v1"},
	}}
	if _, err := e.Run(context.Background(), plan); err == nil {
		t.Error("unbound variable accepted")
	}
}

func TestDeterministicExecution(t *testing.T) {
	e, _ := setup(t, 200)
	r1, err1 := e.Run(context.Background(), countPlan("related to tennis"))
	r2, err2 := e.Run(context.Background(), countPlan("related to tennis"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Answer.String() != r2.Answer.String() || r1.Makespan != r2.Makespan {
		t.Error("execution not deterministic")
	}
}

// TestSpanAccountingConsistent: with tracing enabled, the executor must
// attach one span per plan node, and the per-node virtual durations must
// sum to exactly the Serial (fully sequential) latency while bounding the
// DAG makespan from above.
func TestSpanAccountingConsistent(t *testing.T) {
	e, _ := setup(t, 300)
	espan := obs.NewTracer().Start("execute", obs.KindPhase)
	ctx := obs.WithSpan(context.Background(), espan)
	plan := &core.Plan{Query: "compare", Nodes: []*core.Node{
		{ID: 0, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to injury"},
			Inputs: []string{"dataset"}, OutVar: "v1"},
		{ID: 1, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to training"},
			Inputs: []string{"dataset"}, OutVar: "v2"},
		{ID: 2, Op: "Count", Phys: "PreCount", Args: ops.Args{"Entity": "{v1}"},
			Inputs: []string{"{v1}"}, OutVar: "v3", Deps: []int{0}},
		{ID: 3, Op: "Count", Phys: "PreCount", Args: ops.Args{"Entity": "{v2}"},
			Inputs: []string{"{v2}"}, OutVar: "v4", Deps: []int{1}},
		{ID: 4, Op: "Compare", Phys: "NumericCompare",
			Args:   ops.Args{"Entity": "{v3}", "Entity2": "{v4}"},
			Inputs: []string{"{v3}", "{v4}"}, OutVar: "v5", Deps: []int{2, 3}},
	}}
	res, err := e.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	children := espan.Children()
	if len(children) != len(plan.Nodes) {
		t.Fatalf("%d node spans, want %d", len(children), len(plan.Nodes))
	}
	var sum time.Duration
	for i, c := range children {
		// Spans are adopted in deterministic plan order.
		if want := plan.Nodes[i].Op; !strings.Contains(c.Name, want) {
			t.Errorf("span %d = %q, want op %q", i, c.Name, want)
		}
		if c.Attr("finish_vtime") == "" {
			t.Errorf("span %q missing finish_vtime", c.Name)
		}
		if c.Attr("llm_calls") == "" || c.Attr("in_card") == "" || c.Attr("out_card") == "" {
			t.Errorf("span %q missing accounting attrs: %v", c.Name, c.Attrs())
		}
		sum += c.VDur()
	}
	if sum != res.Serial {
		t.Errorf("node span vtimes sum to %v, Serial accounting says %v", sum, res.Serial)
	}
	if res.Makespan > res.Serial {
		t.Errorf("makespan %v exceeds serial %v", res.Makespan, res.Serial)
	}
	if res.SlotBusy <= 0 || res.SlotBusy > res.Serial {
		t.Errorf("slot busy %v outside (0, %v]", res.SlotBusy, res.Serial)
	}
}

// blockingClient models a stuck LLM backend that only returns when the
// call's context is cancelled.
type blockingClient struct{}

func (blockingClient) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

func (blockingClient) Profile() llm.Profile { return llm.WorkerProfile() }

// TestContextCancellation: a server-side timeout must stop in-flight
// plans — goroutines waiting on dependency channels or on a slot must
// observe ctx.Done() and Run must return ctx.Err().
func TestContextCancellation(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 100)
	if err != nil {
		t.Fatal(err)
	}
	store, err := docstore.New("sports", ds.Documents(), docstore.WithoutSentences())
	if err != nil {
		t.Fatal(err)
	}
	e := New(store, blockingClient{}, cost.NewCalibrator(16))
	e.MaxParallel = 1 // force the second branch to wait on the slot
	plan := &core.Plan{Query: "cancel", Nodes: []*core.Node{
		{ID: 0, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to injury"},
			Inputs: []string{"dataset"}, OutVar: "v1"},
		{ID: 1, Op: "Filter", Phys: "SemanticFilter",
			Args:   ops.Args{"Entity": "questions", "Condition": "related to training"},
			Inputs: []string{"dataset"}, OutVar: "v2"},
		{ID: 2, Op: "Compare", Phys: "NumericCompare",
			Args:   ops.Args{"Entity": "{v1}", "Entity2": "{v2}"},
			Inputs: []string{"{v1}", "{v2}"}, OutVar: "v3", Deps: []int{0, 1}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Run(ctx, plan)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run did not stop promptly after cancellation (%v)", elapsed)
	}
}

func argmaxPlan() *core.Plan {
	return &core.Plan{Query: "argmax", Nodes: []*core.Node{
		{ID: 0, Op: "GroupBy", Phys: "SemanticGroupBy",
			Args:   ops.Args{"Entity": "questions", "Attribute": "sport"},
			Inputs: []string{"dataset"}, OutVar: "v1"},
		{ID: 1, Op: "Count", Phys: "PreCount", Args: ops.Args{"Entity": "{v1}"},
			Inputs: []string{"{v1}"}, OutVar: "v2", Deps: []int{0}},
		{ID: 2, Op: "Max", Phys: "SemanticArgMax", Args: ops.Args{"Entity": "{v2}"},
			Inputs: []string{"{v2}"}, OutVar: "v3", Deps: []int{1}},
	}}
}

// TestSequentialPhysicalSerialized: SemanticArgMax's comparison chain
// cannot parallelize, so its calls extend the makespan linearly.
func TestSequentialPhysicalSerialized(t *testing.T) {
	e, _ := setup(t, 150)
	res, err := e.Run(context.Background(), argmaxPlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != values.Str || res.Answer.StrVal == "" {
		t.Errorf("argmax answer %v", res.Answer)
	}
	var argmax NodeResult
	for _, nr := range res.Nodes {
		if nr.NodeID == 2 {
			argmax = nr
		}
	}
	if len(argmax.Calls) == 0 {
		t.Error("argmax issued no comparison calls")
	}
}

// TestReplayRunsVTimeOnce: an uncontended execution is replayed through
// the virtual clock once. What replay allocates beyond building the task
// graph and one round trip through a private pool — which makes one vtime
// run (sched's TestLoneJobAllocations) — is less than a second vtime run
// over the same graph would cost; the serial latency is a sum, not a
// second schedule.
func TestReplayRunsVTimeOnce(t *testing.T) {
	e, _ := setup(t, 150)
	ctx, plan := context.Background(), argmaxPlan()
	res, err := e.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := e.tasks(plan, res.Nodes, 0, 1)
	if want := vtime.Serial(tasks); res.Serial != want || res.Serial < res.Makespan {
		t.Errorf("serial %v, want the sum of the units %v, no less than the makespan %v", res.Serial, want, res.Makespan)
	}
	allocs := func(f func()) float64 { return testing.AllocsPerRun(50, f) }
	replay := allocs(func() {
		if err := e.replay(ctx, plan, res); err != nil {
			t.Fatal(err)
		}
	})
	build := allocs(func() { e.tasks(plan, res.Nodes, 0, 1) })
	roundTrip := allocs(func() {
		p := sched.NewPool(e.slots())
		tk := p.Admit(0)
		if _, err := p.Run(ctx, tk, tasks); err != nil {
			t.Fatal(err)
		}
		p.Release(tk)
	})
	oneRun := allocs(func() {
		if _, err := vtime.NewSchedule(e.slots()).Run(tasks); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("replay %v = build %v + pool round trip %v + %v; one vtime run is %v", replay, build, roundTrip, replay-build-roundTrip, oneRun)
	if rest := replay - build - roundTrip; rest < 0 || rest >= oneRun {
		t.Errorf("replay allocates %v beyond the task graph and one pool round trip: room for another vtime run (%v)", rest, oneRun)
	}
}

// TestTwins: a node repeats an earlier one when operator, implementation,
// arguments and inputs agree, where an input produced by a twin counts as
// the first twin's.
func TestTwins(t *testing.T) {
	filter := func(id int, phys, cond, in, out string) *core.Node {
		return &core.Node{ID: id, Op: "Filter", Phys: phys, Args: ops.Args{"Condition": cond}, Inputs: []string{in}, OutVar: out}
	}
	order := []*core.Node{
		filter(0, "IndexFilter", "about baseball", "dataset", "v1"),
		filter(1, "SemanticFilter", "about gear", "{v1}", "v2"),
		filter(2, "IndexFilter", "about baseball", "dataset", "v3"), // repeats 0
		filter(3, "SemanticFilter", "about gear", "{v3}", "v4"),     // repeats 1 through 2
		filter(4, "SemanticFilter", "about baseball", "dataset", "v5"),
		filter(5, "SemanticFilter", "about gear", "{v5}", "v6"), // 4 is nobody's twin, so neither is 5
	}
	want := map[int]int{2: 0, 3: 1}
	if got := twins(order); !maps.Equal(got, want) {
		t.Errorf("twins = %v, want %v", got, want)
	}
	if got := twins(order[:2]); got != nil {
		t.Errorf("twins of a plan without repeats = %v, want none", got)
	}
}
