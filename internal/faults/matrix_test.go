package faults_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unify"
	"unify/internal/corpus"
	"unify/internal/faults"
	"unify/internal/llm"
	"unify/internal/ops"
	"unify/internal/workload"
)

// typedError reports whether a query failure is one of the system's
// typed error classes — every failure under injection must be explained,
// never a bare string invented at the failure site.
func typedError(err error) bool {
	var fe *faults.Error
	var te *llm.TaskError
	return llm.IsTransient(err) ||
		errors.Is(err, llm.ErrMalformed) ||
		errors.Is(err, llm.ErrUnknownTask) ||
		errors.Is(err, ops.ErrBadOutput) ||
		errors.Is(err, context.Canceled) ||
		errors.As(err, &fe) ||
		errors.As(err, &te)
}

// TestFaultMatrix sweeps fault kind x rate x seed over a slice of the
// example workload. Under every configuration each query must either
// complete or fail with a typed error within its deadline — no hangs, no
// panics, no mystery strings (run under -race in CI).
func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep is slow")
	}
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)
	if len(queries) > 6 {
		queries = queries[:6]
	}

	for _, kind := range faults.Kinds() {
		for _, rate := range []float64{0.1, 0.5} {
			for _, seed := range []uint64{1, 2} {
				kind, rate, seed := kind, rate, seed
				t.Run(fmt.Sprintf("%s_r%.1f_s%d", kind, rate, seed), func(t *testing.T) {
					t.Parallel()
					sys, err := unify.New(unify.WithConfig(unify.Config{
						Dataset:         ds.Name,
						FaultPlan:       faults.Uniform(kind, rate, seed, faults.OperatorTasks...),
						NodeErrorBudget: 2,
						ReplanThreshold: 3,
					}), unify.WithCorpus(ds))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range queries {
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						ans, err := sys.Query(ctx, q.Text)
						cancel()
						if err != nil {
							if !typedError(err) {
								t.Errorf("%q: untyped failure: %v", q.Text, err)
							}
							continue
						}
						if ans.Text == "" && ans.Value.Len() == 0 && !ans.Partial {
							// Empty answers are fine; the point is the
							// query terminated with a well-formed Answer.
							_ = ans
						}
					}
				})
			}
		}
	}
}

// TestFaultMatrixDeterministic re-runs one faulty configuration and
// requires identical answers and identical injection counts.
func TestFaultMatrixDeterministic(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)[:3]
	run := func() ([]string, int64) {
		sys, err := unify.New(unify.WithConfig(unify.Config{
			Dataset:         ds.Name,
			FaultPlan:       faults.Uniform(faults.Transient, 0.2, 7, faults.OperatorTasks...),
			NodeErrorBudget: 2,
		}), unify.WithCorpus(ds))
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for _, q := range queries {
			ans, err := sys.Query(context.Background(), q.Text)
			if err != nil {
				texts = append(texts, "error:"+fmt.Sprint(typedError(err)))
				continue
			}
			texts = append(texts, ans.Text)
		}
		// /metrics reads the injector's own counts.
		for kind, n := range sys.Injector.Stats() {
			if got := sys.Metrics.Reg.Value("unify_faults_injected_total", string(kind)); got != float64(n) {
				t.Errorf("unify_faults_injected_total{kind=%q} = %v, injector counted %d", kind, got, n)
			}
		}
		return texts, sys.Injector.Injected()
	}
	texts1, inj1 := run()
	texts2, inj2 := run()
	if inj1 != inj2 {
		t.Errorf("injection counts differ: %d vs %d", inj1, inj2)
	}
	for i := range texts1 {
		if texts1[i] != texts2[i] {
			t.Errorf("query %d: %q vs %q", i, texts1[i], texts2[i])
		}
	}
}

// TestFaultToleranceAccuracy is the acceptance bar: at a 10% transient
// rate on operator calls with retries and budgets enabled, workload
// accuracy stays within 5 points of the fault-free run.
func TestFaultToleranceAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy sweep is slow")
	}
	ds, err := corpus.GenerateN("sports", 300)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Generate(ds, 1, 42)
	score := func(plan *faults.Plan) float64 {
		sys, err := unify.New(unify.WithConfig(unify.Config{
			Dataset:         ds.Name,
			TrainSCE:        true,
			FaultPlan:       plan,
			NodeErrorBudget: 2,
			ReplanThreshold: 3,
		}), unify.WithCorpus(ds))
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for _, q := range queries {
			ans, err := sys.Query(context.Background(), q.Text)
			if err != nil {
				continue
			}
			if workload.Score(q, ans.Text) {
				correct++
			}
		}
		return float64(correct) / float64(len(queries))
	}
	clean := score(nil)
	faulty := score(faults.Uniform(faults.Transient, 0.10, 1109, faults.OperatorTasks...))
	if drop := clean - faulty; drop > 0.05 {
		t.Errorf("accuracy dropped %.1f points under 10%% transient faults (clean %.2f, faulty %.2f)",
			100*drop, clean, faulty)
	}
}

// TestSiblingPromptsMeetOneFate runs a query whose plan sends every prompt
// of one operator twice — two parallel IndexFilter nodes over the same
// condition — under a plan mixing all four fault kinds, twelve times over.
// A call's fate is keyed by the call, not by which sibling reached the
// injector first, so every run injects the same faults, retries the same
// calls and reports the same virtual times.
func TestSiblingPromptsMeetOneFate(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	const query = "What fraction of questions about baseball are related to equipment?"
	run := func() (string, error) {
		sys, err := unify.New(unify.WithConfig(unify.Config{
			Dataset: ds.Name,
			FaultPlan: &faults.Plan{Seed: 1109, Rules: []faults.Rule{
				{Kind: faults.Transient, Rate: 0.15, Tasks: faults.OperatorTasks},
				{Kind: faults.Timeout, Rate: 0.05, Tasks: faults.OperatorTasks},
				{Kind: faults.Slow, Rate: 0.15, Tasks: faults.OperatorTasks},
				{Kind: faults.Garbage, Rate: 0.05, Tasks: faults.OperatorTasks},
			}},
			NodeErrorBudget: 2,
		}), unify.WithCorpus(ds))
		if err != nil {
			return "", err
		}
		ans, err := sys.Query(context.Background(), query)
		if err != nil {
			return "", err
		}
		filters := 0
		for _, n := range ans.Plan.Nodes {
			if n.Op == "Filter" && len(n.Deps) == 0 {
				filters++
			}
		}
		if filters != 2 || sys.Injector.Injected() == 0 {
			return "", fmt.Errorf("%d sibling filters, %d faults: the query does not exercise duplicate prompts under faults",
				filters, sys.Injector.Injected())
		}
		return fmt.Sprintf("%s | faults %v | retries %v | total %v exec %v busy %v | nodes %+v",
			ans.Text, sys.Injector.Stats(), sys.Metrics.Reg.Total("unify_llm_retries_total"),
			ans.TotalDur, ans.ExecDur, ans.SlotBusy, ans.Nodes), nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 12; i++ {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d differs from the first:\n%s\n%s", i, got, want)
		}
	}
}
