package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"unify"
	"unify/internal/faults"
	"unify/internal/workload"
)

// FaultRow is one fault-injection configuration evaluated over the
// workload: accuracy and latency under faults versus the fault-free
// baseline of the same sweep.
type FaultRow struct {
	Dataset string `json:"dataset"`
	// Kind is the injected fault class ("none" for the baseline row,
	// "mixed" for the all-kinds row).
	Kind string  `json:"kind"`
	Rate float64 `json:"rate"`

	Accuracy       float64 `json:"accuracy"`
	AvgLatencySecs float64 `json:"avg_latency_secs"`
	Queries        int     `json:"queries"`
	Failed         int     `json:"failed"`

	FaultsInjected int64 `json:"faults_injected"`
	Retries        int64 `json:"retries"`
	RetryExhausted int64 `json:"retry_exhausted"`
	Replans        int64 `json:"replans"`
	SkippedDocs    int64 `json:"skipped_docs"`
	PartialAnswers int   `json:"partial_answers"`
}

// FaultBenchResult is the `-exp faults` artifact: resilience of the full
// pipeline under seeded fault injection at increasing rates.
type FaultBenchResult struct {
	Dataset     string     `json:"dataset"`
	Size        int        `json:"size"`
	PerTemplate int        `json:"per_template"`
	Seed        int64      `json:"seed"`
	Rows        []FaultRow `json:"rows"`
	// AccuracyDrop10 is the accuracy lost at the 10% transient rate
	// relative to fault-free (the acceptance bar is <= 0.05).
	AccuracyDrop10 float64 `json:"accuracy_drop_at_10pct"`
}

// RunFaultBench sweeps transient-fault rates (plus one mixed-kind row)
// over the example workload with retries, error budgets, and replanning
// enabled, measuring how gracefully accuracy degrades.
func RunFaultBench(ctx context.Context, cfg Config) (*FaultBenchResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	res := &FaultBenchResult{Dataset: name, Size: len(ds.Docs), PerTemplate: cfg.PerTemplate, Seed: cfg.Seed}

	type sweep struct {
		kind string
		plan *faults.Plan
	}
	const fseed = 1109
	sweeps := []sweep{{kind: "none"}}
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		sweeps = append(sweeps, sweep{kind: string(faults.Transient),
			plan: faults.Uniform(faults.Transient, rate, fseed, faults.OperatorTasks...)})
	}
	sweeps = append(sweeps, sweep{kind: "mixed", plan: &faults.Plan{Seed: fseed, Rules: []faults.Rule{
		{Kind: faults.Transient, Rate: 0.05, Tasks: faults.OperatorTasks},
		{Kind: faults.Timeout, Rate: 0.02, Tasks: faults.OperatorTasks},
		{Kind: faults.Slow, Rate: 0.05, Tasks: faults.OperatorTasks},
		{Kind: faults.Garbage, Rate: 0.03, Tasks: faults.OperatorTasks},
	}}})

	for _, sw := range sweeps {
		sys, err := unify.New(unify.WithConfig(unify.Config{
			Dataset:         ds.Name,
			TrainSCE:        true,
			FaultPlan:       sw.plan,
			NodeErrorBudget: 2,
			ReplanThreshold: 3,
		}), unify.WithCorpus(ds))
		if err != nil {
			return nil, err
		}
		row := FaultRow{Dataset: name, Kind: sw.kind, Queries: len(queries)}
		if sw.plan != nil && len(sw.plan.Rules) == 1 {
			row.Rate = sw.plan.Rules[0].Rate
		}
		correct := 0
		var total time.Duration
		answers, errs := drive(ctx, sys, queries, 1)
		for i, ans := range answers {
			if errs[i] != nil {
				row.Failed++
				continue
			}
			if workload.Score(queries[i], ans.Text) {
				correct++
			}
			if ans.Partial {
				row.PartialAnswers++
			}
			total += ans.TotalDur
		}
		row.Accuracy = float64(correct) / float64(len(queries))
		row.AvgLatencySecs = (total / time.Duration(len(queries))).Seconds()
		if inj := sys.Injector; inj != nil {
			row.FaultsInjected = inj.Injected()
		}
		reg := sys.Metrics.Reg
		row.Retries = int64(reg.Total("unify_llm_retries_total"))
		row.RetryExhausted = int64(reg.Total("unify_llm_retry_exhausted_total"))
		row.Replans = int64(reg.Total("unify_exec_replans_total"))
		row.SkippedDocs = int64(reg.Total("unify_exec_skipped_docs_total"))
		res.Rows = append(res.Rows, row)
	}

	var base, at10 float64
	for _, r := range res.Rows {
		if r.Kind == "none" {
			base = r.Accuracy
		}
		if r.Kind == string(faults.Transient) && r.Rate == 0.10 {
			at10 = r.Accuracy
		}
	}
	res.AccuracyDrop10 = base - at10
	return res, nil
}

// PrintFaultBench renders the fault-injection sweep.
func PrintFaultBench(w io.Writer, res *FaultBenchResult) {
	nq := 0
	if len(res.Rows) > 0 {
		nq = res.Rows[0].Queries
	}
	fmt.Fprintf(w, "Fault injection sweep (%s, %d docs, %d queries):\n",
		res.Dataset, res.Size, nq)
	fmt.Fprintf(w, "  %-10s %5s %9s %9s %7s %8s %7s %7s %7s\n",
		"kind", "rate", "accuracy", "avg_lat", "failed", "faults", "retries", "replans", "skipped")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-10s %5.2f %8.1f%% %8.1fs %7d %8d %7d %7d %7d\n",
			r.Kind, r.Rate, 100*r.Accuracy, r.AvgLatencySecs, r.Failed,
			r.FaultsInjected, r.Retries, r.Replans, r.SkippedDocs)
	}
	fmt.Fprintf(w, "  accuracy drop at 10%% transient rate: %.1f points\n", 100*res.AccuracyDrop10)
}
