package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"unify"
	"unify/internal/sched"
	"unify/internal/workload"
)

// ScalePoint is one cluster width of the scale-out experiment.
type ScalePoint struct {
	// Machines is the simulated cluster width; SlotsTotal the cluster-wide
	// slot count (Machines x per-machine slots).
	Machines   int `json:"machines"`
	SlotsTotal int `json:"slots_total"`
	Queries    int `json:"queries"`
	Errors     int `json:"errors,omitempty"`

	// MeanSecs and MeanExecSecs are per-query averages from the
	// sequential verification pass (no contention, scatter only).
	MeanSecs     float64 `json:"mean_secs"`
	MeanExecSecs float64 `json:"mean_exec_secs"`
	// ScatteredQueries counts queries whose optimized plan scattered at
	// least one operator across the shards.
	ScatteredQueries int `json:"scattered_queries"`

	// PoolWindow holds the throughput figures from the loaded pass: the
	// whole batch offered at once to every width.
	PoolWindow
	// SpeedupVsM1 is this width's QueriesPerVSec over the 1-machine
	// point's.
	SpeedupVsM1 float64 `json:"speedup_vs_m1"`
	// AnswersMatchM1 reports that every query's answer text is
	// byte-identical to the 1-machine run (the scatter-correctness
	// contract; trivially true at width 1).
	AnswersMatchM1 bool `json:"answers_match_m1"`
}

// ScaleResult is the scale-out report: the same workload against
// clusters of increasing width under one fixed offered load.
type ScaleResult struct {
	Dataset         string       `json:"dataset"`
	SlotsPerMachine int          `json:"slots_per_machine"`
	Queries         int          `json:"queries"`
	Concurrency     int          `json:"concurrency"`
	Points          []ScalePoint `json:"points"`
}

// RunScaleBench sweeps the simulated cluster width over one dataset.
// Each width gets two fresh systems (fresh virtual clock, cluster, and
// shard assignment; response cache disabled so every width schedules the
// same honest slot work):
//
//   - a sequential verification pass that records every answer text —
//     deterministic by construction, so the per-width answers can be
//     compared byte-for-byte against the 1-machine baseline;
//   - a loaded pass offering the whole batch at once (a closed load:
//     every query is its own concurrent client), from which the
//     throughput figures (queries per virtual second) are taken.
//     Offering everything together lets the pool merge the batch into
//     as few scheduling epochs as possible, so the packing — and hence
//     the measured throughput — is stable run to run.
func RunScaleBench(ctx context.Context, cfg Config) (*ScaleResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{
		Dataset:     name,
		Queries:     len(queries),
		Concurrency: len(queries),
	}

	var baseline []string // answer texts at width 1
	var baseQPS float64
	for _, m := range cfg.ScaleMachines {
		sys, err := openSystem(ds, unify.WithCacheBytes(-1), unify.WithMachines(m))
		if err != nil {
			return nil, err
		}
		res.SlotsPerMachine = sys.Config.Slots
		pt := ScalePoint{
			Machines:   m,
			SlotsTotal: m * sys.Config.Slots,
			Queries:    len(queries),
		}
		answers, err := scaleVerify(ctx, sys, queries, &pt)
		if err != nil {
			return nil, err
		}
		if m == 1 {
			baseline = answers
		}
		pt.AnswersMatchM1 = slices.Equal(baseline, answers)
		if !pt.AnswersMatchM1 {
			return nil, fmt.Errorf("bench: answers at %d machines diverge from the 1-machine run", m)
		}

		loaded, err := openSystem(ds, unify.WithCacheBytes(-1), unify.WithMachines(m))
		if err != nil {
			return nil, err
		}
		if err := scaleLoad(ctx, loaded, queries, &pt); err != nil {
			return nil, err
		}
		if m == 1 {
			baseQPS = pt.QueriesPerVSec
		}
		if baseQPS > 0 {
			pt.SpeedupVsM1 = pt.QueriesPerVSec / baseQPS
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// scaleVerify runs the batch sequentially, recording each answer text
// ("!error\t..." for failures, so mismatches surface in the comparison).
func scaleVerify(ctx context.Context, sys *unify.System, queries []workload.Query, pt *ScalePoint) ([]string, error) {
	texts := make([]string, len(queries))
	var total, exec time.Duration
	n := 0
	answers, errs := drive(ctx, sys, queries, 1)
	for i, ans := range answers {
		if errs[i] != nil {
			pt.Errors++
			texts[i] = "!error\t" + errs[i].Error()
			continue
		}
		texts[i] = ans.Text
		total += ans.TotalDur
		exec += ans.ExecDur
		n++
		scattered := false
		for _, node := range ans.Plan.Nodes {
			if _, ok := node.Args["_scatter"]; ok {
				scattered = true
			}
		}
		if scattered {
			pt.ScatteredQueries++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("bench: all %d queries failed at %d machines", len(queries), pt.Machines)
	}
	pt.MeanSecs = total.Seconds() / float64(n)
	pt.MeanExecSecs = exec.Seconds() / float64(n)
	return texts, nil
}

// scaleLoad offers the whole batch at once — every query is its own
// concurrent client — and reads the throughput off the pool's
// virtual-clock accounting. Admissions all land before the first query
// finishes planning, so the pool packs the batch as one scheduling epoch
// and the makespan is dominated by slot capacity, not by client pacing.
func scaleLoad(ctx context.Context, sys *unify.System, queries []workload.Query, pt *ScalePoint) error {
	_, errs := drive(ctx, sys, queries, len(queries))
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("bench: all %d loaded queries failed at %d machines", len(queries), pt.Machines)
	}
	pt.PoolWindow = poolWindow(sys, sched.Stats{}, n)
	return nil
}

// PrintScaleBench renders the scale-out sweep.
func PrintScaleBench(w io.Writer, r *ScaleResult) {
	fmt.Fprintf(w, "Scale-out sweep — %s, %d queries per width, %d slots/machine, offered load %d\n",
		r.Dataset, r.Queries, r.SlotsPerMachine, r.Concurrency)
	fmt.Fprintf(w, "  %8s %6s %9s %9s %8s %6s %9s %8s %7s\n",
		"machines", "slots", "mean", "exec", "scatter", "util", "q/vsec", "speedup", "match")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %8d %6d %8.1fs %8.1fs %8d %6.2f %9.3f %7.2fx %7v\n",
			p.Machines, p.SlotsTotal, p.MeanSecs, p.MeanExecSecs, p.ScatteredQueries,
			p.Utilization, p.QueriesPerVSec, p.SpeedupVsM1, p.AnswersMatchM1)
	}
}
