// Package bench regenerates the paper's evaluation artifacts: Figure 4
// (accuracy and latency of seven methods over four datasets), Table III
// (q-errors of semantic cardinality estimation), Figure 5(a) (logical
// optimization) and Figure 5(b) (physical optimization). Each experiment
// returns structured rows and can render the same series the paper plots.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"unify"
	"unify/internal/baselines"
	"unify/internal/corpus"
	"unify/internal/optimizer"
	"unify/internal/sce"
	"unify/internal/sched"
	"unify/internal/workload"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Datasets to run (default: all four).
	Datasets []string
	// Size overrides corpus sizes (0 = the paper's document counts).
	Size int
	// PerTemplate is the number of instances per query template
	// (paper: 5 → 100 queries per dataset).
	PerTemplate int
	// Seed drives workload sampling.
	Seed int64
	// Methods restricts Figure 4 to a subset (default: all seven).
	Methods []string
	// SampleFrac is the SCE budget for Table III (paper: 1%).
	SampleFrac float64
	// ScaleMachines is the cluster-width sweep for the scale experiment
	// (default 1, 2, 4, 8; must include 1, the speedup baseline).
	ScaleMachines []int
	// MaxQueries caps every experiment's query batch (0 = the full
	// generated workload).
	MaxQueries int
}

func (c *Config) defaults() {
	if len(c.Datasets) == 0 {
		c.Datasets = corpus.Names()
	}
	if c.PerTemplate == 0 {
		c.PerTemplate = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Methods) == 0 {
		c.Methods = []string{"RAG", "RecurRAG", "LLMPlan", "Sample", "Exhaust", "Manual", "Unify"}
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.01
	}
	if len(c.ScaleMachines) == 0 {
		c.ScaleMachines = []int{1, 2, 4, 8}
	}
}

// MethodScore is one bar of Figure 4: a method's accuracy and average
// latency on one dataset.
type MethodScore struct {
	Dataset  string
	Method   string
	Accuracy float64
	// AvgLatency is the mean end-to-end simulated latency per query.
	AvgLatency time.Duration
	// AvgPlanning, AvgEstimation, and AvgExec break the Unify latency
	// into its phases (semantic parsing + plan reduction, cardinality
	// estimation + physical lowering, and DAG execution); zero for the
	// baseline methods, which have no planner.
	AvgPlanning   time.Duration
	AvgEstimation time.Duration
	AvgExec       time.Duration
	Queries       int
}

// MarshalJSON renders durations in seconds so the artifacts JSON carries
// a readable per-phase latency breakdown instead of raw nanoseconds.
func (m MethodScore) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Dataset           string  `json:"dataset"`
		Method            string  `json:"method"`
		Accuracy          float64 `json:"accuracy"`
		AvgLatencySecs    float64 `json:"avg_latency_secs"`
		AvgPlanningSecs   float64 `json:"avg_planning_secs"`
		AvgEstimationSecs float64 `json:"avg_estimation_secs"`
		AvgExecSecs       float64 `json:"avg_exec_secs"`
		Queries           int     `json:"queries"`
	}{
		Dataset:           m.Dataset,
		Method:            m.Method,
		Accuracy:          m.Accuracy,
		AvgLatencySecs:    m.AvgLatency.Seconds(),
		AvgPlanningSecs:   m.AvgPlanning.Seconds(),
		AvgEstimationSecs: m.AvgEstimation.Seconds(),
		AvgExecSecs:       m.AvgExec.Seconds(),
		Queries:           m.Queries,
	})
}

// unifyBaseline adapts a Unify system to the Baseline interface.
type unifyBaseline struct {
	sys *unify.System
	// Per-phase accumulators for the latency breakdown.
	planning   time.Duration
	estimation time.Duration
	exec       time.Duration
	queries    int
}

func (u *unifyBaseline) Name() string { return "Unify" }

func (u *unifyBaseline) Run(ctx context.Context, query string) (baselines.Result, error) {
	ans, err := u.sys.Query(ctx, query)
	if err != nil {
		return baselines.Result{}, err
	}
	u.planning += ans.PlanningDur
	u.estimation += ans.EstimationDur
	u.exec += ans.ExecDur
	u.queries++
	return baselines.Result{Text: ans.Text, Latency: ans.TotalDur, LLMCalls: ans.LLMCalls}, nil
}

// load generates one dataset at the configured size (0 = the paper's
// document count) and the seeded workload over it: the queries keep
// accepts (all of them when keep is nil), capped at MaxQueries.
func (c Config) load(name string, keep func(workload.Query) bool) (*corpus.Dataset, []workload.Query, error) {
	size := c.Size
	if size == 0 {
		size = corpus.DefaultSize(name)
	}
	ds, err := corpus.GenerateN(name, size)
	if err != nil {
		return nil, nil, err
	}
	queries := workload.Generate(ds, c.PerTemplate, c.Seed)
	if keep != nil {
		queries = slices.DeleteFunc(queries, func(q workload.Query) bool { return !keep(q) })
	}
	if c.MaxQueries > 0 && len(queries) > c.MaxQueries {
		queries = queries[:c.MaxQueries]
	}
	return ds, queries, nil
}

// drive is the one query loop of the experiments: it runs queries through
// sys, at most concurrency at a time, each starting in input order as soon
// as a place is free — concurrency 1 is a sequential pass, len(queries)
// offers the whole batch at once — and returns every answer and error in
// input order.
func drive(ctx context.Context, sys *unify.System, queries []workload.Query, concurrency int, opts ...unify.QueryOption) ([]*unify.Answer, []error) {
	answers := make([]*unify.Answer, len(queries))
	errs := make([]error, len(queries))
	places := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i, q := range queries {
		places <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = sys.Query(ctx, q.Text, opts...)
			<-places
		}()
	}
	wg.Wait()
	return answers, errs
}

// driveAll is drive for the passes in which no query may fail.
func driveAll(ctx context.Context, sys *unify.System, queries []workload.Query, concurrency int, opts ...unify.QueryOption) ([]*unify.Answer, error) {
	answers, errs := drive(ctx, sys, queries, concurrency, opts...)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", queries[i].ID, err)
		}
	}
	return answers, nil
}

// PoolWindow is what the shared slot pool did over one measured run, on
// its own virtual-clock accounting: the virtual span it scheduled over,
// its aggregate slot utilization there (busy / (span * slots),
// structurally <= 1) and the virtual-time throughput.
type PoolWindow struct {
	Utilization    float64 `json:"utilization"`
	WindowSecs     float64 `json:"window_secs"`
	QueriesPerVSec float64 `json:"queries_per_vsec"`
}

// poolWindow is the pool's work since the snapshot before (the zero Stats
// on a fresh system), during which n queries were answered.
func poolWindow(sys *unify.System, before sched.Stats, n int) PoolWindow {
	ps := sys.Pool.Stats()
	span := ps.SpanVTime - before.SpanVTime
	if span <= 0 {
		return PoolWindow{}
	}
	return PoolWindow{
		Utilization: float64(ps.BusyTotal-before.BusyTotal) /
			(float64(span) * float64(ps.Slots) * float64(ps.Machines)),
		WindowSecs:     span.Seconds(),
		QueriesPerVSec: float64(n) / span.Seconds(),
	}
}

// openSystem builds the experiments' standard system over a dataset —
// paper defaults, importance function trained — plus the options one
// experiment varies. The serving-path experiments pass
// unify.WithCacheBytes(-1): with the shared cache off every level and
// width schedules the same honest slot work.
func openSystem(ds *corpus.Dataset, opts ...unify.Option) (*unify.System, error) {
	return unify.New(append([]unify.Option{unify.WithCorpus(ds), unify.WithDataset(ds.Name), unify.WithTrainSCE()}, opts...)...)
}

// buildBaseline constructs a named method over a dataset.
func buildBaseline(name string, ds *corpus.Dataset, sys *unify.System) (baselines.Baseline, error) {
	store := sys.Store
	worker := sys.WorkerClient
	planner := sys.PlannerClient
	switch name {
	case "RAG":
		return baselines.NewRAG(store, worker), nil
	case "RecurRAG":
		return baselines.NewRecurRAG(store, worker), nil
	case "LLMPlan":
		return baselines.NewLLMPlan(store, worker), nil
	case "Sample":
		return baselines.NewSample(store, worker), nil
	case "Exhaust":
		return baselines.NewExhaust(store, planner, worker), nil
	case "Manual":
		return baselines.NewManual(store, worker), nil
	case "Unify":
		return &unifyBaseline{sys: sys}, nil
	default:
		return nil, fmt.Errorf("bench: unknown method %q", name)
	}
}

// RunFig4 evaluates every method on every dataset, producing the bars of
// Figure 4(a)-(h).
func RunFig4(ctx context.Context, cfg Config) ([]MethodScore, error) {
	cfg.defaults()
	var out []MethodScore
	for _, name := range cfg.Datasets {
		ds, queries, err := cfg.load(name, nil)
		if err != nil {
			return nil, err
		}
		sys, err := openSystem(ds)
		if err != nil {
			return nil, err
		}
		for _, method := range cfg.Methods {
			b, err := buildBaseline(method, ds, sys)
			if err != nil {
				return nil, err
			}
			score := MethodScore{Dataset: name, Method: method, Queries: len(queries)}
			correct := 0
			var total time.Duration
			for _, q := range queries {
				res, err := b.Run(ctx, q.Text)
				if err != nil {
					// A failed query counts as incorrect with the
					// latency it consumed before failing.
					continue
				}
				if workload.Score(q, res.Text) {
					correct++
				}
				total += res.Latency
			}
			score.Accuracy = float64(correct) / float64(len(queries))
			score.AvgLatency = total / time.Duration(len(queries))
			if ub, ok := b.(*unifyBaseline); ok && ub.queries > 0 {
				n := time.Duration(ub.queries)
				score.AvgPlanning = ub.planning / n
				score.AvgEstimation = ub.estimation / n
				score.AvgExec = ub.exec / n
			}
			out = append(out, score)
		}
	}
	return out, nil
}

// PrintFig4 renders the Figure 4 rows as two tables (accuracy, latency).
func PrintFig4(w io.Writer, rows []MethodScore) {
	byDS := map[string][]MethodScore{}
	var dsOrder []string
	for _, r := range rows {
		if _, ok := byDS[r.Dataset]; !ok {
			dsOrder = append(dsOrder, r.Dataset)
		}
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	fmt.Fprintln(w, "Figure 4(a)-(d): accuracy (%)")
	for _, ds := range dsOrder {
		fmt.Fprintf(w, "  %-8s", ds)
		for _, r := range byDS[ds] {
			fmt.Fprintf(w, " %s=%.0f%%", r.Method, 100*r.Accuracy)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Figure 4(e)-(h): average latency (minutes)")
	for _, ds := range dsOrder {
		fmt.Fprintf(w, "  %-8s", ds)
		for _, r := range byDS[ds] {
			fmt.Fprintf(w, " %s=%.2f", r.Method, r.AvgLatency.Minutes())
		}
		fmt.Fprintln(w)
	}
	for _, ds := range dsOrder {
		for _, r := range byDS[ds] {
			if r.AvgPlanning == 0 && r.AvgEstimation == 0 && r.AvgExec == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-8s %s phases: planning=%.1fs estimation=%.1fs execution=%.1fs\n",
				ds, r.Method, r.AvgPlanning.Seconds(), r.AvgEstimation.Seconds(), r.AvgExec.Seconds())
		}
	}
}

// QErrorRow is one row of Table III.
type QErrorRow struct {
	Dataset string
	Method  sce.Method
	P50     float64
	P95     float64
	P99     float64
	Max     float64
	Preds   int
}

// RunTable3 evaluates the four SCE methods on the Sports and AI datasets
// (paper Table III) with a 1% sample budget.
func RunTable3(ctx context.Context, cfg Config) ([]QErrorRow, error) {
	cfg.defaults()
	datasets := []string{"sports", "ai"}
	if len(cfg.Datasets) > 0 && cfg.Datasets[0] != "" && len(cfg.Datasets) <= 2 {
		datasets = cfg.Datasets
	}
	var out []QErrorRow
	for _, name := range datasets {
		ds, queries, err := cfg.load(name, nil)
		if err != nil {
			return nil, err
		}
		sys, err := openSystem(ds)
		if err != nil {
			return nil, err
		}
		preds := workload.SemanticConditions(queries)
		est := sys.Estimator
		ns := int(cfg.SampleFrac * float64(len(ds.Docs)))
		// Ground truth: full LLM evaluation of each predicate.
		truths := make(map[string]float64, len(preds))
		for _, p := range preds {
			tc, err := est.TrueCardinality(ctx, p, 16)
			if err != nil {
				return nil, err
			}
			truths[p] = float64(tc)
		}
		const reps = 6 // independent sample draws per predicate
		for _, method := range []sce.Method{sce.Uniform, sce.Stratified, sce.AIS, sce.Unify} {
			var qerrs []float64
			for _, p := range preds {
				for r := 0; r < reps; r++ {
					e, _, err := est.EstimateSeeded(ctx, method, p, ns, fmt.Sprintf("|rep%d", r))
					if err != nil {
						return nil, err
					}
					qerrs = append(qerrs, sce.QError(e, truths[p]))
				}
			}
			sort.Float64s(qerrs)
			out = append(out, QErrorRow{
				Dataset: name,
				Method:  method,
				P50:     pct(qerrs, 50),
				P95:     pct(qerrs, 95),
				P99:     pct(qerrs, 99),
				Max:     qerrs[len(qerrs)-1],
				Preds:   len(preds),
			})
		}
	}
	return out, nil
}

func pct(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, rows []QErrorRow) {
	fmt.Fprintln(w, "Table III: q-errors of semantic cardinality estimation")
	fmt.Fprintf(w, "  %-10s %-10s %8s %8s %8s %8s\n", "dataset", "method", "50th", "95th", "99th", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-10s %8.2f %8.2f %8.2f %8.2f\n",
			r.Dataset, r.Method, r.P50, r.P95, r.P99, r.Max)
	}
}

// OptRow is one bar of Figure 5.
type OptRow struct {
	Dataset string
	Variant string
	AvgExec time.Duration
}

// RunFig5a compares DAG-parallel execution (Unify) against sequential
// execution (Unify-noLO) on Sports and Wiki (paper Figure 5a).
func RunFig5a(ctx context.Context, cfg Config) ([]OptRow, error) {
	cfg.defaults()
	datasets := []string{"sports", "wiki"}
	var out []OptRow
	for _, name := range datasets {
		ds, queries, err := cfg.load(name, nil)
		if err != nil {
			return nil, err
		}
		sys, err := openSystem(ds)
		if err != nil {
			return nil, err
		}
		par, ser, ok := meanExec(drive(ctx, sys, queries, 1))
		if !ok {
			continue
		}
		out = append(out,
			OptRow{Dataset: name, Variant: "Unify", AvgExec: par},
			OptRow{Dataset: name, Variant: "Unify-noLO", AvgExec: ser},
		)
	}
	return out, nil
}

// RunFig5b compares the physical optimization variants: Unify (cost-based
// with SCE), Unify-Rule (no cost-based optimization), and Unify-GD
// (ground-truth cardinalities) — paper Figure 5b.
func RunFig5b(ctx context.Context, cfg Config) ([]OptRow, error) {
	cfg.defaults()
	datasets := []string{"sports", "wiki"}
	var out []OptRow
	for _, name := range datasets {
		ds, queries, err := cfg.load(name, nil)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			label string
			mode  optimizer.Mode
		}{
			{"Unify-Rule", optimizer.Rule},
			{"Unify", optimizer.CostBased},
			{"Unify-GD", optimizer.GroundTruth},
		} {
			sys, err := openSystem(ds, unify.WithMode(variant.mode))
			if err != nil {
				return nil, err
			}
			if avg, _, ok := meanExec(drive(ctx, sys, queries, 1)); ok {
				out = append(out, OptRow{Dataset: name, Variant: variant.label, AvgExec: avg})
			}
		}
	}
	return out, nil
}

// meanExec averages the execution makespan of the answered queries, as
// run and had execution been fully sequential; ok is false when none
// was answered.
func meanExec(answers []*unify.Answer, errs []error) (parallel, serial time.Duration, ok bool) {
	n := 0
	for i, ans := range answers {
		if errs[i] == nil {
			parallel += ans.ExecDur
			serial += ans.SerialExecDur
			n++
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return parallel / time.Duration(n), serial / time.Duration(n), true
}

// PrintFig5 renders Figure 5 rows.
func PrintFig5(w io.Writer, title string, rows []OptRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-12s avg exec = %.2f min\n", r.Dataset, r.Variant, r.AvgExec.Minutes())
	}
}
