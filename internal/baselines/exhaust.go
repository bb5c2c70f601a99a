package baselines

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"unify/internal/core"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/exec"
	"unify/internal/llm"
	"unify/internal/optimizer"
	"unify/internal/sce"
)

// Exhaust is baseline (5): exhaustively search execution plans (the
// extreme variant of Unify, tau=1 with a large plan budget), execute every
// candidate with multiple physical configurations, and let the model pick
// the answer. It is accurate but extremely slow — the "40x" comparison
// point of the paper's headline result.
type Exhaust struct {
	Store   *docstore.Store
	Planner llm.Client
	Worker  llm.Client
	Slots   int
	Batch   int
	// MaxPlans caps the exhaustive logical search.
	MaxPlans int
}

// NewExhaust returns the baseline.
func NewExhaust(store *docstore.Store, planner, worker llm.Client) *Exhaust {
	return &Exhaust{Store: store, Planner: planner, Worker: worker, Slots: 4, Batch: 16, MaxPlans: 12}
}

// Name implements Baseline.
func (b *Exhaust) Name() string { return "Exhaust" }

// Run implements Baseline.
func (b *Exhaust) Run(ctx context.Context, query string) (Result, error) {
	planner := core.NewPlanner(b.Planner, b.Store.Embedder(), 8, b.MaxPlans, 1.0)
	plans, pstats, err := planner.GeneratePlans(ctx, query)
	if err != nil {
		return Result{}, err
	}
	calib := cost.NewCalibrator(b.Batch)
	est := sce.NewEstimator(b.Store, b.Worker, 8)
	executor := exec.New(b.Store, b.Worker, calib)
	executor.Slots = b.Slots
	executor.BatchSize = b.Batch

	// Execute every candidate plan under several physical configurations
	// (cost-based plus randomized rule selections) — the exhaustive
	// physical search. Every trial's latency is paid in full.
	variants := []struct {
		mode  optimizer.Mode
		seed  uint64
		batch int // 0 = default batching; small values model unbatched trials
	}{
		{optimizer.CostBased, 0, 0},
		{optimizer.Rule, 11, 0}, {optimizer.Rule, 23, 0}, {optimizer.Rule, 37, 0},
	}
	var answers []string
	var totalExec time.Duration
	totalCalls := len(pstats.Calls)
	for _, logical := range plans {
		for _, v := range variants {
			opt := optimizer.New(b.Store, est, calib, b.Slots)
			opt.Mode = v.mode
			if v.seed != 0 {
				opt.Seed = v.seed
			}
			plan, ostats, err := opt.Optimize(ctx, []*core.Plan{logical})
			if err != nil {
				continue
			}
			if v.batch > 0 {
				executor.BatchSize = v.batch
			} else {
				executor.BatchSize = b.Batch
			}
			res, err := executor.Run(ctx, plan)
			executor.BatchSize = b.Batch
			if err != nil {
				continue
			}
			answers = append(answers, formatValue(b.Store, res.Answer))
			totalExec += res.Makespan + ostats.Duration/time.Duration(b.Slots)
			totalCalls += res.LLMCalls + len(ostats.Calls)
		}
	}
	if len(answers) == 0 {
		return b.fallback(ctx, query, pstats)
	}
	cand, err := json.Marshal(answers)
	if err != nil {
		return Result{}, err
	}
	rec := llm.NewRecorder(b.Planner)
	resp, err := llm.Do(ctx, rec, llm.NewRequest("judge_answers",
		llm.Text("question", query),
		llm.Text("candidates", string(cand)),
	))
	if err != nil {
		return Result{}, err
	}
	idx, err := strconv.Atoi(strings.TrimSpace(resp.Text))
	if err != nil || idx < 0 || idx >= len(answers) {
		idx = 0
	}
	totalCalls += len(rec.Calls())
	return Result{
		Text:     answers[idx],
		Latency:  pstats.Duration + totalExec + sumDur(rec.Calls()),
		LLMCalls: totalCalls,
	}, nil
}

func (b *Exhaust) fallback(ctx context.Context, query string, pstats *core.PlanStats) (Result, error) {
	docs := contextDocsForSentences(b.Store, b.Store.SearchSentences(query, 100), 30)
	text, calls, err := generate(ctx, b.Worker, query, docs)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text:     text,
		Latency:  pstats.Duration + sumDur(calls),
		LLMCalls: len(pstats.Calls) + len(calls),
	}, nil
}
