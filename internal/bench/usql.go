package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"unify"
	"unify/internal/llm"
	"unify/internal/workload"
)

// USQLConcurrency is the offered concurrency of the USQL-vs-NL bench:
// the saturated end of the serving sweep, where planner virtual time on
// the NL route directly displaces execution.
const USQLConcurrency = 8

// USQLPoint is one round of the USQL-vs-NL benchmark: the same logical
// workload driven through the LLM planner (NL text) and through the
// USQL parser (typed twin), on separate but identically-seeded systems.
type USQLPoint struct {
	// Round is "cold" (first sight of every query: empty plan cache) or
	// "warm" (the same queries re-issued, the parameterized-dashboard
	// traffic pattern the exact USQL cache keys are designed for).
	Round       string `json:"round"`
	Queries     int    `json:"queries"`
	Concurrency int    `json:"concurrency"`

	// Virtual-time throughput, NL-planned vs USQL-parsed, and the ratio
	// (usql / nl). Computed as n / (sum of per-query virtual latency /
	// concurrency): planner time is charged to a per-query planning
	// clock rather than the shared slot pool, so pool span alone would
	// undercount the NL route's cost.
	NLQueriesPerVSec   float64 `json:"nl_queries_per_vsec"`
	USQLQueriesPerVSec float64 `json:"usql_queries_per_vsec"`
	Speedup            float64 `json:"speedup"`

	// Mean end-to-end virtual latency and its planning component.
	NLMeanSecs           float64 `json:"nl_mean_secs"`
	USQLMeanSecs         float64 `json:"usql_mean_secs"`
	NLMeanPlanningSecs   float64 `json:"nl_mean_planning_secs"`
	USQLMeanPlanningSecs float64 `json:"usql_mean_planning_secs"`

	// Plan-cache hit rate over the round. The warm USQL round must be
	// exactly 1.0: canonical-text keys make re-issued parameterized
	// queries byte-equal, so every one hits.
	NLPlanCacheHitRate   float64 `json:"nl_plan_cache_hit_rate"`
	USQLPlanCacheHitRate float64 `json:"usql_plan_cache_hit_rate"`

	// AnswersIdentical reports byte-identical answer text between the
	// two routes for every query in the round. The run fails if false.
	AnswersIdentical bool `json:"answers_identical"`
}

// USQLResult is the USQL-vs-NL benchmark report.
type USQLResult struct {
	Dataset     string `json:"dataset"`
	Slots       int    `json:"slots"`
	Concurrency int    `json:"concurrency"`
	Queries     int    `json:"queries"`
	Templates   int    `json:"templates"`
	// PlannerLLMCalls counts planner-model invocations on the USQL side
	// across both rounds. The run fails unless it is zero: the parser
	// route must never touch the planner.
	PlannerLLMCalls int         `json:"planner_llm_calls"`
	Points          []USQLPoint `json:"points"`
}

// RunUSQLBench measures what the typed frontend buys at saturation: the
// dual-form workload slice runs through an NL-planned system and a
// USQL-parsed one (same corpus, same seeded worker model), cold and
// then warm, at USQLConcurrency. Both cost calibrators are frozen
// before any query so concurrent completion order cannot perturb plan
// choice; the two routes must then produce byte-identical answers, the
// USQL side must make zero planner-LLM calls, beat the NL route's cold
// throughput, and hit the plan cache on 100% of warm queries.
func RunUSQLBench(ctx context.Context, cfg Config) (*USQLResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, pairs, err := cfg.load(name, func(q workload.Query) bool { return q.USQL != "" })
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("bench: workload has no dual-form (NL+USQL) queries")
	}
	// The parsed side is sent each pair's USQL form.
	parsed := slices.Clone(pairs)
	templates := map[int]bool{}
	for i, q := range pairs {
		templates[q.Template] = true
		parsed[i].Text = q.USQL
	}

	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	syscfg := unify.Config{Dataset: name, Sim: &sim}
	nl, err := unify.New(unify.WithConfig(syscfg), unify.WithCorpus(ds))
	if err != nil {
		return nil, err
	}
	pcfg := sim
	pcfg.Profile = llm.PlannerProfile()
	prec := llm.NewRecorder(llm.NewSim(pcfg))
	us, err := unify.New(unify.WithConfig(syscfg), unify.WithCorpus(ds),
		unify.WithClients(prec, llm.NewSim(sim)))
	if err != nil {
		return nil, err
	}
	// Freeze both cost models on their identical priors: under
	// concurrency, queries would otherwise feed the calibrator in racy
	// completion order and a knife-edge plan could flip between runs.
	nl.Calib.Freeze()
	us.Calib.Freeze()

	res := &USQLResult{
		Dataset:     name,
		Slots:       nl.Config.Slots,
		Concurrency: USQLConcurrency,
		Queries:     len(pairs),
		Templates:   len(templates),
	}
	for _, round := range []string{"cold", "warm"} {
		nlAns, err := driveAll(ctx, nl, pairs, USQLConcurrency)
		if err != nil {
			return nil, fmt.Errorf("bench: %s round, NL side: %w", round, err)
		}
		usAns, err := driveAll(ctx, us, parsed, USQLConcurrency, unify.WithLanguage(unify.LangUSQL))
		if err != nil {
			return nil, fmt.Errorf("bench: %s round, USQL side: %w", round, err)
		}
		pt := usqlPoint(round, nlAns, usAns)
		for i := range pairs {
			if nlAns[i].Text != usAns[i].Text {
				return nil, fmt.Errorf("bench: %s round, answer diverged for %s:\n  nl:   %s\n  usql: %s",
					round, pairs[i].ID, nlAns[i].Text, usAns[i].Text)
			}
		}
		pt.AnswersIdentical = true
		if round == "warm" && pt.USQLPlanCacheHitRate != 1.0 {
			return nil, fmt.Errorf("bench: warm USQL plan-cache hit rate %.3f, want exactly 1.0",
				pt.USQLPlanCacheHitRate)
		}
		if round == "cold" && pt.Speedup <= 1.0 {
			return nil, fmt.Errorf("bench: cold USQL throughput %.3f q/vsec did not beat NL %.3f q/vsec",
				pt.USQLQueriesPerVSec, pt.NLQueriesPerVSec)
		}
		res.Points = append(res.Points, pt)
	}
	if calls := prec.Calls(); len(calls) != 0 {
		return nil, fmt.Errorf("bench: USQL route made %d planner-LLM calls (first task %q), want 0",
			len(calls), calls[0].Task)
	}
	res.PlannerLLMCalls = 0
	return res, nil
}

// usqlPoint aggregates one round's answer pairs into a USQLPoint.
func usqlPoint(round string, nlAns, usAns []*unify.Answer) USQLPoint {
	pt := USQLPoint{Round: round, Queries: len(nlAns), Concurrency: USQLConcurrency}
	pt.NLMeanSecs, pt.NLMeanPlanningSecs, pt.NLPlanCacheHitRate, pt.NLQueriesPerVSec = usqlSide(nlAns)
	pt.USQLMeanSecs, pt.USQLMeanPlanningSecs, pt.USQLPlanCacheHitRate, pt.USQLQueriesPerVSec = usqlSide(usAns)
	if pt.NLQueriesPerVSec > 0 {
		pt.Speedup = pt.USQLQueriesPerVSec / pt.NLQueriesPerVSec
	}
	return pt
}

// usqlSide summarizes one route's answers: mean latency, its planning
// part, the plan-cache hit rate and the virtual-time throughput.
func usqlSide(answers []*unify.Answer) (meanSecs, meanPlanningSecs, hitRate, qps float64) {
	var total, plan time.Duration
	hits := 0
	for _, a := range answers {
		total += a.TotalDur
		plan += a.PlanningDur
		if a.PlanCacheHit {
			hits++
		}
	}
	n := float64(len(answers))
	if total > 0 {
		qps = n / (total.Seconds() / USQLConcurrency)
	}
	return total.Seconds() / n, plan.Seconds() / n, float64(hits) / n, qps
}

// PrintUSQLBench renders the USQL-vs-NL report.
func PrintUSQLBench(w io.Writer, r *USQLResult) {
	fmt.Fprintf(w, "USQL vs NL planning — %s, %d dual-form queries (%d templates), concurrency %d, %d slots\n",
		r.Dataset, r.Queries, r.Templates, r.Concurrency, r.Slots)
	fmt.Fprintf(w, "  %5s %12s %12s %8s %9s %9s %9s %9s %8s %8s\n",
		"round", "nl q/vsec", "usql q/vsec", "speedup", "nl mean", "usql mean", "nl plan", "usql plan", "nl hit", "usql hit")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %5s %12.3f %12.3f %7.2fx %8.1fs %8.1fs %8.1fs %8.1fs %8.2f %8.2f\n",
			p.Round, p.NLQueriesPerVSec, p.USQLQueriesPerVSec, p.Speedup,
			p.NLMeanSecs, p.USQLMeanSecs, p.NLMeanPlanningSecs, p.USQLMeanPlanningSecs,
			p.NLPlanCacheHitRate, p.USQLPlanCacheHitRate)
	}
	fmt.Fprintf(w, "  planner LLM calls on the USQL route: %d (answers byte-identical both rounds)\n", r.PlannerLLMCalls)
}
