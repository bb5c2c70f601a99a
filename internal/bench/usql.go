package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
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
	ds, queries, err := cfg.load(name)
	if err != nil {
		return nil, err
	}
	var pairs []workload.Query
	for _, q := range queries {
		if q.USQL == "" {
			continue
		}
		pairs = append(pairs, q)
	}
	if cfg.MaxQueries > 0 && len(pairs) > cfg.MaxQueries {
		pairs = pairs[:cfg.MaxQueries]
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("bench: workload has no dual-form (NL+USQL) queries")
	}
	templates := map[int]bool{}
	for _, q := range pairs {
		templates[q.Template] = true
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
		nlAns, err := usqlDrive(ctx, nl, pairs, false)
		if err != nil {
			return nil, fmt.Errorf("bench: %s round, NL side: %w", round, err)
		}
		usAns, err := usqlDrive(ctx, us, pairs, true)
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

// usqlDrive runs every dual-form pair through one system at
// USQLConcurrency — the USQL twin pinned to LangUSQL on the parsed
// side, the NL text otherwise — and returns the answers in input order.
func usqlDrive(ctx context.Context, sys *unify.System, pairs []workload.Query, parsed bool) ([]*unify.Answer, error) {
	answers := make([]*unify.Answer, len(pairs))
	errs := make([]error, len(pairs))
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range pairs {
			next <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < USQLConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if parsed {
					answers[i], errs[i] = sys.Query(ctx, pairs[i].USQL, unify.WithLanguage(unify.LangUSQL))
				} else {
					answers[i], errs[i] = sys.Query(ctx, pairs[i].Text)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", pairs[i].ID, err)
		}
	}
	return answers, nil
}

// usqlPoint aggregates one round's answer pairs into a USQLPoint.
func usqlPoint(round string, nlAns, usAns []*unify.Answer) USQLPoint {
	pt := USQLPoint{Round: round, Queries: len(nlAns), Concurrency: USQLConcurrency}
	var nlTotal, usTotal, nlPlan, usPlan time.Duration
	var nlHits, usHits int
	for i := range nlAns {
		nlTotal += nlAns[i].TotalDur
		usTotal += usAns[i].TotalDur
		nlPlan += nlAns[i].PlanningDur
		usPlan += usAns[i].PlanningDur
		if nlAns[i].PlanCacheHit {
			nlHits++
		}
		if usAns[i].PlanCacheHit {
			usHits++
		}
	}
	n := float64(len(nlAns))
	pt.NLMeanSecs = nlTotal.Seconds() / n
	pt.USQLMeanSecs = usTotal.Seconds() / n
	pt.NLMeanPlanningSecs = nlPlan.Seconds() / n
	pt.USQLMeanPlanningSecs = usPlan.Seconds() / n
	pt.NLPlanCacheHitRate = float64(nlHits) / n
	pt.USQLPlanCacheHitRate = float64(usHits) / n
	if nlTotal > 0 {
		pt.NLQueriesPerVSec = n / (nlTotal.Seconds() / USQLConcurrency)
	}
	if usTotal > 0 {
		pt.USQLQueriesPerVSec = n / (usTotal.Seconds() / USQLConcurrency)
	}
	if pt.NLQueriesPerVSec > 0 {
		pt.Speedup = pt.USQLQueriesPerVSec / pt.NLQueriesPerVSec
	}
	return pt
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
