package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"unify"
	"unify/internal/workload"
)

// LayerRate summarizes one cache layer's activity during one pass of the
// repeated-workload benchmark.
type LayerRate struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// CacheBenchResult is the repeated-workload benchmark report: the same
// query batch executed twice against one system, with per-layer traffic
// for each pass, plus an uncached control run that pins down the cold
// cost the cache hierarchy must not regress.
type CacheBenchResult struct {
	Dataset string `json:"dataset"`
	Queries int    `json:"queries"`

	// UncachedLatency is the batch latency with CacheBytes < 0 (the
	// pre-cache behavior); Cold and Warm are the first and second pass
	// over the same batch on a cached system.
	UncachedLatency time.Duration `json:"-"`
	ColdLatency     time.Duration `json:"-"`
	WarmLatency     time.Duration `json:"-"`
	// Speedup is ColdLatency / WarmLatency.
	Speedup float64 `json:"speedup"`

	ColdAccuracy float64 `json:"cold_accuracy"`
	WarmAccuracy float64 `json:"warm_accuracy"`
	// AnswerMismatches counts warm answers that differ from their cold
	// counterpart (must be zero: caching is semantics-preserving).
	AnswerMismatches int `json:"answer_mismatches"`

	// Headline warm-pass hit rates (also present in WarmLayers).
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
	LLMCacheHitRate  float64 `json:"llm_cache_hit_rate"`

	// WarmCachedLLMCalls counts model invocations the warm pass answered
	// from the response cache; WarmPlanCacheHits counts queries whose
	// optimization was served whole from the plan cache.
	WarmCachedLLMCalls int `json:"warm_cached_llm_calls"`
	WarmPlanCacheHits  int `json:"warm_plan_cache_hits"`

	// ColdLayers and WarmLayers map every layer registered on the shared
	// cache to its traffic during the cold and the warm pass. The warm
	// pass alone hides most layers (the plan cache short-circuits
	// everything beneath it), so a layer is judged on both.
	ColdLayers map[string]LayerRate `json:"cold_layers"`
	WarmLayers map[string]LayerRate `json:"warm_layers"`
}

// MarshalJSON renders the latencies in seconds alongside the counters.
func (r CacheBenchResult) MarshalJSON() ([]byte, error) {
	type alias CacheBenchResult // shed the method to avoid recursion
	return json.Marshal(struct {
		alias
		UncachedLatencySecs float64 `json:"uncached_cold_latency_secs"`
		ColdLatencySecs     float64 `json:"cold_latency_secs"`
		WarmLatencySecs     float64 `json:"warm_latency_secs"`
	}{
		alias:               alias(r),
		UncachedLatencySecs: r.UncachedLatency.Seconds(),
		ColdLatencySecs:     r.ColdLatency.Seconds(),
		WarmLatencySecs:     r.WarmLatency.Seconds(),
	})
}

// runPass executes the batch once, returning total simulated latency,
// accuracy, answers, and cache-usage tallies.
func runPass(ctx context.Context, sys *unify.System, queries []workload.Query) (total time.Duration, acc float64, answers []string, cachedCalls, planHits int, err error) {
	all, err := driveAll(ctx, sys, queries, 1)
	if err != nil {
		return 0, 0, nil, 0, 0, err
	}
	correct := 0
	answers = make([]string, len(queries))
	for i, ans := range all {
		answers[i] = ans.Text
		total += ans.TotalDur
		cachedCalls += ans.CachedLLMCalls
		if ans.PlanCacheHit {
			planHits++
		}
		if workload.Score(queries[i], ans.Text) {
			correct++
		}
	}
	if len(queries) > 0 {
		acc = float64(correct) / float64(len(queries))
	}
	return total, acc, answers, cachedCalls, planHits, nil
}

// RunCacheBench measures what the shared cache hierarchy buys on a
// repeated workload: one batch of queries runs cold and then again warm
// against the same system, and an uncached control system runs the same
// batch to verify the cold path costs no more than the pre-cache system.
// Uses the first configured dataset (default: the first corpus).
func RunCacheBench(ctx context.Context, cfg Config) (*CacheBenchResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	res := &CacheBenchResult{Dataset: name, Queries: len(queries)}

	// Control: the same batch with caching disabled (CacheBytes < 0) —
	// the seed system's behavior, against which cold latency must hold.
	unc, err := openSystem(ds, unify.WithCacheBytes(-1))
	if err != nil {
		return nil, err
	}
	uncLat, _, uncAnswers, _, _, err := runPass(ctx, unc, queries)
	if err != nil {
		return nil, err
	}
	res.UncachedLatency = uncLat

	sys, err := openSystem(ds)
	if err != nil {
		return nil, err
	}
	coldLat, coldAcc, coldAnswers, _, _, err := runPass(ctx, sys, queries)
	if err != nil {
		return nil, err
	}
	res.ColdLatency, res.ColdAccuracy = coldLat, coldAcc
	before := sys.CacheStats()

	warmLat, warmAcc, warmAnswers, cachedCalls, planHits, err := runPass(ctx, sys, queries)
	if err != nil {
		return nil, err
	}
	res.WarmLatency, res.WarmAccuracy = warmLat, warmAcc
	res.WarmCachedLLMCalls = cachedCalls
	res.WarmPlanCacheHits = planHits
	if warmLat > 0 {
		res.Speedup = float64(coldLat) / float64(warmLat)
	}
	for i := range coldAnswers {
		if warmAnswers[i] != coldAnswers[i] || coldAnswers[i] != uncAnswers[i] {
			res.AnswerMismatches++
		}
	}

	// Per-layer traffic: the cold pass is everything up to the snapshot
	// (SCE training at open included), the warm pass the delta after it.
	res.ColdLayers = map[string]LayerRate{}
	res.WarmLayers = map[string]LayerRate{}
	var dead []string
	for layer, after := range sys.CacheStats() {
		cold := before[layer]
		warm := after.Sub(cold)
		res.ColdLayers[layer] = LayerRate{Hits: cold.Hits, Misses: cold.Misses, HitRate: cold.HitRate()}
		res.WarmLayers[layer] = LayerRate{Hits: warm.Hits, Misses: warm.Misses, HitRate: warm.HitRate()}
		if after.Hits == 0 {
			dead = append(dead, layer)
		}
	}
	res.PlanCacheHitRate = res.WarmLayers["plan"].HitRate
	res.LLMCacheHitRate = res.WarmLayers["llm"].HitRate
	if len(dead) > 0 {
		// A layer that never hits over a repeated workload only costs
		// memory and a key scheme: fail instead of publishing it.
		sort.Strings(dead)
		return nil, fmt.Errorf("cache layers with zero hits over cold+warm: %v", dead)
	}
	return res, nil
}

// PrintCacheBench renders the repeated-workload report.
func PrintCacheBench(w io.Writer, r *CacheBenchResult) {
	fmt.Fprintf(w, "Repeated workload — %s, %d queries\n", r.Dataset, r.Queries)
	fmt.Fprintf(w, "  %-22s %10.2fs\n", "uncached (control)", r.UncachedLatency.Seconds())
	fmt.Fprintf(w, "  %-22s %10.2fs  accuracy %.2f\n", "cold pass", r.ColdLatency.Seconds(), r.ColdAccuracy)
	fmt.Fprintf(w, "  %-22s %10.2fs  accuracy %.2f\n", "warm pass", r.WarmLatency.Seconds(), r.WarmAccuracy)
	fmt.Fprintf(w, "  %-22s %9.1fx\n", "warm speedup", r.Speedup)
	fmt.Fprintf(w, "  %-22s %10d\n", "cached LLM calls", r.WarmCachedLLMCalls)
	fmt.Fprintf(w, "  %-22s %10d\n", "plan-cache hits", r.WarmPlanCacheHits)
	layers := make([]string, 0, len(r.WarmLayers))
	for layer := range r.WarmLayers {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		cold, warm := r.ColdLayers[layer], r.WarmLayers[layer]
		fmt.Fprintf(w, "  layer %-12s cold %d hits / %d misses, warm %d hits / %d misses (hit rate %.2f)\n",
			layer, cold.Hits, cold.Misses, warm.Hits, warm.Misses, warm.HitRate)
	}
	if r.AnswerMismatches > 0 {
		fmt.Fprintf(w, "  WARNING: %d warm answers diverged from cold\n", r.AnswerMismatches)
	}
}
