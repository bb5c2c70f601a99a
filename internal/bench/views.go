package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"unify"
	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/views"
)

// ViewsIngestFrac is the fraction of the corpus ingested mid-benchmark:
// the system opens over the base corpus and then grows by 10%.
const ViewsIngestFrac = 0.10

// ViewsPhase is one pass of the workload over the views-enabled system,
// with the view-counter delta attributed to that pass alone.
type ViewsPhase struct {
	// Phase is "populate" (cold first sight: every column backfills),
	// "warm" (same workload re-issued against full columns), or
	// "post_ingest" (the re-run after growing the corpus 10%).
	Phase   string `json:"phase"`
	Queries int    `json:"queries"`

	MeanSecs float64 `json:"mean_secs"`
	LLMCalls int     `json:"llm_calls"`

	// View-counter deltas over this pass.
	ViewHits    int64   `json:"view_hits"`
	ViewMisses  int64   `json:"view_misses"`
	Backfills   int64   `json:"backfills"`
	Invalidated int64   `json:"invalidated"`
	HitRate     float64 `json:"hit_rate"`
}

// ViewsResult is the materialized-views benchmark report.
type ViewsResult struct {
	Dataset      string `json:"dataset"`
	BaseDocs     int    `json:"base_docs"`
	IngestedDocs int    `json:"ingested_docs"`
	TotalDocs    int    `json:"total_docs"`
	Generation   uint64 `json:"generation"`
	Queries      int    `json:"queries"`

	Phases []ViewsPhase `json:"phases"`

	// PostIngestHitRate is the view hit rate across every pass that runs
	// after the ingest (the acceptance figure: unchanged documents keep
	// their rows, so only the 10% of new documents miss, once).
	PostIngestHitRate float64 `json:"post_ingest_hit_rate"`

	// AnswersIdentical reports byte-identical answer text between the
	// warm views system post-ingest and a cold fresh system opened over
	// the mutated corpus. The run fails if false.
	AnswersIdentical bool `json:"answers_identical"`
}

// RunViewsBench measures what materialized semantic views buy across a
// corpus mutation. A views-enabled system opens over the base corpus,
// populates its columns on a cold workload pass, re-runs the workload
// warm, ingests 10% new documents, and re-runs the workload again —
// twice, the repeated-dashboard pattern views are designed for. Rows
// keyed by content hash survive the ingest for the 90% of unchanged
// documents, so the post-ingest hit rate must stay >= 0.9, and every
// post-ingest answer must be byte-identical to a cold run of the same
// workload on a fresh system opened over the mutated corpus.
func RunViewsBench(ctx context.Context, cfg Config) (*ViewsResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	base, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	size := len(base.Docs)
	added := int(float64(size)*ViewsIngestFrac + 0.5)
	if added == 0 {
		added = 1
	}
	full, err := corpus.GenerateN(name, size+added)
	if err != nil {
		return nil, err
	}

	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	syscfg := unify.Config{Dataset: name, Sim: &sim, Views: true}
	sys, err := unify.New(unify.WithConfig(syscfg), unify.WithCorpus(base))
	if err != nil {
		return nil, err
	}
	// Freeze the cost model on its priors so the cold reference system —
	// which sees only one workload pass — plans exactly like the views
	// system on its third.
	sys.Calib.Freeze()

	res := &ViewsResult{
		Dataset:      name,
		BaseDocs:     size,
		IngestedDocs: added,
		TotalDocs:    size + added,
		Queries:      len(queries),
	}

	runPass := func(phase string) ([]*unify.Answer, error) {
		before := sys.Views.Stats()
		answers, err := driveAll(ctx, sys, queries, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: %s pass, %w", phase, err)
		}
		var total time.Duration
		calls := 0
		for _, ans := range answers {
			total += ans.TotalDur
			calls += ans.LLMCalls
		}
		after := sys.Views.Stats()
		res.Phases = append(res.Phases, ViewsPhase{
			Phase:       phase,
			Queries:     len(queries),
			MeanSecs:    total.Seconds() / float64(len(queries)),
			LLMCalls:    calls,
			ViewHits:    after.Hits - before.Hits,
			ViewMisses:  after.Misses - before.Misses,
			Backfills:   after.Backfills - before.Backfills,
			Invalidated: after.Invalidated - before.Invalidated,
			HitRate:     deltaHitRate(before, after),
		})
		return answers, nil
	}

	if _, err := runPass("populate"); err != nil {
		return nil, err
	}
	if _, err := runPass("warm"); err != nil {
		return nil, err
	}

	preIngest := sys.Views.Stats()
	ing, err := sys.Ingest(full.Documents()[size:], nil)
	if err != nil {
		return nil, fmt.Errorf("bench: ingest: %w", err)
	}
	res.Generation = ing.Generation

	var post []*unify.Answer
	for _, phase := range []string{"post_ingest", "post_ingest_warm"} {
		if post, err = runPass(phase); err != nil {
			return nil, err
		}
	}
	final := sys.Views.Stats()
	res.PostIngestHitRate = deltaHitRate(preIngest, final)
	if res.PostIngestHitRate < 0.9 {
		return nil, fmt.Errorf("bench: post-ingest view hit rate %.3f, want >= 0.9 (%d hits, %d misses)",
			res.PostIngestHitRate, final.Hits-preIngest.Hits, final.Misses-preIngest.Misses)
	}

	// Cold reference: a fresh views-less system opened directly over the
	// mutated corpus must answer the same workload byte-identically.
	refcfg := syscfg
	refcfg.Views = false
	ref, err := unify.New(unify.WithConfig(refcfg), unify.WithCorpus(full))
	if err != nil {
		return nil, err
	}
	ref.Calib.Freeze()
	cold, err := driveAll(ctx, ref, queries, 1)
	if err != nil {
		return nil, fmt.Errorf("bench: cold reference, %w", err)
	}
	for i, q := range queries {
		if ans := cold[i]; ans.Text != post[i].Text {
			return nil, fmt.Errorf("bench: post-ingest answer diverged for %s:\n  views: %s\n  cold:  %s",
				q.ID, post[i].Text, ans.Text)
		}
	}
	res.AnswersIdentical = true
	return res, nil
}

// deltaHitRate is the hit rate of the reads between two snapshots.
func deltaHitRate(before, after views.Stats) float64 {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// PrintViewsBench renders the materialized-views report.
func PrintViewsBench(w io.Writer, r *ViewsResult) {
	fmt.Fprintf(w, "Materialized views across ingest — %s, %d base docs + %d ingested (generation %d), %d queries/pass\n",
		r.Dataset, r.BaseDocs, r.IngestedDocs, r.Generation, r.Queries)
	fmt.Fprintf(w, "  %-16s %8s %9s %9s %9s %10s %8s\n",
		"phase", "mean(s)", "llm calls", "hits", "misses", "backfills", "hit rate")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-16s %8.1f %9d %9d %9d %10d %8.2f\n",
			p.Phase, p.MeanSecs, p.LLMCalls, p.ViewHits, p.ViewMisses, p.Backfills, p.HitRate)
	}
	fmt.Fprintf(w, "  post-ingest hit rate: %.3f (answers byte-identical to a cold run on the mutated corpus: %v)\n",
		r.PostIngestHitRate, r.AnswersIdentical)
}
