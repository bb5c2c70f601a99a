package bench

import (
	"context"
	"fmt"
	"io"

	"unify"
	"unify/internal/sched"
	"unify/internal/workload"
)

// BatchPoint is one offered-concurrency level of the continuous-batching
// experiment: the same query batch driven with batching off and on.
type BatchPoint struct {
	Concurrency int `json:"concurrency"`
	Queries     int `json:"queries"`

	// Virtual-time throughput at this level, batching off vs on, and the
	// resulting improvement ratio (on / off).
	OffQueriesPerVSec float64 `json:"off_queries_per_vsec"`
	OnQueriesPerVSec  float64 `json:"on_queries_per_vsec"`
	Improvement       float64 `json:"improvement"`

	// Mean latency per query (virtual seconds), off vs on.
	OffMeanSecs float64 `json:"off_mean_secs"`
	OnMeanSecs  float64 `json:"on_mean_secs"`

	// Slot utilization over the measured span, off vs on. Coalescing
	// reduces slot demand (k chains ride one grant), so the on-side
	// utilization shows whether the offered concurrency kept the pool
	// saturated after batching freed capacity.
	OffUtilization float64 `json:"off_utilization"`
	OnUtilization  float64 `json:"on_utilization"`

	// BatchOccupancy is the mean members per batchable slot grant in the
	// batching-on run (1.0 = no coalescing ever happened); BatchedCalls
	// counts calls that rode multi-member invocations; SavedVTimeSecs is
	// the slot busy time coalescing eliminated.
	BatchOccupancy float64 `json:"batch_occupancy"`
	BatchedCalls   int64   `json:"batched_calls"`
	MaxBatchSize   int     `json:"max_batch_size"`
	SavedVTimeSecs float64 `json:"saved_vtime_secs"`

	// AnswersIdentical reports that the off and on runs produced
	// byte-identical answer text for every query. The run fails if false.
	AnswersIdentical bool `json:"answers_identical"`
}

// BatchResult is the continuous-batching benchmark report.
type BatchResult struct {
	Dataset      string       `json:"dataset"`
	Slots        int          `json:"slots"`
	Queries      int          `json:"queries"`
	WindowSecs   float64      `json:"window_secs"`
	FairnessSecs float64      `json:"fairness_cap_secs"`
	MaxBatch     int          `json:"max_batch"`
	Points       []BatchPoint `json:"points"`
}

// BatchLevels is the batching sweep: the saturated end of the serving
// sweep, where cross-query coalescing has partners to find.
var BatchLevels = []int{8, 16}

// RunBatchBench drives the workload at saturating concurrency twice per
// level — batching off, then on — on fresh systems with the cache
// disabled. It fails if any answer text differs between the two runs:
// batching must move virtual time only, never results.
//
// Each system first runs the workload once sequentially and then freezes
// its cost calibrator. Without the freeze, concurrent queries feed the
// shared calibrator in racy wall-clock completion order, and a
// knife-edge query can flip between equally-good plans from run to run —
// noise that has nothing to do with batching but would trip the
// byte-identity check. The warmup pass is identical on both sides (call
// durations are schedule-independent), so both sides freeze on the same
// statistics and plan choice becomes a pure function of query text.
func RunBatchBench(ctx context.Context, cfg Config) (*BatchResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{
		Dataset:      name,
		Queries:      len(queries),
		WindowSecs:   unify.DefaultBatchWindow.Seconds(),
		FairnessSecs: unify.DefaultBatchFairnessCap.Seconds(),
		MaxBatch:     unify.DefaultMaxBatch,
	}

	for _, c := range BatchLevels {
		off, err := openSystem(ds, unify.WithCacheBytes(-1))
		if err != nil {
			return nil, err
		}
		res.Slots = off.Config.Slots
		offPt, offAns, _, err := batchLevel(ctx, off, queries, c)
		if err != nil {
			return nil, err
		}
		on, err := openSystem(ds, unify.WithCacheBytes(-1), unify.WithBatching())
		if err != nil {
			return nil, err
		}
		onPt, onAns, onWarm, err := batchLevel(ctx, on, queries, c)
		if err != nil {
			return nil, err
		}

		pt := BatchPoint{
			Concurrency:       c,
			Queries:           len(queries),
			OffQueriesPerVSec: offPt.QueriesPerVSec,
			OnQueriesPerVSec:  onPt.QueriesPerVSec,
			OffMeanSecs:       offPt.MeanSecs,
			OnMeanSecs:        onPt.MeanSecs,
			OffUtilization:    offPt.Utilization,
			OnUtilization:     onPt.Utilization,
			AnswersIdentical:  true,
		}
		if pt.OffQueriesPerVSec > 0 {
			pt.Improvement = pt.OnQueriesPerVSec / pt.OffQueriesPerVSec
		}
		// Batch counters cover the pool's lifetime; subtract the sequential
		// warmup pass (all singleton grants) so the point reports the
		// measured concurrent run only.
		ps := on.Pool.Stats()
		grants := ps.BatchGrants - onWarm.BatchGrants
		units := ps.BatchedUnits - onWarm.BatchedUnits
		if grants > 0 {
			pt.BatchOccupancy = float64(units) / float64(grants)
		}
		pt.BatchedCalls = units
		pt.MaxBatchSize = ps.MaxBatchSize
		pt.SavedVTimeSecs = (ps.BatchSavedVTime - onWarm.BatchSavedVTime).Seconds()

		for i := range offAns {
			if offText, onText := answerText(offAns[i]), answerText(onAns[i]); offText != onText {
				return nil, fmt.Errorf("bench: answer %d diverged under batching at concurrency %d:\n  off: %s\n  on:  %s",
					i, c, offText, onText)
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// batchLevel warms the system with one sequential pass, freezes the cost
// model, then reuses the serving driver for the measured concurrent run
// — throughput and utilization over the measured span only, not the pool
// lifetime that includes the warmup pass — and returns every answer for
// the off/on byte-identity comparison. The returned Stats snapshot is
// the pool state at the measurement boundary, for delta-correcting
// lifetime counters.
func batchLevel(ctx context.Context, sys *unify.System, queries []workload.Query, c int) (ServePoint, []*unify.Answer, sched.Stats, error) {
	if _, err := driveAll(ctx, sys, queries, 1); err != nil {
		return ServePoint{}, nil, sched.Stats{}, fmt.Errorf("bench: warmup %w", err)
	}
	sys.Calib.Freeze()
	warm := sys.Pool.Stats()
	pt, answers, err := serveLevel(ctx, sys, queries, c, warm)
	return pt, answers, warm, err
}

// answerText is an answer's text, "" for a query that failed.
func answerText(a *unify.Answer) string {
	if a == nil {
		return ""
	}
	return a.Text
}

// PrintBatchBench renders the batching sweep.
func PrintBatchBench(w io.Writer, r *BatchResult) {
	fmt.Fprintf(w, "Continuous batching sweep — %s, %d queries per level, %d slots, window %.2fs cap %.1fs max %d\n",
		r.Dataset, r.Queries, r.Slots, r.WindowSecs, r.FairnessSecs, r.MaxBatch)
	fmt.Fprintf(w, "  %5s %12s %12s %8s %9s %9s %10s %9s %7s %9s\n",
		"conc", "off q/vsec", "on q/vsec", "speedup", "off-util", "on-util", "occupancy", "batched", "maxsz", "saved")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %5d %12.3f %12.3f %7.2fx %9.2f %9.2f %10.2f %9d %7d %8.1fs\n",
			p.Concurrency, p.OffQueriesPerVSec, p.OnQueriesPerVSec, p.Improvement,
			p.OffUtilization, p.OnUtilization, p.BatchOccupancy, p.BatchedCalls, p.MaxBatchSize, p.SavedVTimeSecs)
	}
}
