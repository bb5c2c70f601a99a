package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"unify"
	"unify/internal/sched"
	"unify/internal/workload"
)

// ServePoint is one offered-concurrency level of the serving benchmark.
type ServePoint struct {
	// Concurrency is the number of client workers driving the system.
	Concurrency int `json:"concurrency"`
	Queries     int `json:"queries"`
	Errors      int `json:"errors,omitempty"`

	// Latency distribution of simulated end-to-end query time.
	P50Secs  float64 `json:"p50_secs"`
	P95Secs  float64 `json:"p95_secs"`
	MeanSecs float64 `json:"mean_secs"`

	// MeanGrantWaitSecs is the average simulated wait for slot grants.
	MeanGrantWaitSecs float64 `json:"mean_grant_wait_secs"`
	// MeanSlowdown is the average ExecDur / SoloExecDur ratio: 1.0 when
	// nothing contends, growing with queueing on the shared pool.
	MeanSlowdown float64 `json:"mean_slowdown"`
	// Contended counts queries that shared slots with others.
	Contended int `json:"contended"`

	// PoolWindow is the pool's accounting over the level's virtual span.
	PoolWindow
}

// ServeResult is the serving benchmark report: the same query batch
// driven at increasing offered concurrency against the 4-slot machine.
type ServeResult struct {
	Dataset string       `json:"dataset"`
	Slots   int          `json:"slots"`
	Queries int          `json:"queries"`
	Points  []ServePoint `json:"points"`
}

// ServeLevels is the default offered-concurrency sweep.
var ServeLevels = []int{1, 2, 4, 8, 16}

// RunServeBench sweeps offered concurrency over the first configured
// dataset. Each level gets a fresh system (fresh virtual clock and slot
// pool) with the response cache disabled, so every level schedules the
// same honest slot work and differences come purely from contention.
func RunServeBench(ctx context.Context, cfg Config) (*ServeResult, error) {
	cfg.defaults()
	name := cfg.Datasets[0]
	ds, queries, err := cfg.load(name, nil)
	if err != nil {
		return nil, err
	}
	res := &ServeResult{Dataset: name, Queries: len(queries)}

	for _, c := range ServeLevels {
		sys, err := openSystem(ds, unify.WithCacheBytes(-1))
		if err != nil {
			return nil, err
		}
		res.Slots = sys.Config.Slots
		pt, _, err := serveLevel(ctx, sys, queries, c, sched.Stats{})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// serveLevel drives the query batch at concurrency c on a system whose
// pool stood at before (the zero Stats on a fresh system) and summarizes
// the answers it returns (nil where a query failed).
func serveLevel(ctx context.Context, sys *unify.System, queries []workload.Query, c int, before sched.Stats) (ServePoint, []*unify.Answer, error) {
	pt := ServePoint{Concurrency: c, Queries: len(queries)}
	answers, errs := drive(ctx, sys, queries, c)

	var lats []time.Duration
	var totalLat, totalWait time.Duration
	var slowdown float64
	for i, a := range answers {
		if errs[i] != nil {
			pt.Errors++
			continue
		}
		lats = append(lats, a.TotalDur)
		totalLat += a.TotalDur
		totalWait += a.SlotGrantWait
		if a.SoloExecDur > 0 {
			slowdown += float64(a.ExecDur) / float64(a.SoloExecDur)
		} else {
			slowdown += 1
		}
		if a.Contended {
			pt.Contended++
		}
	}
	n := len(lats)
	if n == 0 {
		return pt, nil, fmt.Errorf("bench: all %d queries failed at concurrency %d", len(queries), c)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50Secs = lats[n/2].Seconds()
	pt.P95Secs = lats[min(n-1, n*95/100)].Seconds()
	pt.MeanSecs = totalLat.Seconds() / float64(n)
	pt.MeanGrantWaitSecs = totalWait.Seconds() / float64(n)
	pt.MeanSlowdown = slowdown / float64(n)
	pt.PoolWindow = poolWindow(sys, before, n)
	return pt, answers, nil
}

// PrintServeBench renders the serving sweep.
func PrintServeBench(w io.Writer, r *ServeResult) {
	fmt.Fprintf(w, "Serving sweep — %s, %d queries per level, %d slots\n", r.Dataset, r.Queries, r.Slots)
	fmt.Fprintf(w, "  %5s %9s %9s %9s %11s %9s %6s %9s\n",
		"conc", "p50", "p95", "mean", "grant-wait", "slowdown", "util", "q/vsec")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %5d %8.1fs %8.1fs %8.1fs %10.1fs %8.2fx %6.2f %9.3f\n",
			p.Concurrency, p.P50Secs, p.P95Secs, p.MeanSecs,
			p.MeanGrantWaitSecs, p.MeanSlowdown, p.Utilization, p.QueriesPerVSec)
	}
}
