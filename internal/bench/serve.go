package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"unify"
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

	// Utilization is the pool's aggregate slot utilization over the
	// level's full virtual span (busy / (span * slots), structurally <= 1).
	Utilization float64 `json:"utilization"`
	// WindowSecs is the virtual span the pool scheduled over and
	// QueriesPerVSec the virtual-time throughput.
	WindowSecs     float64 `json:"window_secs"`
	QueriesPerVSec float64 `json:"queries_per_vsec"`
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
	ds, queries, err := cfg.load(name)
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
		pt, err := serveLevel(ctx, sys, queries, c)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// serveLevel drives the query batch through c concurrent workers.
func serveLevel(ctx context.Context, sys *unify.System, queries []workload.Query, c int) (ServePoint, error) {
	return serveLevelCapture(ctx, sys, queries, c, nil)
}

// serveLevelCapture is serveLevel with an optional answer-text sink
// (len(queries) slots) for byte-identity comparisons across runs.
func serveLevelCapture(ctx context.Context, sys *unify.System, queries []workload.Query, c int, texts []string) (ServePoint, error) {
	pt := ServePoint{Concurrency: c, Queries: len(queries)}
	type outcome struct {
		ans *unify.Answer
		err error
	}
	results := make([]outcome, len(queries))
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range queries {
			next <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ans, err := sys.Query(ctx, queries[i].Text)
				results[i] = outcome{ans, err}
			}
		}()
	}
	wg.Wait()

	var lats []time.Duration
	var totalLat, totalWait time.Duration
	var slowdown float64
	for i, oc := range results {
		if oc.err != nil {
			pt.Errors++
			continue
		}
		a := oc.ans
		if texts != nil {
			texts[i] = a.Text
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
		return pt, fmt.Errorf("bench: all %d queries failed at concurrency %d", len(queries), c)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50Secs = lats[n/2].Seconds()
	pt.P95Secs = lats[min(n-1, n*95/100)].Seconds()
	pt.MeanSecs = totalLat.Seconds() / float64(n)
	pt.MeanGrantWaitSecs = totalWait.Seconds() / float64(n)
	pt.MeanSlowdown = slowdown / float64(n)

	// Utilization comes from the pool's own accounting: the scheduler's
	// slot busy time over the virtual span it actually scheduled across.
	ps := sys.Pool.Stats()
	pt.Utilization = ps.CumUtilization
	if ps.SpanVTime > 0 {
		pt.WindowSecs = ps.SpanVTime.Seconds()
		pt.QueriesPerVSec = float64(n) / ps.SpanVTime.Seconds()
	}
	return pt, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
