package unify

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/workload"
)

// scrape renders the system's exposition once and returns its sample
// lines as series ("name" or `name{label="value"}`) → value.
func scrape(t *testing.T, sys *System) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	sys.Metrics.Reg.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// wantSeries asserts one scraped series: present with the given value, or
// absent when the owner has counted nothing (want == 0 && !always).
func wantSeries(t *testing.T, got map[string]float64, series string, want float64, always bool) {
	t.Helper()
	v, ok := got[series]
	switch {
	case want == 0 && !always:
		if ok {
			t.Errorf("%s = %v, want no series (its owner counted nothing)", series, v)
		}
	case !ok:
		t.Errorf("%s missing, want %v", series, want)
	case v != want:
		t.Errorf("%s = %v, want %v (its owner's value)", series, v, want)
	}
}

// TestGaugesReadTheirOwnersAtRest runs the seed workload, then checks from
// one scrape of the idle system that every metric another component owns
// carries that component's value — the pool is empty, the cache, trace
// store, models and profiler read as they answer for themselves — and
// that work which never passes through System.Query's accounting tail
// still shows, because nothing on the query path copies these numbers.
func TestGaugesReadTheirOwnersAtRest(t *testing.T) {
	sys := openCluster(t, 1)
	runClusterWorkload(t, sys)

	check := func(got map[string]float64) {
		t.Helper()
		wantSeries(t, got, "unify_pool_active_queries", 0, true)
		wantSeries(t, got, "unify_pool_utilization", sys.Pool.Stats().Utilization, true)
		for layer, st := range sys.CacheStats() {
			l := fmt.Sprintf(`{layer=%q}`, layer)
			wantSeries(t, got, "unify_cache_hits_total"+l, float64(st.Hits), false)
			wantSeries(t, got, "unify_cache_misses_total"+l, float64(st.Misses), false)
			wantSeries(t, got, "unify_cache_evictions_total"+l, float64(st.Evictions), false)
			wantSeries(t, got, "unify_cache_coalesced_total"+l, float64(st.Coalesced), false)
		}
		wantSeries(t, got, "unify_cache_bytes", float64(sys.Cache.Bytes()), true)
		wantSeries(t, got, "unify_cache_entries", float64(sys.Cache.Len()), true)
		wantSeries(t, got, "unify_traces_stored", float64(sys.Traces.Len()), true)
		wantSeries(t, got, "unify_traces_evicted_total", float64(sys.Traces.Evicted()), true)
		for _, cli := range []llm.Client{sys.PlannerClient, sys.WorkerClient} {
			sim := llm.SimOf(cli)
			calls, _ := sim.Stats()
			wantSeries(t, got, fmt.Sprintf(`unify_sim_calls{model=%q}`, sim.Profile().Name), float64(calls), true)
		}
		prof := sys.Profiler.Snapshot()
		if len(prof.Classes) == 0 {
			t.Fatal("profiler recorded no operator class")
		}
		for class, c := range prof.Classes {
			for name, want := range map[string]float64{
				"unify_op_executions_total":               float64(c.Executions),
				"unify_op_llm_calls_total":                float64(c.LLMCalls),
				"unify_op_cached_calls_total":             float64(c.CachedCalls),
				"unify_op_in_tokens_total":                float64(c.InTokens),
				"unify_op_out_tokens_total":               float64(c.OutTokens),
				"unify_op_skipped_docs_total":             float64(c.SkippedDocs),
				"unify_op_retries_total":                  float64(c.Retries),
				"unify_op_busy_vtime_seconds_total":       c.BusySecs,
				"unify_op_vtime_share_seconds_total":      c.ShareSecs,
				"unify_op_grant_wait_vtime_seconds_total": c.GrantWaitSecs,
			} {
				wantSeries(t, got, fmt.Sprintf(`%s{op=%q}`, name, class), want, true)
			}
		}
	}
	check(scrape(t, sys))

	// A caller that drives the phases itself — plan, then run the plan on
	// the executor — makes model calls and fills the cache without ever
	// reaching account().
	simCalls := func() int {
		planner, _ := llm.SimOf(sys.PlannerClient).Stats()
		worker, _ := llm.SimOf(sys.WorkerClient).Stats()
		return planner + worker
	}
	entries, calls := sys.Cache.Len(), simCalls()
	ctx := context.Background()
	q := workload.Generate(sys.Dataset, 1, 1)[7].Text
	plan, _, err := sys.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Executor.Run(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if simCalls() == calls || sys.Cache.Len() == entries {
		t.Fatalf("bypass query moved nothing: model calls %d → %d, cache entries %d → %d",
			calls, simCalls(), entries, sys.Cache.Len())
	}
	check(scrape(t, sys))
}

// TestIngestVisibleWithViewsOff: a system without views still reports what
// it ingested and the corpus generation that produced.
func TestIngestVisibleWithViewsOff(t *testing.T) {
	sys, err := New(WithDataset("sports"), WithSize(200))
	if err != nil {
		t.Fatal(err)
	}
	old, _ := sys.Store.Doc(3)
	old.Text += " It was later moved to the tennis board."
	fresh := docstore.Document{ID: sys.Store.Len() + 1000, Title: "New question", Text: "A question about golf."}
	res, err := sys.Ingest([]docstore.Document{fresh}, []docstore.Document{old})
	if err != nil {
		t.Fatal(err)
	}
	got := scrape(t, sys)
	wantSeries(t, got, `unify_ingest_docs_total{kind="added"}`, 1, true)
	wantSeries(t, got, `unify_ingest_docs_total{kind="updated"}`, 1, true)
	wantSeries(t, got, "unify_corpus_generation", float64(res.Generation), true)
	if res.Generation == 0 {
		t.Error("ingest left the corpus generation at 0")
	}
}

// TestMetricInventory pins which metric names each configuration
// registers, and in which order, to testdata/metric_names.txt, so a metric
// appearing, vanishing or moving in the exposition is an explicit diff.
// The golden was generated at the parent of the commit that made /metrics
// read its owners at scrape time; only unify_ingest_docs_total and
// unify_corpus_generation on the views-off systems differ from it.
// Regenerate with UPDATE_GOLDENS=1 go test -run MetricInventory.
func TestMetricInventory(t *testing.T) {
	configs := []struct {
		name string
		opt  []Option
	}{
		{"default", nil},
		{"views", []Option{WithViews()}},
		{"batching", []Option{WithBatching()}},
		{"machines4", []Option{WithMachines(4)}},
	}
	var b strings.Builder
	for _, c := range configs {
		sys, err := New(append([]Option{WithDataset("sports"), WithSize(50)}, c.opt...)...)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("# " + c.name + "\n")
		for _, n := range sys.Metrics.Reg.Names() {
			b.WriteString(n + "\n")
		}
	}
	const golden = "testdata/metric_names.txt"
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("metric inventory diverged from %s:\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
	}
}
