package obs

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	c.Inc()
	r.Gauge("g", "help").Set(3)
	r.Histogram("h", "help", nil).Observe(1)
	if r.Value("x_total", "") != 0 || r.Total("x_total") != 0 {
		t.Error("nil registry reported values")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Error("nil registry rendered output")
	}
	if len(r.Snapshot()) != 0 || r.Names() != nil {
		t.Error("nil registry snapshot non-empty")
	}
	// A bundle over no registry holds nil handles: recording is a no-op.
	m := &Metrics{}
	m.RecordQueryOK("q-1", time.Second, time.Second, time.Second)
	m.RecordQueryFailed()
	m.RecordCall("t", 1, 2)
	m.RecordSlots(time.Second, time.Second, 4)
}

// promLine matches the sample lines of the text exposition format:
// name{label="value"} 123 or name 1.5
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [0-9.eE+-]+(Inf|NaN)?$`)

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	q := r.CounterVec("unify_queries_total", "Queries processed.", "status")
	q.IncL("ok")
	q.IncL("ok")
	q.IncL("error")
	r.Gauge("unify_slot_utilization", "Utilization.").Set(0.75)
	h := r.Histogram("unify_query_vtime_seconds", "Latency.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	var samples, help, typ int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			help++
		case strings.HasPrefix(line, "# TYPE"):
			typ++
		default:
			samples++
			if !promLine.MatchString(line) {
				t.Errorf("invalid exposition line: %q", line)
			}
		}
	}
	if help != 3 || typ != 3 {
		t.Errorf("help=%d type=%d, want 3 each", help, typ)
	}
	for _, want := range []string{
		`unify_queries_total{status="ok"} 2`,
		`unify_queries_total{status="error"} 1`,
		`unify_slot_utilization 0.75`,
		`unify_query_vtime_seconds_bucket{le="1"} 1`,
		`unify_query_vtime_seconds_bucket{le="10"} 2`,
		`unify_query_vtime_seconds_bucket{le="+Inf"} 3`,
		`unify_query_vtime_seconds_sum 55.5`,
		`unify_query_vtime_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryValueAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("calls_total", "calls", "task")
	c.AddL("filter", 4)
	c.AddL("rerank", 2)
	if got := r.Value("calls_total", "filter"); got != 4 {
		t.Errorf("Value = %v", got)
	}
	if got := r.Total("calls_total"); got != 6 {
		t.Errorf("Total = %v", got)
	}
	// Negative counter increments are dropped.
	c.AddL("filter", -5)
	if got := r.Value("calls_total", "filter"); got != 4 {
		t.Errorf("counter went down: %v", got)
	}
	snap := r.Snapshot()
	vals, ok := snap["calls_total"].(map[string]float64)
	if !ok || vals["rerank"] != 2 {
		t.Errorf("snapshot = %#v", snap)
	}
	if vs := r.LabelValues("calls_total"); len(vs) != 2 || vs[0] != "filter" {
		t.Errorf("label values = %v", vs)
	}
	// Re-registration returns the same underlying metric.
	c2 := r.CounterVec("calls_total", "calls", "task")
	c2.IncL("filter")
	if got := r.Value("calls_total", "filter"); got != 5 {
		t.Errorf("re-registered counter detached: %v", got)
	}
}

func TestMetricsBundleConcurrent(t *testing.T) {
	m := NewMetrics(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.RecordCall("filter_batch", 10, 5)
				m.RecordQueryOK("q-1", 2*time.Second, time.Second, time.Second)
				m.RecordSlots(3*time.Second, time.Second, 4)
			}
		}()
	}
	wg.Wait()
	if got := m.Reg.Value("unify_llm_calls_total", "filter_batch"); got != 1600 {
		t.Errorf("llm calls = %v", got)
	}
	if got := m.Reg.Value("unify_queries_total", "ok"); got != 1600 {
		t.Errorf("queries = %v", got)
	}
	if got := m.Reg.Value("unify_slot_utilization", ""); got != 0.75 {
		t.Errorf("utilization = %v", got)
	}
}

// TestFuncMetricReadsItsOwner covers the read-time mechanism: a metric
// registered with Func has no series of its own — every read path asks the
// function, so the value tracks its owner and all paths agree.
func TestFuncMetricReadsItsOwner(t *testing.T) {
	r := NewRegistry()
	owner := map[string]float64{"zeta": 3, "alpha": 1, "mid": 2}
	var mu sync.Mutex
	r.Func("owned_total", "Owned elsewhere.", TypeCounter, "layer", func(emit func(string, float64)) {
		mu.Lock()
		defer mu.Unlock()
		for k, v := range owner {
			emit(k, v)
		}
	})
	r.Func("owned_size", "Owned elsewhere.", TypeGauge, "", func(emit func(string, float64)) {
		mu.Lock()
		defer mu.Unlock()
		emit("", float64(len(owner)))
	})
	r.Func("owned_idle_total", "Counted nothing yet.", TypeCounter, "kind", func(func(string, float64)) {})
	r.Counter("pushed_total", "Pushed.").Add(7)

	render := func() string {
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	want := `# HELP owned_total Owned elsewhere.
# TYPE owned_total counter
owned_total{layer="alpha"} 1
owned_total{layer="mid"} 2
owned_total{layer="zeta"} 3
# HELP owned_size Owned elsewhere.
# TYPE owned_size gauge
owned_size 3
# HELP owned_idle_total Counted nothing yet.
# TYPE owned_idle_total counter
# HELP pushed_total Pushed.
# TYPE pushed_total counter
pushed_total 7
`
	if got := render(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}

	// Value, Total and LabelValues go through the same read.
	if got := r.Value("owned_total", "mid"); got != 2 {
		t.Errorf("Value(mid) = %v, want 2", got)
	}
	if got := r.Value("owned_total", "absent"); got != 0 {
		t.Errorf("Value(absent) = %v, want 0", got)
	}
	if got := r.Total("owned_total"); got != 6 {
		t.Errorf("Total = %v, want 6", got)
	}
	if got := r.Value("owned_size", ""); got != 3 {
		t.Errorf("Value(owned_size) = %v, want 3", got)
	}
	if got := strings.Join(r.LabelValues("owned_total"), ","); got != "alpha,mid,zeta" {
		t.Errorf("LabelValues = %s", got)
	}
	if got := r.LabelValues("owned_idle_total"); len(got) != 0 {
		t.Errorf("LabelValues of a silent function = %v", got)
	}

	// Snapshot is a read: same numbers, and it leaves no series behind.
	snap := r.Snapshot()
	if vals, ok := snap["owned_total"].(map[string]float64); !ok || len(vals) != 3 || vals["zeta"] != 3 {
		t.Errorf("snapshot owned_total = %#v", snap["owned_total"])
	}
	if v, ok := snap["owned_size"].(float64); !ok || v != 3 {
		t.Errorf("snapshot owned_size = %#v", snap["owned_size"])
	}
	if vals, ok := snap["owned_idle_total"].(map[string]float64); !ok || len(vals) != 0 {
		t.Errorf("snapshot owned_idle_total = %#v", snap["owned_idle_total"])
	}
	if got := render(); got != want {
		t.Errorf("exposition changed after Snapshot/Value/Total:\n%s", got)
	}

	// The registry kept no copy: the next read sees the owner's new state.
	mu.Lock()
	delete(owner, "mid")
	owner["alpha"] = 10
	mu.Unlock()
	if got := r.Total("owned_total"); got != 13 {
		t.Errorf("Total after the owner moved = %v, want 13", got)
	}
	if !strings.Contains(render(), "owned_total{layer=\"alpha\"} 10\nowned_total{layer=\"zeta\"} 3\n# HELP owned_size") {
		t.Errorf("exposition after the owner moved:\n%s", render())
	}

	// First registration wins, as for pushed metrics; nil registries no-op.
	r.Func("owned_size", "again", TypeGauge, "", func(emit func(string, float64)) { emit("", -1) })
	if got := r.Value("owned_size", ""); got != 2 {
		t.Errorf("re-registered Func replaced the first: %v", got)
	}
	var none *Registry
	none.Func("x", "help", TypeGauge, "", func(emit func(string, float64)) { emit("", 1) })
}

// TestFuncMetricReadRunsUnlocked: the read function runs with no registry
// lock held, so an owner may hold its own lock across a registry update on
// another goroutine (owner lock, then nothing; registry, then owner).
func TestFuncMetricReadRunsUnlocked(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pushed_total", "Pushed.")
	entered, release := make(chan struct{}), make(chan struct{})
	r.Func("slow_owner", "Blocks inside its owner.", TypeGauge, "", func(emit func(string, float64)) {
		close(entered)
		<-release
		emit("", 1)
	})
	done := make(chan string)
	go func() {
		var b strings.Builder
		r.WritePrometheus(&b)
		done <- b.String()
	}()
	<-entered
	// While the scrape sits in the owner, pushes, registrations and other
	// reads all proceed.
	c.Inc()
	r.Gauge("late", "Registered mid-scrape.").Set(2)
	if got := r.Value("pushed_total", ""); got != 1 {
		t.Errorf("Value during a blocked scrape = %v", got)
	}
	close(release)
	if out := <-done; !strings.Contains(out, "slow_owner 1\n") {
		t.Errorf("blocked scrape rendered:\n%s", out)
	}
}
