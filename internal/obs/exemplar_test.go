package obs

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramExemplarTracksBucketMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{1, 10})
	h.ObserveEx(0.5, "q-1")
	h.ObserveEx(0.9, "q-2") // new max in le=1 bucket
	h.ObserveEx(0.2, "q-3") // smaller: must not displace q-2
	h.ObserveEx(5, "q-4")   // le=10 bucket
	h.ObserveEx(100, "q-5") // +Inf overflow slot

	id, val := r.MaxExemplar("lat_seconds")
	if id != "q-5" || val != 100 {
		t.Fatalf("max exemplar = %q/%v, want q-5/100", id, val)
	}

	snap := r.Snapshot()
	hist := snap["lat_seconds"].(map[string]interface{})
	ex := hist["exemplars"].(map[string]interface{})
	b1 := ex["le_1"].(map[string]interface{})
	if b1["request_id"] != "q-2" {
		t.Errorf("le_1 exemplar = %v, want q-2", b1["request_id"])
	}
	b10 := ex["le_10"].(map[string]interface{})
	if b10["request_id"] != "q-4" {
		t.Errorf("le_10 exemplar = %v, want q-4", b10["request_id"])
	}
	binf := ex["le_+Inf"].(map[string]interface{})
	if binf["request_id"] != "q-5" {
		t.Errorf("le_+Inf exemplar = %v, want q-5", binf["request_id"])
	}
}

func TestHistogramExemplarEmptyIDAndZeroValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{1})
	h.ObserveEx(0, "q-zero") // zero-valued sample must still take the slot
	if id, val := r.MaxExemplar("lat_seconds"); id != "q-zero" || val != 0 {
		t.Fatalf("zero-valued exemplar = %q/%v", id, val)
	}
	h.Observe(0.5) // plain Observe carries no id; must not displace q-zero's id with ""
	if id, _ := r.MaxExemplar("lat_seconds"); id != "q-zero" {
		t.Fatalf("empty-id observation displaced exemplar: %q", id)
	}
	h.ObserveEx(0.9, "q-big")
	if id, val := r.MaxExemplar("lat_seconds"); id != "q-big" || val != 0.9 {
		t.Fatalf("exemplar = %q/%v, want q-big/0.9", id, val)
	}
}

func TestMaxExemplarMissingMetric(t *testing.T) {
	r := NewRegistry()
	if id, val := r.MaxExemplar("nope"); id != "" || val != 0 {
		t.Errorf("missing metric exemplar = %q/%v", id, val)
	}
	var nilR *Registry
	if id, _ := nilR.MaxExemplar("nope"); id != "" {
		t.Error("nil registry exemplar non-empty")
	}
}

func TestInfoMetricExposition(t *testing.T) {
	r := NewRegistry()
	r.Info("unify_build_info", "Build info.", map[string]string{
		"version":   "0.2.0",
		"goversion": "go1.x",
	})
	r.Info("unify_build_info", "Build info.", map[string]string{"version": "ignored"}) // idempotent

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	want := `unify_build_info{goversion="go1.x",version="0.2.0"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "ignored") {
		t.Error("second Info call overwrote labels")
	}
	if got := r.Value("unify_build_info", ""); got != 1 {
		t.Errorf("info value = %v, want 1", got)
	}
	snap := r.Snapshot()
	labels := snap["unify_build_info"].(map[string]string)
	if labels["version"] != "0.2.0" {
		t.Errorf("snapshot labels = %v", labels)
	}
}

func TestMetricsRecordQueryOKExemplar(t *testing.T) {
	m := NewMetrics(nil)
	m.RecordQueryOK("q-7", 42*time.Second, 10*time.Second, 32*time.Second)
	m.RecordQueryOK("q-8", 3*time.Second, time.Second, 2*time.Second)
	if id, val := m.Reg.MaxExemplar("unify_query_vtime_seconds"); id != "q-7" || val != 42 {
		t.Errorf("query exemplar = %q/%v, want q-7/42", id, val)
	}
}
