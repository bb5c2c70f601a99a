package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unify"
	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/obs"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

type tracesBody struct {
	Traces    []obs.TraceSummary     `json:"traces"`
	Count     int                    `json:"count"`
	Retention map[string]interface{} `json:"retention"`
}

func TestTracesEndpointListAndDetail(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()

	resp, raw := post(t, srv.URL+"/v1/query", "How many questions are about tennis?")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	var q1 QueryResponse
	if err := json.Unmarshal(raw, &q1); err != nil {
		t.Fatal(err)
	}
	post(t, srv.URL+"/v1/query", "How many questions are about football?")

	resp, raw = get(t, srv.URL+"/v1/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d: %s", resp.StatusCode, raw)
	}
	var list tracesBody
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 || len(list.Traces) != 2 {
		t.Fatalf("want 2 traces, got %+v", list)
	}
	// Newest-first: the second query leads.
	if list.Traces[0].ID != "q-2" || list.Traces[1].ID != "q-1" {
		t.Fatalf("order wrong: %+v", list.Traces)
	}
	if list.Retention["enabled"] != true {
		t.Errorf("retention block: %+v", list.Retention)
	}

	// Detail: stored vtime must equal the vtime the query reported.
	resp, raw = get(t, srv.URL+"/v1/traces/"+q1.RequestID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status %d: %s", resp.StatusCode, raw)
	}
	var det TraceDetail
	if err := json.Unmarshal(raw, &det); err != nil {
		t.Fatal(err)
	}
	if det.ID != q1.RequestID || det.Status != "ok" {
		t.Fatalf("detail = %+v", det)
	}
	if math.Abs(det.VTimeSecs-q1.TotalSecs) > 1e-9 {
		t.Errorf("stored vtime %v != answer vtime %v", det.VTimeSecs, q1.TotalSecs)
	}
	if det.Root == nil || det.Root.Name != "query" {
		t.Fatalf("detail missing span tree: %+v", det.Root)
	}
	if det.Root.Attrs["request_id"] != q1.RequestID {
		t.Errorf("root span request_id = %q", det.Root.Attrs["request_id"])
	}
	// Phase structure survives storage.
	names := map[string]bool{}
	for _, c := range det.Root.Children {
		names[c.Name] = true
	}
	for _, phase := range []string{"planning", "optimize", "execute"} {
		if !names[phase] {
			t.Errorf("stored trace missing %q phase: %v", phase, names)
		}
	}
}

func TestTracesEndpointFilters(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	post(t, srv.URL+"/v1/query", "How many questions are about tennis?")

	if _, raw := get(t, srv.URL+"/v1/traces?status=error"); !strings.Contains(string(raw), `"count":0`) {
		t.Errorf("status=error should be empty: %s", raw)
	}
	if _, raw := get(t, srv.URL+"/v1/traces?min_vtime_secs=1e9"); !strings.Contains(string(raw), `"count":0`) {
		t.Errorf("huge min_vtime should be empty: %s", raw)
	}
	post(t, srv.URL+"/v1/query", "How many questions are about football?")
	var list tracesBody
	_, raw := get(t, srv.URL+"/v1/traces?limit=1")
	json.Unmarshal(raw, &list)
	if list.Count != 1 {
		t.Errorf("limit=1 returned %d", list.Count)
	}

	for _, bad := range []string{"?status=weird", "?min_vtime_secs=abc", "?min_vtime_secs=-1", "?limit=x"} {
		resp, raw := get(t, srv.URL+"/v1/traces"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", bad, resp.StatusCode, raw)
		}
	}

	if resp, _ := get(t, srv.URL+"/v1/traces/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/traces/a/b"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deep path status %d", resp.StatusCode)
	}
}

// Regression: strconv.ParseFloat accepts NaN, Inf and 1e300, "secs < 0"
// is false for all of them, and the float-to-Duration conversion of each
// is math.MinInt64 on amd64 — so the filter kept every trace where +Inf
// should keep none.
func TestTracesEndpointMinVTimeBounds(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	post(t, srv.URL+"/v1/query", "How many questions are about tennis?")

	for _, tc := range []struct {
		value string
		code  int
		count int // when code is 200
	}{
		{"0", http.StatusOK, 1},
		{"0.001", http.StatusOK, 1},
		{"1e9", http.StatusOK, 0},
		{"9e9", http.StatusOK, 0}, // 9e18 ns: the largest decade a Duration holds
		{"NaN", http.StatusBadRequest, 0},
		{"nan", http.StatusBadRequest, 0},
		{"Inf", http.StatusBadRequest, 0},
		{"%2BInf", http.StatusBadRequest, 0},
		{"-Inf", http.StatusBadRequest, 0},
		{"infinity", http.StatusBadRequest, 0},
		{"1e10", http.StatusBadRequest, 0}, // 1e19 ns overflows int64
		{"1e300", http.StatusBadRequest, 0},
		{"9223372036.854775808", http.StatusBadRequest, 0}, // exactly 2^63 ns
		{"-0.5", http.StatusBadRequest, 0},
	} {
		resp, raw := get(t, srv.URL+"/v1/traces?min_vtime_secs="+tc.value)
		if resp.StatusCode != tc.code {
			t.Errorf("min_vtime_secs=%s: status %d, want %d (%s)", tc.value, resp.StatusCode, tc.code, raw)
			continue
		}
		if tc.code == http.StatusBadRequest {
			if !strings.Contains(string(raw), "malformed min_vtime_secs") {
				t.Errorf("min_vtime_secs=%s: error body %s", tc.value, raw)
			}
			continue
		}
		var list tracesBody
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatal(err)
		}
		if list.Count != tc.count {
			t.Errorf("min_vtime_secs=%s: %d traces, want %d", tc.value, list.Count, tc.count)
		}
	}
}

func TestProfileEndpointAttribution(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()

	var want float64
	for _, q := range []string{
		"How many questions are about tennis?",
		"What is the average score of questions related to injury?",
	} {
		_, raw := post(t, srv.URL+"/v1/query", q)
		var out QueryResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v (%s)", q, err, raw)
		}
		want += out.TotalSecs
	}

	resp, raw := get(t, srv.URL+"/v1/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d: %s", resp.StatusCode, raw)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queries != 2 {
		t.Fatalf("profiled queries = %d", snap.Queries)
	}
	// The profiling surface's core claim: per-class vtime shares sum to
	// the vtime the queries reported.
	var shares float64
	for _, c := range snap.Classes {
		shares += c.ShareSecs
	}
	if math.Abs(shares-want) > 1e-6 || math.Abs(snap.TotalVTimeSecs-want) > 1e-6 {
		t.Errorf("share sum %v / total %v != answers %v", shares, snap.TotalVTimeSecs, want)
	}
	if _, ok := snap.Classes["planning"]; !ok {
		t.Errorf("no planning class: %v", snap.Classes)
	}
}

func TestQueryResponseProfileGatedOnAnalyze(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	_, raw := post(t, srv.URL+"/v1/query", "How many questions are about tennis?")
	var plain QueryResponse
	json.Unmarshal(raw, &plain)
	if plain.Profile != nil || plain.Trace != nil {
		t.Error("plain query returned profile/trace")
	}

	body, _ := json.Marshal(QueryRequest{Query: "How many questions are about golf?", Analyze: true})
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var an QueryResponse
	if err := json.Unmarshal(buf.Bytes(), &an); err != nil {
		t.Fatal(err)
	}
	if an.Trace == nil || an.Profile == nil {
		t.Fatalf("analyze query missing trace/profile: %s", buf.Bytes())
	}
	var shares float64
	for _, c := range an.Profile {
		shares += c.ShareSecs
	}
	if math.Abs(shares-an.TotalSecs) > 1e-6 {
		t.Errorf("per-query profile shares %v != total %v", shares, an.TotalSecs)
	}
}

// TestTraceAndProfileByteIdentity builds two servers over identical
// systems, replays the same query sequence, and requires /v1/traces and
// /v1/profile to return byte-identical payloads — the determinism
// contract of the observability surface.
func TestTraceAndProfileByteIdentity(t *testing.T) {
	run := func() (traces, profile string) {
		ds, err := corpus.GenerateN("sports", 200)
		if err != nil {
			t.Fatal(err)
		}
		sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
		sys, err := unify.New(unify.WithConfig(unify.Config{Dataset: "sports", Sim: &sim, StrictChecks: true}), unify.WithCorpus(ds))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(New(sys))
		defer srv.Close()
		for _, q := range []string{
			"How many questions are about tennis?",
			"What is the average score of questions related to injury?",
			"How many questions are about tennis?", // repeat: cache-served path
		} {
			resp, raw := post(t, srv.URL+"/v1/query", q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %q: %d %s", q, resp.StatusCode, raw)
			}
		}
		_, tb := get(t, srv.URL+"/v1/traces")
		_, pb := get(t, srv.URL+"/v1/profile")
		return string(tb), string(pb)
	}
	t1, p1 := run()
	t2, p2 := run()
	if t1 != t2 {
		t.Errorf("/v1/traces not byte-identical:\n%s\n---\n%s", t1, t2)
	}
	if p1 != p2 {
		t.Errorf("/v1/profile not byte-identical:\n%s\n---\n%s", p1, p2)
	}
	if strings.Contains(t1, "wall") {
		t.Errorf("trace list leaks wall-clock fields: %s", t1)
	}
}

func TestStatsTracingBlockAndBuildInfo(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	post(t, srv.URL+"/v1/query", "How many questions are about tennis?")

	_, raw := get(t, srv.URL+"/v1/stats")
	var stats map[string]interface{}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	tracing, ok := stats["tracing"].(map[string]interface{})
	if !ok || tracing["enabled"] != true {
		t.Fatalf("tracing block missing: %v", stats["tracing"])
	}
	if tracing["stored"].(float64) != 1 || tracing["profiled_queries"].(float64) != 1 {
		t.Errorf("tracing counters: %v", tracing)
	}
	serving := stats["serving"].(map[string]interface{})
	clocks := serving["clocks"].(map[string]interface{})
	if clocks["traces.vtime_secs"] != "virtual" || clocks["traces.span.wall_ms"] != "wall_monotonic" {
		t.Errorf("clock map missing trace domains: %v", clocks)
	}

	_, raw = get(t, srv.URL+"/metrics")
	body := string(raw)
	if !strings.Contains(body, "unify_build_info{") || !strings.Contains(body, `version="`+unify.Version+`"`) {
		t.Errorf("/metrics missing build info: %.300s", body)
	}
	if !strings.Contains(body, "unify_op_vtime_share_seconds_total") {
		t.Errorf("/metrics missing per-op cost series")
	}
}
