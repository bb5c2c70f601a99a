package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unify"
	"unify/internal/corpus"
	"unify/internal/llm"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	sys, err := unify.New(unify.WithConfig(unify.Config{Dataset: "sports", Sim: &sim}), unify.WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(New(sys))
}

func post(t *testing.T, url, query string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Query: query})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := post(t, srv.URL+"/v1/query", "How many questions are about tennis?")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Answer == "" || len(out.Plan) == 0 || out.TotalSecs <= 0 {
		t.Errorf("incomplete response: %+v", out)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := post(t, srv.URL+"/v1/plan", "What is the average score of questions related to injury?")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out PlanResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Plan) < 2 {
		t.Errorf("plan too small: %+v", out.Plan)
	}
	ops := map[string]bool{}
	for _, n := range out.Plan {
		ops[n.Op] = true
		if n.Physical == "" {
			t.Errorf("node %d missing physical", n.ID)
		}
	}
	if !ops["Average"] {
		t.Errorf("plan ops = %v", ops)
	}
}

func TestOperatorsEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/operators")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []OperatorInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 21 {
		t.Errorf("got %d operators, want 21", len(out))
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	// Serve one query so the health counters have something to report.
	if resp, raw := post(t, srv.URL+"/v1/query", "How many questions are about tennis?"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		UptimeSecs    float64 `json:"uptime_secs"`
		QueriesServed int64   `json:"queries_served"`
		QueriesFailed int64   `json:"queries_failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Version == "" || out.UptimeSecs <= 0 {
		t.Errorf("health incomplete: %+v", out)
	}
	if out.QueriesServed != 1 || out.QueriesFailed != 0 {
		t.Errorf("health counters = served %d / failed %d, want 1 / 0", out.QueriesServed, out.QueriesFailed)
	}
}

func TestAnalyzeQuery(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := post(t, srv.URL+"/v1/query?analyze=1", "How many questions are about tennis?")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.TraceText == "" {
		t.Fatalf("analyze=1 returned no trace: %s", raw)
	}
	if out.Trace.Name != "query" || len(out.Trace.Children) < 3 {
		t.Errorf("trace root %q with %d children", out.Trace.Name, len(out.Trace.Children))
	}
	// One node span per plan node, each carrying the ANALYZE accounting.
	nodes := 0
	for _, c := range out.Trace.Children {
		if c.Name != "execute" {
			continue
		}
		for _, n := range c.Children {
			if n.Kind != "node" {
				continue
			}
			nodes++
			if n.VTimeSecs <= 0 || n.Attrs["llm_calls"] == "" || n.Attrs["out_tokens"] == "" ||
				n.Attrs["in_card"] == "" || n.Attrs["out_card"] == "" {
				t.Errorf("node span %q missing accounting: %+v", n.Name, n.Attrs)
			}
		}
	}
	if nodes != len(out.Plan) {
		t.Errorf("trace has %d node spans, plan has %d nodes", nodes, len(out.Plan))
	}
	if !strings.Contains(out.TraceText, "vtime=") || !strings.Contains(out.TraceText, "planning") {
		t.Errorf("trace text incomplete:\n%s", out.TraceText)
	}
	// Plain queries stay trace-free.
	_, raw = post(t, srv.URL+"/v1/query", "How many questions are about tennis?")
	var plain QueryResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil || plain.TraceText != "" {
		t.Error("untraced query returned a trace")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	post(t, srv.URL+"/v1/query", "How many questions are about tennis?")
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, want := range []string{
		"# TYPE unify_queries_total counter",
		`unify_queries_total{status="ok"} 1`,
		"# TYPE unify_query_vtime_seconds histogram",
		"unify_query_vtime_seconds_count 1",
		"unify_llm_calls_total{task=",
		`unify_http_requests_total{path="/v1/query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	post(t, srv.URL+"/v1/query", "How many questions are about golf?")
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		UptimeSecs float64                `json:"uptime_secs"`
		Metrics    map[string]interface{} `json:"metrics"`
		Failures   map[string]interface{} `json:"failures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.UptimeSecs <= 0 {
		t.Error("no uptime")
	}
	queries, ok := out.Metrics["unify_queries_total"].(map[string]interface{})
	if !ok || queries["ok"] != 1.0 {
		t.Errorf("stats metrics = %#v", out.Metrics["unify_queries_total"])
	}
	if _, ok := out.Metrics["unify_llm_calls_total"]; !ok {
		t.Error("stats missing llm call counters")
	}
	for _, key := range []string{"retries", "retry_exhausted", "hedges", "replans", "skipped_docs", "plan_fallbacks", "query_errors"} {
		if _, ok := out.Failures[key]; !ok {
			t.Errorf("stats failures block missing %q", key)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	// Empty body.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query -> %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET query -> %d", resp.StatusCode)
	}
	// Garbage JSON.
	resp, err = http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body -> %d", resp.StatusCode)
	}
}

// postReq sends an arbitrary QueryRequest body and returns the response.
func postReq(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryUSQLAutoDetected(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := post(t, srv.URL+"/v1/query", "SELECT COUNT(*) FROM sports WHERE 'related to tennis'")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Lang != "usql" {
		t.Errorf("lang %q, want usql (auto-detect)", out.Lang)
	}
	if out.Answer == "" || len(out.Plan) == 0 {
		t.Errorf("incomplete response: %+v", out)
	}
	if out.PlanningSecs != 0 {
		t.Errorf("USQL query charged %v planning secs, want 0 (no planner LLM)", out.PlanningSecs)
	}
}

func TestQueryLangField(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	// NL query, explicit lang pin.
	resp, raw := postReq(t, srv.URL+"/v1/query",
		QueryRequest{Query: "How many questions are about tennis?", Lang: "nl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	json.Unmarshal(raw, &out)
	if out.Lang != "nl" {
		t.Errorf("lang %q, want nl", out.Lang)
	}
	// Unknown lang value: 400 with the bad_request code.
	resp, raw = postReq(t, srv.URL+"/v1/query",
		QueryRequest{Query: "SELECT COUNT(*) FROM sports", Lang: "sql"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown lang: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var e ErrorResponse
	json.Unmarshal(raw, &e)
	if e.Error.Code != "bad_request" || !strings.Contains(e.Error.Message, "sql") {
		t.Errorf("error envelope %+v", e)
	}
}

func TestQueryUSQLSyntaxErrorIs400(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := postReq(t, srv.URL+"/v1/query",
		QueryRequest{Query: "SELECT BOGUS(views) FROM sports", Lang: "usql"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	var e ErrorResponse
	json.Unmarshal(raw, &e)
	if e.Error.Code != "bad_request" || !strings.Contains(e.Error.Message, "usql:7:") {
		t.Errorf("error envelope lacks positioned usql error: %+v", e)
	}
}

func TestQueryPlanOnly(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, raw := postReq(t, srv.URL+"/v1/query",
		QueryRequest{Query: "SELECT AVG(score) FROM sports WHERE 'related to injury'", PlanOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out PlanResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Lang != "usql" {
		t.Errorf("lang %q, want usql", out.Lang)
	}
	if len(out.Plan) != 2 {
		t.Fatalf("plan has %d nodes, want 2 (Filter, Average): %+v", len(out.Plan), out.Plan)
	}
	if out.Plan[0].Op != "Filter" || out.Plan[1].Op != "Average" {
		t.Errorf("ops %s,%s want Filter,Average", out.Plan[0].Op, out.Plan[1].Op)
	}
	for _, n := range out.Plan {
		if n.Physical == "" {
			t.Errorf("node %d missing physical operator", n.ID)
		}
	}
	// plan_only must not execute: the answer-shaped fields are absent
	// from the envelope entirely (it is a PlanResponse).
	if bytes.Contains(raw, []byte(`"answer"`)) {
		t.Error("plan_only response contains an answer field")
	}
}

func TestHealthAPIVersion(t *testing.T) {
	srv := testServer(t)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if v, ok := out["api_version"].(float64); !ok || v != 1 {
		t.Errorf("api_version = %v, want 1", out["api_version"])
	}
}
