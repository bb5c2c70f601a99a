package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"unify"
	"unify/internal/corpus"
	"unify/internal/llm"
)

// servingQueries are eight distinct queries so every one does real slot
// work when run concurrently on the shared pool.
var servingQueries = []string{
	"How many questions are about tennis?",
	"How many questions are about golf?",
	"How many questions are about swimming?",
	"How many questions are about cycling?",
	"How many questions are about boxing?",
	"How many questions are about rowing?",
	"How many questions are about skiing?",
	"How many questions are about football?",
}

func servingSystem(t *testing.T, ds *corpus.Dataset) *unify.System {
	t.Helper()
	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	sys, err := unify.New(
		unify.WithCorpus(ds),
		unify.WithDataset("sports"),
		unify.WithSim(sim),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestConcurrentSharedPoolAccounting drives eight concurrent queries —
// half directly, half over HTTP — through one System and verifies the
// shared slot pool's accounting: aggregate utilization stays in (0, 1],
// every contended query's makespan is at least its solo baseline, the
// pool's busy total covers the per-answer busy sums, and the answers are
// byte-identical to a sequential run on an identical fresh system.
func TestConcurrentSharedPoolAccounting(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference on its own system (own pool, own caches).
	ref := servingSystem(t, ds)
	want := make([]string, len(servingQueries))
	for i, q := range servingQueries {
		ans, err := ref.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("sequential reference %q: %v", q, err)
		}
		want[i] = ans.Text
	}

	sys := servingSystem(t, ds)
	srv := New(sys)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	answers := make([]string, len(servingQueries))
	directAns := make([]*unify.Answer, len(servingQueries))
	errs := make(chan error, len(servingQueries))
	var wg sync.WaitGroup
	for i, q := range servingQueries {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ans, err := sys.Query(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("direct %q: %w", q, err)
					return
				}
				directAns[i] = ans
				answers[i] = ans.Text
				return
			}
			body, _ := json.Marshal(QueryRequest{Query: q})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("HTTP %q: status %d", q, resp.StatusCode)
				return
			}
			var out QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.RequestID == "" {
				errs <- fmt.Errorf("HTTP %q: empty request_id", q)
				return
			}
			answers[i] = out.Answer
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, q := range servingQueries {
		if answers[i] != want[i] {
			t.Errorf("query %q: concurrent answer %q != sequential %q", q, answers[i], want[i])
		}
	}

	ps := sys.Pool.Stats()
	if ps.Admitted < int64(len(servingQueries)) {
		t.Errorf("pool admitted %d queries, want >= %d", ps.Admitted, len(servingQueries))
	}
	if ps.Active != 0 {
		t.Errorf("pool still reports %d active after drain", ps.Active)
	}
	if ps.CumUtilization <= 0 || ps.CumUtilization > 1.0000001 {
		t.Errorf("cumulative utilization %f out of (0, 1]", ps.CumUtilization)
	}
	var busySum time.Duration
	contended := 0
	for i, ans := range directAns {
		if ans == nil {
			continue
		}
		if ans.ExecDur < ans.SoloExecDur {
			t.Errorf("query %d: makespan %v < solo baseline %v", i, ans.ExecDur, ans.SoloExecDur)
		}
		busySum += ans.SlotBusy
		if ans.Contended {
			contended++
			if ans.SlotGrantWait < 0 {
				t.Errorf("query %d: negative grant wait %v", i, ans.SlotGrantWait)
			}
		}
	}
	if busySum <= 0 {
		t.Error("direct answers report no slot busy time")
	}
	if ps.BusyTotal < busySum {
		t.Errorf("pool busy total %v < sum of answer busy %v", ps.BusyTotal, busySum)
	}
	if ps.PeakActive > 1 && contended == 0 {
		t.Errorf("peak active %d but no query reported contention", ps.PeakActive)
	}

	// /v1/stats must surface the pool's view of the same numbers.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Serving struct {
			MaxConcurrent int `json:"max_concurrent"`
			Pool          struct {
				Slots          int     `json:"slots"`
				Admitted       int64   `json:"admitted"`
				CumUtilization float64 `json:"cum_utilization"`
			} `json:"pool"`
		} `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.MaxConcurrent != DefaultMaxConcurrent {
		t.Errorf("serving.max_concurrent = %d, want %d", stats.Serving.MaxConcurrent, DefaultMaxConcurrent)
	}
	if stats.Serving.Pool.Slots != sys.Config.Slots {
		t.Errorf("serving.pool.slots = %d, want %d", stats.Serving.Pool.Slots, sys.Config.Slots)
	}
	if stats.Serving.Pool.Admitted < int64(len(servingQueries)) {
		t.Errorf("serving.pool.admitted = %d, want >= %d", stats.Serving.Pool.Admitted, len(servingQueries))
	}
	if u := stats.Serving.Pool.CumUtilization; u <= 0 || u > 1.0000001 {
		t.Errorf("serving.pool.cum_utilization = %f out of (0, 1]", u)
	}
}

// gatedClient blocks every completion until the gate closes, pinning a
// request inside the execution phase so admission tests can fill the
// queue deterministically.
type gatedClient struct {
	inner llm.Client
	gate  chan struct{}
}

func (g *gatedClient) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
	return g.inner.Complete(ctx, prompt)
}

func (g *gatedClient) Profile() llm.Profile { return g.inner.Profile() }

func waitInflight(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.admission.Inflight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d (now %d)", n, srv.admission.Inflight())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postQuery(t *testing.T, url string, req QueryRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var out ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("error envelope does not decode: %v", err)
	}
	return out.Error
}

// TestConcurrentBackpressure pins a query inside execution with a gated
// model client, then verifies the admission queue's failure modes: a
// full queue returns 429 with the error envelope and a Retry-After hint,
// a deadline that expires while queued returns 408, and the pinned
// queries complete normally once the gate opens.
func TestConcurrentBackpressure(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 150)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	planner := llm.NewSim(llm.SimConfig{Profile: llm.PlannerProfile(), Seed: 1})
	worker := &gatedClient{inner: llm.NewSim(llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}), gate: gate}
	sys, err := unify.New(
		unify.WithCorpus(ds),
		unify.WithDataset("sports"),
		unify.WithClients(planner, worker),
	)
	if err != nil {
		t.Fatal(err)
	}

	// srvFull: one execution slot, zero queue slots -> overflow is 429.
	srvFull := New(sys)
	srvFull.SetLimits(1, 0)
	tsFull := httptest.NewServer(srvFull)
	defer tsFull.Close()

	// srvQueue: one execution slot, one queue slot -> short deadlines
	// expire while queued and map to 408.
	srvQueue := New(sys)
	srvQueue.SetLimits(1, 1)
	tsQueue := httptest.NewServer(srvQueue)
	defer tsQueue.Close()

	type done struct {
		status int
		resp   QueryResponse
	}
	pinned := make(chan done, 2)
	for _, url := range []string{tsFull.URL, tsQueue.URL} {
		url := url
		go func() {
			resp := postQuery(t, url, QueryRequest{Query: servingQueries[0]})
			defer resp.Body.Close()
			var out QueryResponse
			json.NewDecoder(resp.Body).Decode(&out)
			pinned <- done{resp.StatusCode, out}
		}()
	}
	waitInflight(t, srvFull, 1)
	waitInflight(t, srvQueue, 1)

	// Queue disabled and the only slot busy: immediate 429 + envelope.
	resp := postQuery(t, tsFull.URL, QueryRequest{Query: servingQueries[1]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	eb := decodeError(t, resp)
	if eb.Code != "queue_full" {
		t.Errorf("429 error code = %q, want %q", eb.Code, "queue_full")
	}
	if eb.RequestID == "" {
		t.Error("429 error envelope missing request_id")
	}

	// Queued behind the pinned query with a tiny deadline: 408.
	resp = postQuery(t, tsQueue.URL, QueryRequest{Query: servingQueries[1], TimeoutMS: 150})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("queued deadline: status %d, want 408", resp.StatusCode)
	}
	eb = decodeError(t, resp)
	if eb.Code != "deadline_exceeded" {
		t.Errorf("408 error code = %q, want %q", eb.Code, "deadline_exceeded")
	}

	// Malformed input also uses the envelope.
	resp = postQuery(t, tsFull.URL, QueryRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query: status %d, want 400", resp.StatusCode)
	}
	if eb = decodeError(t, resp); eb.Code != "bad_request" {
		t.Errorf("400 error code = %q, want %q", eb.Code, "bad_request")
	}

	// Open the gate: both pinned queries must finish cleanly.
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case d := <-pinned:
			if d.status != http.StatusOK {
				t.Errorf("pinned query: status %d, want 200", d.status)
			}
			if d.resp.RequestID == "" {
				t.Error("pinned query response missing request_id")
			}
			if d.resp.Answer == "" {
				t.Error("pinned query returned an empty answer")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("pinned query did not complete after the gate opened")
		}
	}
}

// TestServeDepthReadsTheQueue pins one query inside execution and a second
// in the admission queue, then opens the gate. The two admission gauges
// are the queue's own numbers, read when the registry is: 1 waiting and 1
// running while the second is still blocked inside Acquire — where a
// gauge the handlers set on their way past could not have seen it — and
// 0 and 0 once both clients have their reply.
func TestServeDepthReadsTheQueue(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 120)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	planner := llm.NewSim(llm.SimConfig{Profile: llm.PlannerProfile(), Seed: 1})
	worker := &gatedClient{inner: llm.NewSim(llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}), gate: gate}
	sys, err := unify.New(unify.WithCorpus(ds), unify.WithDataset("sports"), unify.WithClients(planner, worker))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	srv.SetLimits(1, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	depth := func() (queued, inflight float64) {
		return sys.Metrics.Reg.Value("unify_serve_queue_depth", ""), sys.Metrics.Reg.Value("unify_serve_inflight", "")
	}

	var clients sync.WaitGroup
	for i := 0; i < 2; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			resp := postQuery(t, ts.URL, QueryRequest{Query: servingQueries[i]})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: status %d, want 200", i, resp.StatusCode)
			}
		}()
	}
	waitInflight(t, srv, 1)
	for deadline := time.Now().Add(5 * time.Second); srv.admission.Queued() < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second query never reached the admission queue")
		}
	}
	if q, in := depth(); q != 1 || in != 1 {
		t.Errorf("one waiting, one running: queue_depth %v, inflight %v", q, in)
	}
	close(gate)
	clients.Wait()
	if q, in := depth(); q != 0 || in != 0 {
		t.Errorf("idle server: queue_depth %v, inflight %v", q, in)
	}
}

// TestRequestTimeoutIsCappedNotWrapped: timeout_ms shortens the server's
// bound and never lengthens it. A value too large for a time.Duration used
// to wrap negative on conversion, compare below the bound, and kill the
// request in admission with a 408.
func TestRequestTimeoutIsCappedNotWrapped(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 120)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(servingSystem(t, ds))
	srv.Timeout = time.Minute
	bound := srv.Timeout.Milliseconds()
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Minute},
		{1, time.Millisecond},
		{bound - 1, time.Minute - time.Millisecond},
		{bound, time.Minute},
		{bound + 1, time.Minute},
		{9300000000000, time.Minute}, // 9.3e12 ms is past MaxInt64 nanoseconds
		{math.MaxInt64, time.Minute},
	} {
		if got := srv.requestTimeout(QueryRequest{TimeoutMS: int(tc.ms)}); got != tc.want {
			t.Errorf("timeout_ms %d: effective deadline %v, want %v", tc.ms, got, tc.want)
		}
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for ms, want := range map[int]int{
		60000:         http.StatusOK,
		9300000000000: http.StatusOK,
		math.MaxInt64: http.StatusOK,
		-1:            http.StatusBadRequest,
	} {
		resp := postQuery(t, ts.URL, QueryRequest{Query: servingQueries[0], TimeoutMS: ms})
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("timeout_ms %d: status %d, want %d", ms, resp.StatusCode, want)
		}
	}
}
