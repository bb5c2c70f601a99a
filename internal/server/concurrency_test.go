package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"unify"
	"unify/internal/corpus"
	"unify/internal/llm"
)

// TestConcurrentQueriesSharedSystem drives ≥8 concurrent queries (mixed
// repeated and distinct) through one shared System — half directly via
// System.Query, half over HTTP — and verifies deterministic answers and
// monotonic cache counters. Run under -race this also exercises every
// cache layer's locking (the pre-cache optimizer had an unsynchronized
// selectivity map on this path).
func TestConcurrentQueriesSharedSystem(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 200)
	if err != nil {
		t.Fatal(err)
	}
	sim := llm.SimConfig{Profile: llm.WorkerProfile(), Seed: 1}
	sys, err := unify.New(unify.WithConfig(unify.Config{Dataset: "sports", Sim: &sim}), unify.WithCorpus(ds))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(sys))
	defer srv.Close()

	queries := []string{
		"How many questions are about tennis?",
		"How many questions are about tennis?", // repeated
		"How many questions are about golf?",
		"How many questions are about tennis?", // repeated
		"How many questions are about golf?",   // repeated
		"How many questions are about swimming?",
		"How many questions are about tennis?",   // repeated
		"How many questions are about swimming?", // repeated
		"How many questions are about golf?",     // repeated
		"How many questions are about cycling?",
	}

	// Reference answers, computed sequentially first (the Sim is
	// deterministic, so concurrent runs must reproduce these exactly).
	want := map[string]string{}
	for _, q := range queries {
		if _, ok := want[q]; ok {
			continue
		}
		ans, err := sys.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("reference query %q: %v", q, err)
		}
		want[q] = ans.Text
	}
	statsBefore := sys.Cache.Stats()

	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	answers := make([]string, len(queries))
	for i, q := range queries {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ans, err := sys.Query(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				answers[i] = ans.Text
				return
			}
			body, _ := json.Marshal(QueryRequest{Query: q})
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
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
	for i, q := range queries {
		if answers[i] != want[q] {
			t.Errorf("query %d %q: got %q, want %q", i, q, answers[i], want[q])
		}
	}

	// Cache counters are monotonic and the concurrent batch — all warm
	// repeats of the reference pass — must have produced hits.
	statsAfter := sys.Cache.Stats()
	if statsAfter.Hits < statsBefore.Hits || statsAfter.Misses < statsBefore.Misses {
		t.Fatalf("cache counters went backwards: %+v -> %+v", statsBefore, statsAfter)
	}
	if statsAfter.Hits == statsBefore.Hits {
		t.Fatal("concurrent repeated queries produced no cache hits")
	}
	layers := sys.CacheStats()
	if layers["plan"].Hits == 0 {
		t.Fatalf("no plan-cache hits across repeated queries: %+v", layers)
	}
	if layers["llm"].Hits == 0 {
		t.Fatalf("no LLM-cache hits across repeated queries: %+v", layers)
	}

	// The stats endpoint must expose the per-layer counters.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache map[string]struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache["plan"].Hits == 0 || stats.Cache["llm"].Hits == 0 {
		t.Fatalf("/v1/stats cache section missing hits: %+v", stats.Cache)
	}
}
