package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// counterSamples parses a text exposition and returns the samples that
// may only grow: series of TYPE counter metrics and the histograms'
// _bucket/_sum/_count lines. Every sample line must parse.
func counterSamples(body string) (map[string]float64, error) {
	out := map[string]float64{}
	growing := false
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			growing = !strings.HasSuffix(line, " gauge")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %v", line, err)
		}
		if growing {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// TestScrapesRaceQueries has scrapers read /metrics and /v1/stats in a
// loop while four clients issue 300 queries and a fifth ingests: the
// registry reads the pool, the cache, the view store, the trace store, the
// profiler and the models while they are being written. Under -race that
// is the test of the lock order (registry, then owner; an owner never
// calls the registry): no race, no deadlock, every scrape parses, and no
// counter moves backwards between two scrapes of one scraper.
func TestScrapesRaceQueries(t *testing.T) {
	srv, full := viewsServer(t, 150)
	defer srv.Close()
	client := &http.Client{Timeout: time.Minute} // a deadlock fails, not hangs

	const clients, perClient = 4, 75
	queries := []string{
		"How many questions are about tennis?",
		"How many questions are about golf?",
		"How many questions are about swimming?",
		"What is the average number of views of questions about tennis?",
		"SELECT COUNT(*) FROM sports WHERE views > 500",
	}
	errs := make(chan error, 64)
	fail := func(format string, a ...any) {
		select {
		case errs <- fmt.Errorf(format, a...):
		default:
		}
	}
	get := func(path string) (string, bool) {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			fail("GET %s: %v", path, err)
			return "", false
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			fail("GET %s: status %d, read error %v", path, resp.StatusCode, err)
			return "", false
		}
		return string(raw), true
	}
	postJSON := func(path string, body any) {
		raw, _ := json.Marshal(body)
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			fail("POST %s: %v", path, err)
			return
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fail("POST %s: status %d: %s", path, resp.StatusCode, msg)
		}
	}

	var queriers, background sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < perClient; i++ {
				postJSON("/v1/query", QueryRequest{Query: queries[(c+i)%len(queries)]})
			}
		}()
	}
	// The ingester grows the corpus one document at a time and rewrites an
	// old one after each, so generations bump and view rows invalidate
	// while the scrapers read both.
	background.Add(1)
	go func() {
		defer background.Done()
		docs := full.Documents()
		for i := 150; i < 166; i++ {
			select {
			case <-done:
				return
			default:
			}
			d, old := docs[i], docs[i-150]
			postJSON("/v1/ingest", IngestRequest{
				Add:    []IngestDoc{{ID: d.ID, Title: d.Title, Text: d.Text}},
				Update: []IngestDoc{{ID: old.ID, Title: old.Title, Text: old.Text + " (edited)"}},
			})
		}
	}()
	scrapes := make([]int, 2)
	for sc := range scrapes {
		background.Add(1)
		go func() {
			defer background.Done()
			prev := map[string]float64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				body, ok := get("/metrics")
				if !ok {
					return
				}
				cur, err := counterSamples(body)
				if err != nil {
					fail("/metrics: %v", err)
					return
				}
				for series, was := range prev {
					if now, ok := cur[series]; !ok || now < was {
						fail("/metrics: %s went from %v to %v (present=%v)", series, was, now, ok)
						return
					}
				}
				prev = cur
				stats, ok := get("/v1/stats")
				if !ok {
					return
				}
				var decoded map[string]any
				if err := json.Unmarshal([]byte(stats), &decoded); err != nil || decoded["metrics"] == nil {
					fail("/v1/stats: %v (metrics block present: %v)", err, decoded["metrics"] != nil)
					return
				}
				scrapes[sc]++
			}
		}()
	}
	queriers.Wait()
	close(done)
	background.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for sc, n := range scrapes {
		if n == 0 {
			t.Errorf("scraper %d completed no scrape while %d queries ran", sc, clients*perClient)
		}
	}
	// At rest the exposition agrees with the work done.
	body, _ := get("/metrics")
	final, err := counterSamples(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := final[`unify_queries_total{status="ok"}`]; got != clients*perClient {
		t.Errorf("unify_queries_total{ok} = %v after %d queries", got, clients*perClient)
	}
	// The admission queue is read when scraped: every client has its reply,
	// so nothing waits and nothing holds a slot, whatever order the
	// handlers finished in.
	for _, idle := range []string{"unify_pool_active_queries", "unify_serve_queue_depth", "unify_serve_inflight"} {
		if !strings.Contains(body, "\n"+idle+" 0\n") {
			t.Errorf("idle server does not report %s 0", idle)
		}
	}
}
