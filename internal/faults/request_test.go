package faults_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"unify/internal/cache"
	"unify/internal/corpus"
	"unify/internal/faults"
	"unify/internal/llm"
)

// foreign is a base client that knows nothing of llm.Request: it logs
// the prompts it is sent and lets a Sim answer them.
type foreign struct {
	llm.Client
	mu      sync.Mutex
	prompts []string
}

func (f *foreign) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	f.mu.Lock()
	f.prompts = append(f.prompts, prompt)
	f.mu.Unlock()
	return f.Client.Complete(ctx, prompt)
}

// world is the worker stack the system builds with a fault plan, retries,
// hedging and batching all on, and everything observable about it.
type world struct {
	base     *foreign
	injector *faults.Client
	top      *llm.Recorder
	events   []string
	outcomes []string
}

func newWorld() *world {
	w := &world{base: &foreign{Client: llm.NewSim(llm.DefaultSimConfig())}}
	layer := cache.NewLayer[llm.Response](cache.New(8<<20), "llm", llm.ResponseCost)
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Transient, Rate: 0.15},
		{Kind: faults.Timeout, Rate: 0.1, Tasks: []string{"filter_batch", "classify_batch"}},
		{Kind: faults.Slow, Rate: 0.3},
		{Kind: faults.Garbage, Rate: 0.1, Tasks: []string{"extract_batch", "filter_doc"}},
	}}
	w.injector = faults.New(llm.NewCached(w.base, layer), plan)
	pol := llm.DefaultRetryPolicy()
	pol.MaxAttempts = 3
	pol.HedgeAfter = 2 * time.Second
	res := llm.NewResilient(w.injector, pol, func(event, task string) {
		w.events = append(w.events, event+":"+task)
	})
	w.top = llm.NewRecorder(llm.NewBatching(res))
	return w
}

func (w *world) note(resp llm.Response, err error) {
	w.outcomes = append(w.outcomes, fmt.Sprintf("%+v | %v", resp, err))
}

// TestWrappersSeeTheSameWorld sends one call sequence down two identical
// stacks — as structured requests through Do, and as the rendered strings
// through Complete, which is how every wrapper saw a call before requests
// existed. Fault draws (keyed by prompt bytes and try), back-off
// jitter (hashed from the prompt), hedges, batch keys, payload keys,
// template tokens, virtual durations, cache hits and the bytes reaching
// the foreign base client must not differ in a single bit.
func TestWrappersSeeTheSameWorld(t *testing.T) {
	ds, err := corpus.GenerateN("sports", 64)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(ds.Docs))
	for i, d := range ds.Docs {
		texts[i] = d.Text
	}
	type call struct {
		task   string
		fields func() []llm.Field
	}
	var calls []call
	for round := 0; round < 3; round++ { // later rounds meet the cache
		for start := 0; start < len(texts); start += 16 {
			chunk := texts[start : start+16]
			calls = append(calls,
				call{"filter_batch", func() []llm.Field {
					return []llm.Field{llm.Text("condition", "related to injury"), llm.Docs("docs", chunk)}
				}},
				call{"classify_batch", func() []llm.Field {
					return []llm.Field{llm.Docs("docs", chunk), llm.Text("class", "sport")}
				}},
				call{"extract_batch", func() []llm.Field {
					return []llm.Field{llm.Text("target", "views"), llm.Docs("docs", chunk)}
				}},
				call{"filter_doc", func() []llm.Field {
					return []llm.Field{llm.Text("doc", chunk[round]), llm.Text("condition", "about tennis")}
				}},
				call{"compare_vals", func() []llm.Field {
					return []llm.Field{llm.Text("a", "3"), llm.Text("b", fmt.Sprint(start))}
				}},
			)
		}
	}
	calls = append(calls, call{"no_such_task", func() []llm.Field { return nil }})

	ctx := context.Background()
	structured, rendered := newWorld(), newWorld()
	for _, c := range calls {
		structured.note(llm.Do(ctx, structured.top, llm.NewRequest(c.task, c.fields()...)))

		m := map[string]string{}
		for _, f := range c.fields() {
			m[f.Name] = llm.JoinDocs(f.Parts)
		}
		rendered.note(rendered.top.Complete(ctx, llm.BuildPrompt(c.task, m)))
	}

	for _, cmp := range []struct {
		what string
		a, b any
	}{
		{"responses and errors", structured.outcomes, rendered.outcomes},
		{"recorded calls", structured.top.Calls(), rendered.top.Calls()},
		{"resilience events", structured.events, rendered.events},
		{"injected fault counts", structured.injector.Stats(), rendered.injector.Stats()},
		{"prompts reaching the base client", structured.base.prompts, rendered.base.prompts},
	} {
		if !reflect.DeepEqual(cmp.a, cmp.b) {
			t.Errorf("%s differ between Do(request) and Complete(prompt):\n%v\n%v", cmp.what, cmp.a, cmp.b)
		}
	}

	// The sequence must have exercised what it claims to compare.
	seen := map[string]bool{}
	for _, e := range structured.events {
		kind, _, _ := strings.Cut(e, ":")
		seen[kind] = true
	}
	for _, want := range []string{"retry", "hedge"} {
		if !seen[want] {
			t.Errorf("no %q event in %d events: the sequence does not exercise it", want, len(structured.events))
		}
	}
	// Every kind in the plan fired: a failed draw shows up as an error in
	// the outcomes compared above, by kind and task, and is counted here.
	for _, kind := range []faults.Kind{faults.Transient, faults.Timeout, faults.Slow, faults.Garbage} {
		if structured.injector.Stats()[kind] == 0 {
			t.Errorf("no %s fault injected: the sequence does not exercise it", kind)
		}
	}
	var cached, stamped, retried int
	for _, c := range structured.top.Calls() {
		if c.Cached {
			cached++
		}
		if c.BatchKey != "" && c.PayloadKey != "" && c.TemplateTokens > 0 {
			stamped++
		}
		if c.Retries > 0 {
			retried++
		}
	}
	if cached == 0 || stamped == 0 || retried == 0 {
		t.Errorf("cached=%d stamped=%d retried=%d calls; want some of each", cached, stamped, retried)
	}
	if n := len(structured.base.prompts); n == 0 || n >= len(calls) {
		t.Errorf("%d prompts reached the base client for %d calls; want some, and fewer than calls", n, len(calls))
	}
}
