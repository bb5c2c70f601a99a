package llm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"unify/internal/cache"
	"unify/internal/obs"
)

// TestRecorderConcurrent hammers one Recorder from parallel goroutines;
// run with -race to verify the call log is mutation-safe.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(NewSim(DefaultSimConfig()))
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				prompt := BuildPrompt("filter_batch", map[string]string{
					"condition": "related to tennis",
					"docs":      fmt.Sprintf("[%d-%d] some text", w, i),
				})
				if _, err := rec.Complete(context.Background(), prompt); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(rec.Calls()); got != workers*per {
		t.Errorf("recorded %d calls, want %d", got, workers*per)
	}
	if rec.TotalDur() <= 0 {
		t.Error("total duration not positive")
	}
}

// TestTracedConcurrent verifies the span-aware wrapper under parallel
// Complete calls: every successful call must attach exactly one llm span
// with token and virtual-duration attributes.
func TestTracedConcurrent(t *testing.T) {
	parent := obs.NewTracer().Start("node", obs.KindNode)
	rec := NewRecorder(NewSim(DefaultSimConfig()))
	cli := NewTraced(rec, parent)
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				prompt := BuildPrompt("filter_batch", map[string]string{
					"condition": "related to golf",
					"docs":      fmt.Sprintf("[%d-%d] text", w, i),
				})
				if _, err := cli.Complete(context.Background(), prompt); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	children := parent.Children()
	if len(children) != workers*per {
		t.Fatalf("attached %d spans, want %d", len(children), workers*per)
	}
	if got := len(rec.Calls()); got != workers*per {
		t.Errorf("inner recorder saw %d calls, want %d", got, workers*per)
	}
	for _, c := range children {
		if c.Name != "llm:filter_batch" || c.Kind != obs.KindLLM {
			t.Fatalf("unexpected span %q kind %q", c.Name, c.Kind)
		}
		if c.VDur() <= 0 || c.Attr("out_tokens") == "" || c.Attr("in_tokens") == "" {
			t.Fatalf("span missing accounting: vdur=%v attrs=%v", c.VDur(), c.Attrs())
		}
	}
}

// TestTracedNilParent: a Traced without a parent span is pure
// pass-through and attaches nothing.
func TestTracedNilParent(t *testing.T) {
	cli := NewTraced(NewSim(DefaultSimConfig()), nil)
	prompt := BuildPrompt("simple_question", map[string]string{"query": "How many documents are there?"})
	resp, err := cli.Complete(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text == "" {
		t.Error("empty response")
	}
	if cli.Profile().Name == "" {
		t.Error("profile not delegated")
	}
	// Retargeting afterwards starts attaching.
	parent := obs.NewTracer().Start("p", obs.KindPhase)
	cli.Attach(parent)
	if _, err := cli.Complete(context.Background(), prompt); err != nil {
		t.Fatal(err)
	}
	if len(parent.Children()) != 1 {
		t.Errorf("attached %d spans after Attach, want 1", len(parent.Children()))
	}
}

// TestTracedCachedCallAllocations pins what tracing adds to a cached
// call: nothing per call. The span is carved from its tree's arena (one
// chunk per 32 spans, which AllocsPerRun's average rounds away), its name
// comes from spanNames, and its three attributes sit inline as integers.
// Before the arena it was a Span, an "llm:"+task string and three
// attribute-slice growths per call.
func TestTracedCachedCallAllocations(t *testing.T) {
	cached := NewCached(&quiet{}, cache.NewLayer[Response](cache.New(1<<20), "llm", ResponseCost))
	parent := obs.NewTracer().Start("node", obs.KindNode)
	traced := NewTraced(cached, parent)
	ctx := context.Background()
	req := NewRequest("filter_batch", Text("condition", "related to injury"), Text("docs", "[0] text"))
	call := func(c Doer) func() {
		return func() {
			if resp, err := c.Do(ctx, req); err != nil || !resp.Cached {
				t.Fatalf("Do = %+v, %v; want a cache hit", resp, err)
			}
		}
	}
	if _, err := cached.Do(ctx, req); err != nil { // fill the cache
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(200, call(cached))
	withSpan := testing.AllocsPerRun(200, call(traced))
	t.Logf("cached call: %v allocations, traced: %v", plain, withSpan)
	if withSpan != plain {
		t.Errorf("tracing a cached call costs %v allocations, want 0", withSpan-plain)
	}
	last := parent.Children()[200]
	if last.Name != "llm:filter_batch" || last.Attr("in_tokens") != "1" || last.Attr("cached") != "true" {
		t.Errorf("span %q attrs %v", last.Name, last.Attrs())
	}
	if got := spanName("no_such_task"); got != "llm:no_such_task" {
		t.Errorf("spanName of an unknown task = %q", got)
	}
	if got := spanName(""); got != "llm:unknown" {
		t.Errorf("spanName of a taskless prompt = %q", got)
	}
}
