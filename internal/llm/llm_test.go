package llm

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func testSim() *Sim {
	cfg := DefaultSimConfig()
	// Zero noise for deterministic semantic assertions.
	cfg.FilterNoise, cfg.LabelNoise, cfg.RerankNoise = 0, 0, 0
	cfg.BindNoise, cfg.PlanNoise, cfg.JudgeNoise = 0, 0, 0
	return NewSim(cfg)
}

const sampleDoc = `Title: Knee pain after practice
Views: 1523
Score: 12
Posted: 2016
Tags: advice
Body: I hurt my knee during football practice when the goalkeeper collided with me. The injury caused swelling and pain.`

func ask(t *testing.T, s *Sim, task string, fields map[string]string) string {
	t.Helper()
	resp, err := s.Complete(context.Background(), BuildPrompt(task, fields))
	if err != nil {
		t.Fatalf("%s: %v", task, err)
	}
	return resp.Text
}

func TestPromptRoundTrip(t *testing.T) {
	p := BuildPrompt("demo", map[string]string{"b": "two\nlines", "a": "one"})
	task, fields, ok := ParsePrompt(p)
	if !ok || task != "demo" {
		t.Fatalf("task = %q ok=%v", task, ok)
	}
	if fields["a"] != "one" || fields["b"] != "two\nlines" {
		t.Errorf("fields = %v", fields)
	}
}

func TestJoinSplitDocs(t *testing.T) {
	docs := []string{"doc one", "doc two\nwith newline", "doc three"}
	got := SplitDocs(JoinDocs(docs))
	if len(got) != 3 || got[1] != docs[1] {
		t.Errorf("round trip = %v", got)
	}
	if SplitDocs("") != nil {
		t.Error("empty split should be nil")
	}
}

func TestFilterDoc(t *testing.T) {
	s := testSim()
	if got := ask(t, s, "filter_doc", map[string]string{"condition": "related to injury", "doc": sampleDoc}); got != "yes" {
		t.Errorf("injury filter = %q", got)
	}
	if got := ask(t, s, "filter_doc", map[string]string{"condition": "related to nutrition", "doc": sampleDoc}); got != "no" {
		t.Errorf("nutrition filter = %q", got)
	}
	if got := ask(t, s, "filter_doc", map[string]string{"condition": "with more than 500 views", "doc": sampleDoc}); got != "yes" {
		t.Errorf("views filter = %q", got)
	}
}

func TestFilterBatch(t *testing.T) {
	s := testSim()
	docs := JoinDocs([]string{sampleDoc, "Title: Other\nViews: 3\nBody: cooking recipes"})
	got := ask(t, s, "filter_batch", map[string]string{"condition": "related to injury", "docs": docs})
	if got != "yes,no" {
		t.Errorf("batch = %q", got)
	}
}

func TestClassifyAndExtract(t *testing.T) {
	s := testSim()
	if got := ask(t, s, "classify_doc", map[string]string{"class": "sport", "doc": sampleDoc}); got != "football" {
		t.Errorf("classify = %q", got)
	}
	if got := ask(t, s, "extract_doc", map[string]string{"target": "views", "doc": sampleDoc}); got != "1523" {
		t.Errorf("extract views = %q", got)
	}
	if got := ask(t, s, "extract_doc", map[string]string{"target": "title", "doc": sampleDoc}); got != "Knee pain after practice" {
		t.Errorf("extract title = %q", got)
	}
}

func TestAggList(t *testing.T) {
	s := testSim()
	vals := "1\n2\n3\n4"
	cases := map[string]string{
		"sum": "10", "average": "2.5", "max": "4", "min": "1", "median": "2.5",
		"count": "4", "percentile:75": "3",
	}
	for kind, want := range cases {
		got := ask(t, s, "agg_list", map[string]string{"kind": kind, "values": vals})
		if got != want {
			t.Errorf("agg %s = %q, want %q", kind, got, want)
		}
	}
}

func TestComputeTask(t *testing.T) {
	s := testSim()
	got := ask(t, s, "compute", map[string]string{
		"expression": "{v1} / {v2}",
		"bindings":   "{v1}=10\n{v2}=4",
	})
	if got != "2.5" {
		t.Errorf("compute = %q", got)
	}
}

func TestParseQueryTask(t *testing.T) {
	s := testSim()
	out := ask(t, s, "parse_query", map[string]string{"query": "How many questions about football have more than 500 views?"})
	var pr ParseResult
	if err := json.Unmarshal([]byte(out), &pr); err != nil || !pr.OK {
		t.Fatalf("parse_query = %s", out)
	}
	if !strings.Contains(pr.LR, "[Entity]") {
		t.Errorf("LR = %q", pr.LR)
	}
	out = ask(t, s, "parse_query", map[string]string{"query": "write me a poem"})
	json.Unmarshal([]byte(out), &pr)
	if pr.OK {
		t.Error("ungroundable query parsed")
	}
}

func TestReduceQueryTask(t *testing.T) {
	s := testSim()
	out := ask(t, s, "reduce_query", map[string]string{
		"query":    "How many questions about football have more than 500 views?",
		"operator": "Filter",
		"lr":       "[Entity] that [Condition]",
		"next":     "1",
	})
	var rr ReduceResult
	if err := json.Unmarshal([]byte(out), &rr); err != nil || !rr.OK {
		t.Fatalf("reduce_query = %s", out)
	}
	if rr.Var != "v1" || rr.Reduced == "" {
		t.Errorf("reduce = %+v", rr)
	}
	if !strings.Contains(rr.Rewritten, "questions that") {
		t.Errorf("rewritten = %q", rr.Rewritten)
	}
}

func TestSimpleQuestionAndRerank(t *testing.T) {
	s := testSim()
	if got := ask(t, s, "simple_question", map[string]string{"query": "{v3}"}); got != "yes" {
		t.Errorf("simple {v3} = %q", got)
	}
	if got := ask(t, s, "simple_question", map[string]string{"query": "the number of {v3}"}); got != "no" {
		t.Errorf("simple count = %q", got)
	}
	got := ask(t, s, "rerank_op", map[string]string{
		"query":    "the number of questions related to injury",
		"operator": "Filter",
	})
	if got != "partially" {
		t.Errorf("rerank Filter = %q", got)
	}
	got = ask(t, s, "rerank_op", map[string]string{
		"query":    "the number of {v1}",
		"operator": "Count",
	})
	if got != "fully" {
		t.Errorf("rerank Count = %q", got)
	}
}

func TestGenerateOverContext(t *testing.T) {
	s := testSim()
	ctxDocs := JoinDocs([]string{sampleDoc, "Title: Another\nViews: 10\nScore: 4\nPosted: 2019\nBody: tennis racket serve"})
	got := ask(t, s, "generate", map[string]string{
		"question": "How many questions are about football?",
		"context":  ctxDocs,
	})
	if got != "1" {
		t.Errorf("generate count = %q", got)
	}
}

// The Sim keeps no memo (the Cached layer above it does): a repeated
// prompt is answered again, identically, and both calls are counted.
func TestMemoizationAndDeterminism(t *testing.T) {
	s := testSim()
	prompt := BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": sampleDoc})
	r1, err1 := s.Complete(context.Background(), prompt)
	r2, err2 := s.Complete(context.Background(), prompt)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if r1 != r2 {
		t.Errorf("identical prompts must yield identical responses: %+v vs %+v", r1, r2)
	}
	if _, err := s.Complete(context.Background(), "not a prompt"); err == nil {
		t.Fatal("malformed prompt answered")
	}
	calls, answered := s.Stats()
	if calls != 3 || answered != 2 {
		t.Errorf("stats = %d calls, %d answered, want 3 and 2", calls, answered)
	}
}

func TestLatencyModel(t *testing.T) {
	p := Profile{Base: 100 * time.Millisecond, PerOutToken: 10 * time.Millisecond}
	if d := p.CallDur(10); d != 200*time.Millisecond {
		t.Errorf("CallDur = %v", d)
	}
	if d := p.DurFor(0, 10); d != 200*time.Millisecond {
		t.Errorf("DurFor no input = %v", d)
	}
	if d := p.DurFor(1000, 10); d <= 200*time.Millisecond {
		t.Error("input tokens must add latency")
	}
}

func TestRecorder(t *testing.T) {
	s := testSim()
	rec := NewRecorder(s)
	rec.Complete(context.Background(), BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": sampleDoc}))
	calls := rec.Calls()
	if len(calls) != 1 || calls[0].Task != "filter_doc" || calls[0].Dur <= 0 {
		t.Errorf("calls = %+v", calls)
	}
	if rec.TotalDur() != calls[0].Dur {
		t.Error("TotalDur mismatch")
	}
	rec.Reset()
	if len(rec.Calls()) != 0 {
		t.Error("reset failed")
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.FilterNoise = 0.5
	a, b := NewSim(cfg), NewSim(cfg)
	prompt := BuildPrompt("filter_doc", map[string]string{"condition": "related to injury", "doc": sampleDoc})
	ra, _ := a.Complete(context.Background(), prompt)
	rb, _ := b.Complete(context.Background(), prompt)
	if ra.Text != rb.Text {
		t.Error("same seed must give same noisy judgment")
	}
}

func TestUnknownTask(t *testing.T) {
	s := testSim()
	if _, err := s.Complete(context.Background(), BuildPrompt("nope", nil)); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestFilterLabelTask(t *testing.T) {
	s := testSim()
	if got := ask(t, s, "filter_label", map[string]string{"condition": "involving a ball", "label": "football"}); got != "yes" {
		t.Errorf("ball label = %q", got)
	}
	if got := ask(t, s, "filter_label", map[string]string{"condition": "involving a ball", "label": "swimming"}); got != "no" {
		t.Errorf("swimming label = %q", got)
	}
	if got := ask(t, s, "filter_label", map[string]string{"condition": "@@@", "label": "x"}); got != "no" {
		t.Errorf("unparseable condition = %q", got)
	}
}

func TestClassifyBatch(t *testing.T) {
	s := testSim()
	docs := JoinDocs([]string{
		sampleDoc,
		"Title: T\nViews: 5\nBody: tennis racket serve backhand",
	})
	got := ask(t, s, "classify_batch", map[string]string{"class": "sport", "docs": docs})
	if got != "football,tennis" {
		t.Errorf("classify_batch = %q", got)
	}
}

func TestExtractBatchTask(t *testing.T) {
	s := testSim()
	docs := JoinDocs([]string{sampleDoc, "Title: X\nViews: 77\nBody: y"})
	got := ask(t, s, "extract_batch", map[string]string{"target": "views", "docs": docs})
	if got != "1523,77" {
		t.Errorf("extract_batch = %q", got)
	}
}

func TestDepCheckTask(t *testing.T) {
	s := testSim()
	if got := ask(t, s, "dep_check", map[string]string{"output": "{v3}", "inputs": "{v3}, {v5}"}); got != "yes" {
		t.Errorf("dep yes = %q", got)
	}
	if got := ask(t, s, "dep_check", map[string]string{"output": "{v9}", "inputs": "{v3}"}); got != "no" {
		t.Errorf("dep no = %q", got)
	}
}

func TestCompareValsErrors(t *testing.T) {
	s := testSim()
	if _, err := s.Complete(context.Background(), BuildPrompt("compare_vals", map[string]string{"a": "x", "b": "2"})); err == nil {
		t.Error("non-numeric compare accepted")
	}
}

func TestAggListErrors(t *testing.T) {
	s := testSim()
	if _, err := s.Complete(context.Background(), BuildPrompt("agg_list", map[string]string{"kind": "nope", "values": "1"})); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if got := ask(t, s, "agg_list", map[string]string{"kind": "sum", "values": ""}); got != "0" {
		t.Errorf("empty sum = %q", got)
	}
}

func TestReduceVariantField(t *testing.T) {
	s := testSim()
	q := "How many questions about football have more than 500 views?"
	r0 := ask(t, s, "reduce_query", map[string]string{
		"query": q, "operator": "Filter", "lr": "[Entity] that [Condition]", "next": "1", "variant": "0",
	})
	r1 := ask(t, s, "reduce_query", map[string]string{
		"query": q, "operator": "Filter", "lr": "[Entity] that [Condition]", "next": "1", "variant": "1",
	})
	if r0 == r1 {
		t.Error("variants produced identical reductions")
	}
	var rr ReduceResult
	json.Unmarshal([]byte(ask(t, s, "reduce_query", map[string]string{
		"query": q, "operator": "Filter", "lr": "[Entity] that [Condition]", "next": "1", "variant": "5",
	})), &rr)
	if rr.OK {
		t.Error("out-of-range variant accepted")
	}
}
