package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Start("query", KindQuery)
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every span operation must be a safe no-op on nil.
	c := s.StartChild("child", KindPhase)
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetAttr("k", "v")
	s.SetInt("n", 3)
	s.SetVDur(time.Second)
	s.AddVDur(time.Second)
	s.End()
	s.Adopt(s.NewDetached("d", KindNode))
	if s.VDur() != 0 || s.WallDur() != 0 || s.Attr("k") != "" {
		t.Error("nil span reported non-zero state")
	}
	if got := Render(s); got != "" {
		t.Errorf("nil span rendered %q", got)
	}
	if s.JSON() != nil {
		t.Error("nil span produced JSON")
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("tracer not propagated")
	}
	root := TracerFrom(ctx).Start("query", KindQuery)
	root.SetAttr("query", "how many?")
	ctx = WithSpan(ctx, root)
	if SpanFrom(ctx) != root {
		t.Fatal("span not propagated")
	}

	plan := root.StartChild("planning", KindPhase)
	plan.SetVDur(3 * time.Second)
	plan.SetInt("llm_calls", 7)
	plan.End()
	exec := root.StartChild("execute", KindPhase)
	node := exec.NewDetached("node[0] Filter", KindNode)
	node.SetVDur(2 * time.Second)
	node.End()
	exec.Adopt(node)
	exec.SetVDur(2 * time.Second)
	exec.End()
	root.SetVDur(5 * time.Second)
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	if f := root.Find("node[0] Filter"); f == nil || f.VDur() != 2*time.Second {
		t.Errorf("Find failed: %v", f)
	}

	out := Render(root)
	for _, want := range []string{"query", "├─ planning", "└─ execute", "node[0] Filter", "llm_calls=7", "vtime=3.00s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	j := root.JSON()
	if j.Name != "query" || len(j.Children) != 2 || j.VTimeSecs != 5 {
		t.Errorf("JSON form wrong: %+v", j)
	}
	if j.Attrs["query"] != "how many?" {
		t.Errorf("JSON attrs = %v", j.Attrs)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTracer().Start("query", KindQuery)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild("llm", KindLLM)
			c.SetInt("i", i)
			c.AddVDur(time.Millisecond)
			c.End()
		}(i)
	}
	wg.Wait()
	if got := len(root.Children()); got != 32 {
		t.Errorf("children = %d, want 32", got)
	}
}

func TestSetAttrOverwrites(t *testing.T) {
	s := NewTracer().Start("s", KindPhase)
	s.SetAttr("k", "a")
	s.SetAttr("k", "b")
	if v := s.Attr("k"); v != "b" {
		t.Errorf("attr = %q", v)
	}
	if n := len(s.Attrs()); n != 1 {
		t.Errorf("attrs len = %d", n)
	}
}
