package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unify"
	"unify/internal/core"
	"unify/internal/exec"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/optimizer"
	"unify/internal/sched"
	"unify/internal/usql"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one query share TraceID; ParentID is 0 at a root.
// Times are nanoseconds since the process started.
type span struct {
	TraceID  int64  `json:"trace_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written when the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

// openSpan is a started span; end records it.
type openSpan struct {
	rec *recorder
	s   span
}

func (r *recorder) start(trace, parent int64, name string) *openSpan {
	return &openSpan{rec: r, s: span{
		TraceID: trace, SpanID: r.ids.Add(1), ParentID: parent,
		Name: name, StartNS: int64(time.Since(processStart)),
	}}
}

func (o *openSpan) end() {
	o.s.EndNS = int64(time.Since(processStart))
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentKey carries the span a model call should hang under.
type parentKey struct{}

func withParent(ctx context.Context, o *openSpan) context.Context {
	return context.WithValue(ctx, parentKey{}, o)
}

// timedClient is the timing decorator around a model client. It sits
// below the System's response cache, so it sees exactly the calls the
// model really serves. It always counts calls and busy time; it records a
// span only for calls made under a traced query.
type timedClient struct {
	inner llm.Client
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds

	mu      sync.Mutex
	prompts []string // the first maxKeptPrompts prompts, for the prompt probes
}

const maxKeptPrompts = 512

// Complete implements llm.Client.
func (t *timedClient) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	var o *openSpan
	if p, ok := ctx.Value(parentKey{}).(*openSpan); ok {
		o = p.rec.start(p.s.TraceID, p.s.SpanID, "llm.sim")
	}
	start := time.Now()
	resp, err := t.inner.Complete(ctx, prompt)
	t.busy.Add(int64(time.Since(start)))
	t.calls.Add(1)
	if o != nil {
		o.end()
	}
	t.mu.Lock()
	if len(t.prompts) < maxKeptPrompts {
		t.prompts = append(t.prompts, prompt)
	}
	t.mu.Unlock()
	return resp, err
}

// Profile implements llm.Client.
func (t *timedClient) Profile() llm.Profile { return t.inner.Profile() }

// phased is what one outside-in query learned beyond its spans.
type phased struct {
	text      string
	planCalls int // planner model calls (0 on the USQL route)
	sceCalls  int // estimator model calls made inside Optimize
}

// phasedQuery replays System.Query's sequence from outside, through the
// exported layer objects, with one span per layer call: admit to the slot
// pool, plan (or parse and compile USQL), optimize, execute, format,
// retain the trace. It installs the same obs tracer and phase spans Query
// does, so the layers do the same work; it skips only Query's private
// metrics recording and its execution fallback.
func phasedQuery(ctx context.Context, rec *recorder, sys *unify.System, q string) (phased, error) {
	var out phased
	root := rec.start(rec.ids.Add(1), 0, "query")
	defer root.end()
	layer := func(name string) (*openSpan, context.Context) {
		o := rec.start(root.s.TraceID, root.s.SpanID, name)
		return o, withParent(ctx, o)
	}

	if sys.Traces != nil {
		ctx = obs.WithTracer(ctx, obs.NewTracer())
	}
	qspan := obs.TracerFrom(ctx).Start("query", obs.KindQuery)
	qspan.SetAttr("query", q)
	tk := sys.Pool.Admit(0)
	defer sys.Pool.Release(tk)
	ctx = sched.WithTicket(ctx, tk)

	var (
		plans     []*core.Plan
		pstats    = &core.PlanStats{}
		canonical string
		err       error
	)
	if unify.DetectLanguage(q) == unify.LangUSQL {
		o, _ := layer("usql.compile")
		pspan := qspan.StartChild("parse", obs.KindPhase)
		uq, perr := usql.Parse(q)
		if perr != nil {
			o.end()
			return out, perr
		}
		compiled, cerr := usql.Compile(uq, usql.Env{Dataset: sys.Dataset.Name, Entity: sys.Dataset.EntityWord})
		pspan.End()
		o.end()
		if cerr != nil {
			return out, cerr
		}
		canonical = uq.String()
		plans = []*core.Plan{compiled}
	} else {
		o, lctx := layer("core.plan")
		pspan := qspan.StartChild("planning", obs.KindPhase)
		plans, pstats, err = sys.Planner.GeneratePlans(obs.WithSpan(lctx, pspan), q)
		pspan.End()
		o.end()
		if err != nil {
			return out, err
		}
	}
	out.planCalls = len(pstats.Calls)

	o, lctx := layer("optimizer.optimize")
	ospan := qspan.StartChild("optimize", obs.KindPhase)
	var (
		plan   *core.Plan
		ostats *optimizer.Stats
	)
	if canonical != "" {
		plan, ostats, err = sys.Optimizer.OptimizeParsed(obs.WithSpan(lctx, ospan), canonical, plans[0])
	} else {
		plan, ostats, err = sys.Optimizer.Optimize(obs.WithSpan(lctx, ospan), plans)
	}
	ospan.End()
	o.end()
	if err != nil {
		return out, err
	}
	out.sceCalls = len(ostats.Calls)

	o, lctx = layer("exec.run")
	espan := qspan.StartChild("execute", obs.KindPhase)
	var res *exec.Result
	res, err = sys.Executor.Run(obs.WithSpan(lctx, espan), plan)
	espan.End()
	o.end()
	if err != nil {
		return out, err
	}

	o, _ = layer("format")
	out.text = sys.FormatValue(res.Answer)
	o.end()

	o, _ = layer("obs.retain")
	qspan.End()
	total := pstats.Duration + ostats.Duration/time.Duration(sys.Config.Slots) + res.Makespan
	sys.Traces.Put(fmt.Sprintf("t-%d", tk.Seq()+1), tk.Seq(), "ok", q, total,
		len(pstats.Calls)+len(ostats.Calls)+res.LLMCalls, len(res.Nodes), qspan)
	o.end()
	return out, nil
}

// layerTimes is the per-layer reading of a set of spans.
type layerTimes struct {
	self    map[string]time.Duration // span name -> Σ (duration − part covered by children)
	count   map[string]int           // span name -> spans
	queries time.Duration            // Σ duration of query spans
	model   time.Duration            // Σ part of a layer span its model-call children cover
}

// analyse computes each layer's self time: a span's duration minus the
// part of that interval its child spans cover. Children may overlap (the
// executor runs plan nodes in parallel), so coverage is the union.
func analyse(spans []span) layerTimes {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	lt := layerTimes{self: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range spans {
		dur := time.Duration(s.EndNS - s.StartNS)
		cover := covered(s, children[s.SpanID])
		lt.self[s.Name] += dur - cover
		lt.count[s.Name]++
		switch {
		case s.Name == "query":
			lt.queries += dur
		case s.ParentID != 0:
			lt.model += cover
		}
	}
	return lt
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, end int64 = 0, s.StartNS
	for _, k := range kids {
		lo, hi := k.StartNS, k.EndNS
		if lo < end {
			lo = end
		}
		if hi > s.EndNS {
			hi = s.EndNS
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}
