package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"unify/internal/cache"
	"unify/internal/embedding"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/ops"
)

// Planner generates logical plans from natural-language queries by
// iterative query reduction (paper Algorithm 1). It talks to the planning
// model (the paper's Llama-70B) exclusively through prompts, matches
// operators by embedding similarity of logical representations, reranks
// candidates with the model, and constructs the plan DAG with
// LLM-assisted dependency checks.
type Planner struct {
	// Client is the planning model.
	Client llm.Client
	// Embedder embeds logical representations for operator matching.
	Embedder *embedding.Embedder
	// K is the number of candidate operators kept by semantic matching.
	K int
	// NC is the number of candidate plans to generate.
	NC int
	// Tau in (0,1] controls how thoroughly each search path is explored
	// before backtracking when generating multiple plans.
	Tau float64
	// MaxSteps bounds the reduction depth (cycle guard).
	MaxSteps int

	// opIndex holds the precomputed embeddings of every operator logical
	// representation (built once, the paper's offline operator indexing).
	opIndex []opEntry

	// sessions memoises whole planning sessions (see AttachCache); nil
	// plans every query afresh.
	sessions *cache.Layer[*session]
}

type opEntry struct {
	op  string
	lr  string
	vec []float32
}

// NewPlanner builds a planner and precomputes the operator LR embeddings.
func NewPlanner(client llm.Client, emb *embedding.Embedder, k, nc int, tau float64) *Planner {
	p := &Planner{Client: client, Embedder: emb, K: k, NC: nc, Tau: tau, MaxSteps: 24}
	for _, spec := range ops.All() {
		for _, lr := range spec.LRs {
			p.opIndex = append(p.opIndex, opEntry{op: spec.Name, lr: lr, vec: emb.Embed(lr)})
		}
	}
	return p
}

// session is one finished planning session as the shared cache keeps it:
// the candidate plans, sealed and never modified again, and the stats a
// replay of the session over a warm response cache would report — every
// call answered by the cache at zero virtual cost.
type session struct {
	plans []*Plan
	stats PlanStats
}

// sessionCost prices a session for the shared byte budget (an llm.Call
// is 96 bytes).
func sessionCost(s *session) int64 {
	n := int64(64 + 96*len(s.stats.Calls))
	for _, u := range s.stats.Unresolved {
		n += int64(16 + len(u))
	}
	for _, p := range s.plans {
		n += int64(64 + len(p.Query))
		for _, nd := range p.Nodes {
			n += int64(160 + len(nd.LR) + len(nd.Desc) + len(nd.OutVar))
			for k, v := range nd.Args {
				n += int64(32 + len(k) + len(v))
			}
		}
	}
	return n
}

// AttachCache memoises planning sessions on c, the System's shared
// cache, as the layer "session": a repeated question is planned once and
// looked up afterwards. The key is everything a session depends on — the
// planning model, K, NC, Tau, MaxSteps and the query text — and carries
// no corpus generation, because no planner prompt contains a document: a
// session outlives every ingest. A nil c is ignored.
//
// The stored stats are those of a cached replay, so c must be the cache
// Client answers from: a second planning of the question would have found
// every prompt there.
func (p *Planner) AttachCache(c *cache.LRU) {
	p.sessions = cache.NewLayer[*session](c, "session", sessionCost)
}

// sessionKey renders the memo key for query.
func (p *Planner) sessionKey(query string) string {
	name := p.Client.Profile().Name
	b := make([]byte, 0, len(name)+len(query)+48)
	b = append(b, name...)
	b = strconv.AppendInt(append(b, "|k"...), int64(p.K), 10)
	b = strconv.AppendInt(append(b, "|c"...), int64(p.NC), 10)
	b = strconv.AppendFloat(append(b, "|t"...), p.Tau, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|s"...), int64(p.MaxSteps), 10)
	b = append(append(b, '|'), query...)
	return string(b)
}

// PlanStats reports the cost of a planning session. Planning is
// sequential (each prompt depends on the previous answer), so its latency
// is the sum of call durations.
type PlanStats struct {
	Calls    []llm.Call
	Duration time.Duration
	Fallback bool // the Generate fallback was needed
	// Unresolved collects sub-queries no operator could reduce — the
	// paper suggests mining these to design new operators (§V-D).
	Unresolved []string
}

type planSession struct {
	p       *Planner
	ctx     context.Context
	rec     *llm.Recorder
	stats   *PlanStats
	plans   []*Plan
	query   string
	nextVar int
	// best tracks the deepest partial plan for the Generate fallback.
	best        *searchState
	budgetCands int

	// Tracing state: cur is the span of the reduction iteration being
	// explored; traced attaches one LLM-call span per prompt under it.
	// Both are nil-safe when no tracer is installed.
	cur    *obs.Span
	traced *llm.Traced
}

// enter opens a child span under the current one and retargets the
// session's LLM-call spans to it. The returned function restores the
// previous span (the planner's DFS is strictly sequential, so a plain
// save/restore mirrors the search tree).
func (ps *planSession) enter(name, kind string) (*obs.Span, func()) {
	parent := ps.cur
	if parent == nil {
		return nil, func() {}
	}
	child := parent.StartChild(name, kind)
	ps.cur = child
	ps.traced.Attach(child)
	return child, func() {
		child.End()
		ps.cur = parent
		ps.traced.Attach(parent)
	}
}

type searchState struct {
	query string
	plan  *Plan
	vars  map[string]string // var name -> description
}

func (s *searchState) clone() *searchState {
	vars := make(map[string]string, len(s.vars))
	for k, v := range s.vars {
		vars[k] = v
	}
	return &searchState{query: s.query, plan: s.plan.Clone(), vars: vars}
}

// ask issues one planning prompt and returns its text, charging the
// call's simulated duration to the current iteration span.
func (ps *planSession) ask(task string, fields ...llm.Field) (string, error) {
	resp, err := ps.traced.Do(ps.ctx, llm.NewRequest(task, fields...))
	if err != nil {
		return "", err
	}
	ps.cur.AddVDur(resp.Dur)
	return resp.Text, nil
}

// GeneratePlans returns up to NC candidate logical plans for query (at
// least one: the Generate fallback if decomposition fails). The plans are
// sealed: Clone one to change it.
//
// With a cache attached, a question planned before is one lookup: the
// session's shared plans, a copy of its stats the caller may write to
// (Calls and Unresolved stay shared, read-only), and a planning span
// marked cached=true with the session's totals and no children — the
// per-prompt spans of a replay described lookups, not model work, and are
// not re-materialised. Anything else runs Algorithm 1.
func (p *Planner) GeneratePlans(ctx context.Context, query string) ([]*Plan, *PlanStats, error) {
	if p.sessions == nil {
		return p.search(ctx, query)
	}
	key := p.sessionKey(query)
	if s, ok := p.sessions.Get(key); ok {
		stats := s.stats
		pspan := obs.SpanFrom(ctx)
		pspan.SetAttr("cached", "true")
		stampSession(pspan, s.plans, &stats)
		return s.plans, &stats, nil
	}
	plans, stats, err := p.search(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	replay := PlanStats{
		Calls:      make([]llm.Call, len(stats.Calls)),
		Fallback:   stats.Fallback,
		Unresolved: stats.Unresolved,
	}
	for i, c := range stats.Calls {
		c.Cached, c.Dur = true, 0
		replay.Calls[i] = c
	}
	p.sessions.Put(key, &session{plans: plans, stats: replay})
	return plans, stats, nil
}

// stampSession records a session's totals on the planning span.
func stampSession(pspan *obs.Span, plans []*Plan, stats *PlanStats) {
	if stats.Fallback {
		pspan.SetAttr("fallback", "true")
	}
	pspan.SetInt("plans", len(plans))
	pspan.SetInt("llm_calls", len(stats.Calls))
	if n := len(stats.Unresolved); n > 0 {
		pspan.SetInt("unresolved", n)
	}
}

// search runs Algorithm 1.
func (p *Planner) search(ctx context.Context, query string) ([]*Plan, *PlanStats, error) {
	rec := llm.NewRecorder(p.Client)
	pspan := obs.SpanFrom(ctx)
	ps := &planSession{
		p:      p,
		ctx:    ctx,
		rec:    rec,
		stats:  &PlanStats{},
		query:  query,
		cur:    pspan,
		traced: llm.NewTraced(rec, pspan),
	}
	cands := p.K
	if p.Tau > 0 && p.Tau < 1 {
		cands = int(float64(p.K)*p.Tau + 0.9999)
		if cands < 1 {
			cands = 1
		}
	}
	ps.budgetCands = cands

	start := &searchState{
		query: query,
		plan:  &Plan{Query: query},
		vars:  map[string]string{},
	}
	ps.nextVar = 1
	if err := ps.genPlan(start, 0); err != nil {
		return nil, nil, err
	}

	if len(ps.plans) == 0 {
		// Error handling (paper §V-D): restore the most complete partial
		// plan and append a Generate operator for the remaining query.
		ps.stats.Fallback = true
		base := start
		if ps.best != nil {
			base = ps.best
		}
		plan := base.plan.Clone()
		node := &Node{
			ID:     len(plan.Nodes),
			Op:     "Generate",
			LR:     "answer [Condition] from context",
			Args:   ops.Args{"Condition": ps.query},
			Inputs: []string{"dataset"},
			OutVar: fmt.Sprintf("v%d", ps.nextVar),
			Desc:   "generated answer for: " + ps.query,
		}
		// The fallback depends on everything computed so far.
		for _, n := range plan.Nodes {
			node.Deps = append(node.Deps, n.ID)
		}
		ps.nextVar++
		plan.Nodes = append(plan.Nodes, node)
		ps.plans = append(ps.plans, plan)
	}

	h := sha256.New()
	for _, plan := range ps.plans {
		plan.seal(h)
	}
	ps.stats.Calls = rec.Calls()
	ps.stats.Duration = rec.TotalDur()
	stampSession(pspan, ps.plans, ps.stats)
	return ps.plans, ps.stats, nil
}

// genPlan is the recursive DFS of Algorithm 1.
func (ps *planSession) genPlan(st *searchState, depth int) error {
	if len(ps.plans) >= ps.p.NC || depth > ps.p.MaxSteps {
		return nil
	}
	span, leave := ps.enter(fmt.Sprintf("reduce[depth=%d]", depth), obs.KindIter)
	defer leave()
	span.SetAttr("subquery", st.query)
	// End of reduction (SimpleQuestion).
	ans, err := ps.ask("simple_question", llm.Text("query", st.query))
	if err != nil {
		return err
	}
	if strings.TrimSpace(ans) == "yes" {
		span.SetAttr("plan_complete", "true")
		ps.plans = append(ps.plans, st.plan.Clone())
		return nil
	}
	if ps.best == nil || len(st.plan.Nodes) > len(ps.best.plan.Nodes) {
		ps.best = st.clone()
	}

	// Operator matching: semantic parse + embedding filter.
	candidates, err := ps.matchOperators(st.query)
	if err != nil {
		return err
	}
	if len(candidates) == 0 {
		ps.stats.Unresolved = append(ps.stats.Unresolved, st.query)
		return nil
	}
	// Rerank with the model by solving degree.
	type ranked struct {
		cand  opCandidate
		deg   int // 2 fully, 1 partially, 0 not
		order int
	}
	var rankedList []ranked
	varDescs := describeVars(st.vars)
	for i, c := range candidates {
		deg, err := ps.ask("rerank_op",
			llm.Text("query", st.query),
			llm.Text("operator", c.op),
			llm.Text("vars", varDescs),
		)
		if err != nil {
			return err
		}
		d := 0
		switch strings.TrimSpace(deg) {
		case "fully":
			d = 2
		case "partially":
			d = 1
		}
		rankedList = append(rankedList, ranked{c, d, i})
	}
	sort.SliceStable(rankedList, func(i, j int) bool {
		if rankedList[i].deg != rankedList[j].deg {
			return rankedList[i].deg > rankedList[j].deg
		}
		return rankedList[i].order < rankedList[j].order
	})

	tried := 0
	seenReduced := map[string]bool{}
	for _, r := range rankedList {
		// Candidates the model ranked "not solving" are still attempted
		// (last): the rerank orders the list, but only the reduction
		// prompt decides applicability (Algorithm 1 iterates the list).
		//
		// Each candidate operator is additionally asked for alternative
		// matched segments (e.g. which of several filters to reduce
		// first), which is where candidate-plan diversity comes from.
		for variant := 0; variant < 3; variant++ {
			if len(ps.plans) >= ps.p.NC {
				return nil
			}
			if tried >= ps.budgetCands && len(ps.plans) > 0 {
				// Plan-diversity budget (tau): once a plan exists, curb
				// how deeply each branch is explored before backtracking.
				return nil
			}
			next, ok, err := ps.tryReduce(st, r.cand, variant)
			if err != nil {
				return err
			}
			if !ok {
				break // no further segments for this operator
			}
			if seenReduced[next.query] {
				continue // an equivalent reduction was already explored
			}
			seenReduced[next.query] = true
			tried++
			if err := ps.genPlan(next, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}

type opCandidate struct {
	op   string
	lr   string
	dist float64
}

// matchOperators parses the query into its logical representation and
// returns the top-K operators by embedding distance (paper §V-A).
func (ps *planSession) matchOperators(query string) ([]opCandidate, error) {
	span, leave := ps.enter("semantic_parse", obs.KindPhase)
	defer leave()
	out, err := ps.ask("parse_query", llm.Text("query", query))
	if err != nil {
		return nil, err
	}
	var parsed struct {
		OK bool   `json:"ok"`
		LR string `json:"lr"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil || !parsed.OK {
		span.SetAttr("grounded", "false")
		return nil, nil // ungroundable query: triggers fallback upstream
	}
	span.SetAttr("lr", parsed.LR)
	qv := ps.p.Embedder.Embed(parsed.LR)
	best := map[string]opCandidate{}
	for _, e := range ps.p.opIndex {
		d := embedding.Distance(qv, e.vec)
		cur, seen := best[e.op]
		if !seen || d < cur.dist {
			best[e.op] = opCandidate{op: e.op, lr: e.lr, dist: d}
		}
	}
	cands := make([]opCandidate, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].op < cands[j].op
	})
	if len(cands) > ps.p.K {
		cands = cands[:ps.p.K]
	}
	return cands, nil
}

// tryReduce asks the model to reduce the query with the candidate
// operator, extracts the operator arguments from the rewritten segment,
// and extends the plan with dependency checking (paper §V-B, §V-C).
func (ps *planSession) tryReduce(st *searchState, cand opCandidate, variant int) (*searchState, bool, error) {
	out, err := ps.ask("reduce_query",
		llm.Text("query", st.query),
		llm.Text("operator", cand.op),
		llm.Text("lr", cand.lr),
		llm.Text("next", strconv.Itoa(ps.nextVar)),
		llm.Text("variant", strconv.Itoa(variant)),
	)
	if err != nil {
		return nil, false, err
	}
	var red struct {
		OK        bool              `json:"ok"`
		Reduced   string            `json:"reduced"`
		Rewritten string            `json:"rewritten"`
		Var       string            `json:"var"`
		Desc      string            `json:"desc"`
		Inputs    []string          `json:"inputs"`
		Args      map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(out), &red); err != nil || !red.OK {
		return nil, false, nil
	}

	// Extract the operator inputs from the rewritten segment using the
	// logical representation's compiled regular expression.
	spec, ok := ops.Get(cand.op)
	if !ok {
		return nil, false, fmt.Errorf("core: unknown operator %q", cand.op)
	}
	tmpl := spec.Template(cand.lr)
	if tmpl == nil {
		return nil, false, nil
	}
	slots, ok := tmpl.Extract(red.Rewritten)
	if !ok {
		// The rewrite did not follow the template: treat as a failed
		// reduction and let the search try another operator.
		return nil, false, nil
	}
	// Merge slots the matched template does not carry from the model's
	// structured output (the prompt's enforced output format).
	args := ops.Args(slots)
	for k, v := range red.Args {
		if _, present := args[k]; !present {
			args[k] = v
		}
	}
	enrichArgs(args, red.Rewritten)

	next := st.clone()
	node := &Node{
		ID:     len(next.plan.Nodes),
		Op:     cand.op,
		LR:     cand.lr,
		Args:   args,
		Inputs: red.Inputs,
		OutVar: red.Var,
		Desc:   red.Desc,
	}
	// Dependency check in reverse order with transitivity (paper §V-C).
	deps, err := ps.findDeps(next.plan, node)
	if err != nil {
		return nil, false, err
	}
	node.Deps = deps
	next.plan.Nodes = append(next.plan.Nodes, node)
	next.vars[red.Var] = red.Desc
	next.query = red.Reduced
	ps.nextVar++
	return next, true, nil
}

// findDeps determines the direct prerequisites of a new node: transitive
// prerequisites are resolved without the model; direct input/output
// relationships are checked with dep_check prompts.
func (ps *planSession) findDeps(plan *Plan, node *Node) ([]int, error) {
	inputs := strings.Join(node.Inputs, ", ")
	isAncestor := map[int]bool{}
	var deps []int
	// Reverse order over preceding operators.
	for i := len(plan.Nodes) - 1; i >= 0; i-- {
		prev := plan.Nodes[i]
		if isAncestor[prev.ID] {
			// Already reachable through a found prerequisite; the
			// transitivity property makes an LLM check unnecessary.
			markAncestors(plan, prev, isAncestor)
			continue
		}
		ans, err := ps.ask("dep_check",
			llm.Text("output", "{"+prev.OutVar+"}"),
			llm.Text("inputs", inputs),
		)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(ans) == "yes" {
			deps = append(deps, prev.ID)
			isAncestor[prev.ID] = true
			markAncestors(plan, prev, isAncestor)
		}
	}
	sort.Ints(deps)
	return deps, nil
}

func markAncestors(plan *Plan, n *Node, anc map[int]bool) {
	for _, d := range n.Deps {
		if !anc[d] {
			anc[d] = true
			markAncestors(plan, plan.Node(d), anc)
		}
	}
}

// enrichArgs backfills bindings that common templates omit.
func enrichArgs(args ops.Args, rewritten string) {
	if _, ok := args["Expression"]; !ok {
		if a, b := args["Entity"], args["Entity2"]; a != "" && b != "" &&
			strings.Contains(rewritten, "ratio") {
			args["Expression"] = a + " / " + b
		}
	}
}

func describeVars(vars map[string]string) string {
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, v := range names {
		fmt.Fprintf(&b, "{%s}: %s\n", v, vars[v])
	}
	return b.String()
}
