// Package optimizer lowers logical plans to physical plans (paper §VI):
// it estimates intermediate cardinalities with semantic cardinality
// estimation, reorders filters so selective ones run first, selects a
// physical implementation per operator with the cost model, and picks the
// cheapest candidate plan by simulating its schedule on the machine model.
package optimizer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"unify/internal/cache"
	"unify/internal/core"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/nlcond"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/sce"
	"unify/internal/values"
	"unify/internal/views"
	"unify/internal/vtime"
)

// Mode selects the optimization strategy (for the paper's ablations).
type Mode int

// Optimization modes.
const (
	// CostBased is full Unify optimization: SCE-driven ordering and
	// cost-based physical selection.
	CostBased Mode = iota
	// Rule performs no cost-based optimization: it keeps the planner's
	// operator order and picks physicals only by semantic requirements
	// (randomly among adequate ones) — the Unify-Rule baseline.
	Rule
	// GroundTruth uses true cardinalities instead of SCE — the Unify-GD
	// upper bound.
	GroundTruth
)

// Objective selects what the cost model minimizes (the paper's footnote
// 1: the method optimizes total execution time by default, and total
// monetary cost by swapping the cost function).
type Objective int

// Optimization objectives.
const (
	// MinTime minimizes the plan's simulated makespan (default).
	MinTime Objective = iota
	// MinTokens minimizes the total generated tokens (a proxy for
	// dollar cost), ignoring parallelism.
	MinTokens
)

// Optimizer converts logical plans into physical plans.
type Optimizer struct {
	Store     *docstore.Store
	Estimator *sce.Estimator
	Calib     *cost.Calibrator
	Mode      Mode
	// Objective selects the quantity the plan-selection step minimizes.
	Objective Objective
	// Slots is the LLM server slot count of the machine model (per
	// machine when Machines > 1).
	Slots int
	// Machines is the simulated cluster width. Above 1, decomposable
	// LLM-based operators over sharded document sets may be scattered
	// across machines when the cost model says the fan-out beats the
	// merge overhead; at 1 (or 0) plans are exactly the single-machine
	// plans.
	Machines int
	// Views, when non-nil, is the materialized semantic view store. A
	// filter whose column fully covers the corpus (every row fresh) is
	// costed like a cache hit: the executor will serve every verdict from
	// the view, so the node's LLM work estimate drops to zero and the
	// index-scan shortcut is suppressed (a full view read is both exact
	// and free).
	Views *views.Store
	// SampleFrac is the SCE sampling budget as a fraction of the corpus.
	SampleFrac float64
	// Seed drives Rule-mode random selections.
	Seed uint64

	// sel is the bounded selectivity cache (replaces the old unbounded
	// per-Optimizer map): estimates are shared across candidate plans and
	// across queries, and concurrent queries coalesce onto one estimate.
	sel *cache.Layer[float64]
	// plans caches the chosen physical plan per normalized candidate-set
	// signature, so repeated queries skip estimation and lowering.
	plans *cache.Layer[planEntry]
}

// planEntry is one cached optimization outcome.
type planEntry struct {
	plan *core.Plan
	cost time.Duration
}

// planEntryCost prices a cached plan for the byte budget.
func planEntryCost(e planEntry) int64 {
	var n int64 = 64
	for _, nd := range e.plan.Nodes {
		n += 128 + int64(len(nd.Desc)+len(nd.OutVar)+len(nd.Phys))
		for k, v := range nd.Args {
			n += int64(len(k) + len(v))
		}
	}
	return n
}

// Stats reports optimization cost (SCE judgments are LLM work and are
// charged to the planning clock).
type Stats struct {
	Calls    []llm.Call
	Duration time.Duration
	// EstimatedCost is the predicted makespan of the chosen plan.
	EstimatedCost time.Duration
	// PlanCacheHit reports that the whole optimization was served from
	// the plan cache (no estimation or lowering ran).
	PlanCacheHit bool
}

// New returns an optimizer. Its caches start on a small private LRU;
// AttachCache rebinds them to a shared, observable cache.
func New(store *docstore.Store, est *sce.Estimator, calib *cost.Calibrator, slots int) *Optimizer {
	if slots < 1 {
		slots = 4
	}
	o := &Optimizer{
		Store:      store,
		Estimator:  est,
		Calib:      calib,
		Slots:      slots,
		SampleFrac: 0.01,
		Seed:       11,
	}
	o.AttachCache(cache.New(4 << 20))
	return o
}

// WithMode returns a shallow per-mode view of the optimizer: it shares
// the caches, estimator, and calibrator but optimizes under a different
// strategy. Safe for per-query mode overrides — plan-cache signatures
// include the mode, so the views never serve each other stale plans.
func (o *Optimizer) WithMode(m Mode) *Optimizer {
	if m == o.Mode {
		return o
	}
	cp := *o
	cp.Mode = m
	return &cp
}

// AttachCache rebinds the selectivity and plan caches to c (the System's
// shared cache), making their hit/miss/eviction counters observable. A
// nil c is ignored: the private cache from New stays in place.
func (o *Optimizer) AttachCache(c *cache.LRU) {
	if c == nil {
		return
	}
	o.sel = cache.NewLayer[float64](c, "selectivity", func(float64) int64 { return 16 })
	o.plans = cache.NewLayer[planEntry](c, "plan", planEntryCost)
}

// Optimize selects and returns the cheapest physical plan among the
// candidates (paper §VI-C: operator order selection, physical operator
// selection, plan selection).
func (o *Optimizer) Optimize(ctx context.Context, plans []*core.Plan) (*core.Plan, *Stats, error) {
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no candidate plans")
	}
	return o.optimize(ctx, o.planSignature(plans), plans)
}

// OptimizeParsed optimizes a single parser-compiled (USQL) plan. It runs
// the same estimation/reordering/lowering pipeline as Optimize but keys
// the plan cache with ParsedSignature over the canonical query text —
// an exact key, not an NL-normalized candidate-set hash — so repeated
// parameterized queries hit the cache whenever their canonical forms
// match byte-for-byte.
func (o *Optimizer) OptimizeParsed(ctx context.Context, canonical string, plan *core.Plan) (*core.Plan, *Stats, error) {
	if plan == nil {
		return nil, nil, fmt.Errorf("optimizer: no parsed plan")
	}
	return o.optimize(ctx, o.ParsedSignature(canonical), []*core.Plan{plan})
}

// optimize is the shared body of Optimize and OptimizeParsed: plan-cache
// lookup under the provided key, then per-candidate estimation,
// lowering, and cost-based selection on a miss.
func (o *Optimizer) optimize(ctx context.Context, key string, plans []*core.Plan) (*core.Plan, *Stats, error) {
	stats := &Stats{}
	ospan := obs.SpanFrom(ctx)
	if e, ok := o.plans.Get(key); ok {
		// Repeated workload: the whole optimization (estimation, filter
		// reordering, physical lowering, plan selection) is skipped.
		stats.EstimatedCost = e.cost
		stats.PlanCacheHit = true
		ospan.SetAttr("plan_cache", "hit")
		return e.plan.Clone(), stats, nil
	}
	var best *core.Plan
	var bestSpan *obs.Span
	bestCost := time.Duration(math.MaxInt64)
	for i, logical := range plans {
		plan := logical.Clone()
		// The deferred Ends only matter on the error returns below (End is
		// idempotent); a failed optimization must not retain open spans.
		cspan := ospan.StartChild(fmt.Sprintf("candidate[%d]", i), obs.KindPhase)
		defer cspan.End()
		cspan.SetInt("nodes", len(plan.Nodes))
		if o.Mode == CostBased || o.Mode == GroundTruth {
			// Cardinality estimation (SCE) drives the filter reordering;
			// its LLM judgments are the optimizer's only model cost.
			espan := cspan.StartChild("estimate_cardinality", obs.KindPhase)
			defer espan.End()
			durBefore, callsBefore := stats.Duration, len(stats.Calls)
			if err := o.reorderFilters(ctx, plan, stats); err != nil {
				return nil, nil, err
			}
			espan.SetVDur(stats.Duration - durBefore)
			espan.SetInt("llm_calls", len(stats.Calls)-callsBefore)
			espan.End()
		}
		lspan := cspan.StartChild("lower_physical", obs.KindPhase)
		defer lspan.End()
		durBefore, callsBefore := stats.Duration, len(stats.Calls)
		if err := o.selectPhysical(ctx, plan, stats); err != nil {
			return nil, nil, err
		}
		lspan.SetVDur(stats.Duration - durBefore)
		lspan.SetInt("llm_calls", len(stats.Calls)-callsBefore)
		lspan.End()
		c, err := o.planCost(plan)
		if err != nil {
			return nil, nil, err
		}
		cspan.SetAttr("est_cost", c.String())
		cspan.End()
		if o.Mode == Rule {
			// Rule mode performs no cost-based plan selection: the first
			// candidate wins.
			cspan.SetAttr("chosen", "true")
			stats.EstimatedCost = c
			o.plans.Put(key, planEntry{plan: plan.Clone(), cost: c})
			return plan, stats, nil
		}
		if c < bestCost {
			bestCost = c
			best = plan
			bestSpan = cspan
		}
	}
	bestSpan.SetAttr("chosen", "true")
	stats.EstimatedCost = bestCost
	o.plans.Put(key, planEntry{plan: best.Clone(), cost: bestCost})
	return best, stats, nil
}

// knobs is the common prefix of every optimizer cache key: each setting
// that changes an optimization outcome, plus the corpus size and
// generation. It is the only place the corpus generation enters a cache
// key — a mutation bumps it, so every plan and selectivity derived from
// the old corpus becomes unreachable at once and ages out of the LRU.
func (o *Optimizer) knobs() string {
	return fmt.Sprintf("m%d|o%d|s%d|c%d|f%g|n%d|g%d", o.Mode, o.Objective, o.Slots, o.machines(), o.SampleFrac, o.Store.Len(), o.Store.Generation())
}

// planSignature is the plan-cache key of a candidate set: every optimizer
// knob that changes the outcome, hashed over the candidates' content
// digests (core.Plan.Digest — knob-free, and already computed on plans
// the planner returned, so a repeated question costs this one small
// hash). Rule mode additionally hashes the seed and the query text (its
// pseudo-random picks depend on them).
func (o *Optimizer) planSignature(plans []*core.Plan) string {
	h := sha256.New()
	io.WriteString(h, o.knobs())
	if o.Mode == Rule {
		fmt.Fprintf(h, "|seed%d", o.Seed)
		if len(plans) > 0 {
			fmt.Fprintf(h, "|q%s", plans[0].Query)
		}
	}
	io.WriteString(h, "\x1e")
	for _, p := range plans {
		d := p.Digest()
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ParsedSignature is the exact plan-cache key for a parsed (USQL) query:
// the canonical query text plus every optimizer knob that changes the
// outcome — including Machines and mode, so parsed plans never leak
// across cluster widths or optimization strategies (the same invariant
// planSignature enforces for planned queries). Parsing is deterministic,
// so hashing the canonical text is equivalent to hashing the compiled
// plan, and byte-equal parameterized queries always collide.
func (o *Optimizer) ParsedSignature(canonical string) string {
	h := sha256.New()
	io.WriteString(h, "usql|"+o.knobs())
	if o.Mode == Rule {
		fmt.Fprintf(h, "|seed%d", o.Seed)
	}
	fmt.Fprintf(h, "|q%s", canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// Reoptimize re-invokes physical lowering on the un-executed suffix of a
// partially executed plan (the paper's §V dynamic replanning): known maps
// variable tokens ("{v1}") to their OBSERVED signatures, which replace
// the SCE estimates for everything downstream. Nodes whose output is
// already known are left untouched; every other node gets a fresh
// physical selection and EstCard under the corrected cardinalities. The
// returned duration is the simulated cost of any estimation the replan
// performed (charged to the execution clock by the caller). The plan
// cache is bypassed: replanned plans are query-state-specific.
func (o *Optimizer) Reoptimize(ctx context.Context, plan *core.Plan, known map[string]core.Known) (time.Duration, error) {
	order, err := plan.Topo()
	if err != nil {
		return 0, err
	}
	stats := &Stats{}
	vars := map[string]sig{
		"dataset": {kind: values.Docs, card: o.Store.Len()},
	}
	for tok, k := range known {
		vars[tok] = sig{kind: k.Kind, card: k.Card, groups: k.Groups}
	}
	for _, n := range order {
		if _, done := known["{"+n.OutVar+"}"]; done {
			continue
		}
		ins := make([]sig, len(n.Inputs))
		for i, ref := range n.Inputs {
			s, ok := vars[ref]
			if !ok {
				s = vars["dataset"]
			}
			ins[i] = s
		}
		out, err := o.lowerNode(ctx, plan, n, ins, stats)
		if err != nil {
			return stats.Duration, err
		}
		vars["{"+n.OutVar+"}"] = out
	}
	return stats.Duration, nil
}

// --- selectivity estimation ---

// selectivity estimates the fraction of documents satisfying a condition,
// caching per condition text: candidate plans of one query and repeated
// queries share one estimate, and only the computing caller is charged
// the estimation's LLM cost (cache hits are free).
func (o *Optimizer) selectivity(ctx context.Context, condText string, stats *Stats) (float64, error) {
	// The corpus generation is part of the key (via knobs): after a
	// mutation the fraction of matching documents may change, and a stale
	// cached selectivity would silently miscost every candidate plan.
	sel, _, err := o.sel.GetOrCompute(o.knobs()+"|"+condText, func() (float64, error) {
		return o.estimateSelectivity(ctx, condText, stats)
	})
	return sel, err
}

// estimateSelectivity is the uncached estimate, charging its LLM calls to
// stats.
func (o *Optimizer) estimateSelectivity(ctx context.Context, condText string, stats *Stats) (float64, error) {
	n := o.Store.Len()
	if n == 0 {
		return 0, nil
	}
	cond, ok := nlcond.Parse(condText)
	sel := 0.3 // prior for unparseable conditions
	switch {
	case ok && cond.Structured():
		// Structured conditions: cheap exact sampling with regexes (a
		// pre-programmed synopsis, no LLM involved).
		sample := 256
		if sample > n {
			sample = n
		}
		hit := 0
		step := n / sample
		if step < 1 {
			step = 1
		}
		seen := 0
		for i := 0; i < n && seen < sample; i += step {
			d := o.Store.Docs[i]
			if cond.EvalStructured(d.Text) {
				hit++
			}
			seen++
		}
		if seen > 0 {
			sel = float64(hit) / float64(seen)
		}
	case o.Mode == GroundTruth:
		truth, err := o.Estimator.TrueCardinality(ctx, condText, 16)
		if err != nil {
			return 0, err
		}
		sel = float64(truth) / float64(n)
	default:
		ns := int(float64(n) * o.SampleFrac)
		est, calls, err := o.Estimator.Estimate(ctx, sce.Unify, condText, ns)
		if err != nil {
			return 0, err
		}
		stats.Calls = append(stats.Calls, calls...)
		for _, c := range calls {
			stats.Duration += c.Dur
		}
		sel = est / float64(n)
	}
	if sel < 0.001 {
		sel = 0.001
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

// --- filter ordering ---

// reorderFilters finds linear chains of Filter nodes and permutes their
// conditions so that cheap structured filters run first and semantic
// filters run in increasing selectivity order (most selective first),
// minimizing the documents reaching expensive operators.
func (o *Optimizer) reorderFilters(ctx context.Context, plan *core.Plan, stats *Stats) error {
	consumers := map[int]int{} // node id -> number of dependents
	for _, n := range plan.Nodes {
		for _, d := range n.Deps {
			consumers[d]++
		}
	}
	visited := map[int]bool{}
	for _, n := range plan.Nodes {
		if visited[n.ID] || !isFilterOp(n.Op) {
			continue
		}
		// Walk down the chain starting from a filter whose input is not
		// another exclusive filter.
		chain := []*core.Node{n}
		visited[n.ID] = true
		cur := n
		for {
			next := o.soleFilterConsumer(plan, cur, consumers)
			if next == nil {
				break
			}
			chain = append(chain, next)
			visited[next.ID] = true
			cur = next
		}
		if len(chain) < 2 {
			continue
		}
		type condInfo struct {
			cond string
			sel  float64
			pre  bool
		}
		infos := make([]condInfo, len(chain))
		for i, c := range chain {
			condText := c.Args.Get("Condition")
			sel, err := o.selectivity(ctx, condText, stats)
			if err != nil {
				return err
			}
			cond, ok := nlcond.Parse(condText)
			infos[i] = condInfo{cond: condText, sel: sel, pre: ok && cond.Structured()}
		}
		sort.SliceStable(infos, func(i, j int) bool {
			if infos[i].pre != infos[j].pre {
				return infos[i].pre // free structured filters first
			}
			return infos[i].sel < infos[j].sel
		})
		// Permute the conditions across the chain's nodes, keeping the
		// node/variable wiring intact (descriptions follow the moved
		// conditions).
		for i, c := range chain {
			c.Args["Condition"] = infos[i].cond
			c.Desc = c.Args.Get("Entity") + " " + infos[i].cond
		}
	}
	return nil
}

func isFilterOp(op string) bool { return op == "Filter" || op == "Scan" }

// soleFilterConsumer returns the next filter in a linear chain: the only
// node consuming cur's output, itself a filter with cur as its only dep.
func (o *Optimizer) soleFilterConsumer(plan *core.Plan, cur *core.Node, consumers map[int]int) *core.Node {
	if consumers[cur.ID] != 1 {
		return nil
	}
	for _, n := range plan.Nodes {
		for _, d := range n.Deps {
			if d == cur.ID {
				if isFilterOp(n.Op) && len(n.Deps) == 1 {
					return n
				}
				return nil
			}
		}
	}
	return nil
}

// --- cardinality propagation and physical selection ---

// sig is the optimizer's static signature of a variable: expected value
// kind and cardinalities.
type sig struct {
	kind   values.Kind
	card   int // documents (Docs/Groups) or entries (Vec/Labels)
	groups int // group count for Groups
}

func (o *Optimizer) selectPhysical(ctx context.Context, plan *core.Plan, stats *Stats) error {
	order, err := plan.Topo()
	if err != nil {
		return err
	}
	vars := map[string]sig{
		"dataset": {kind: values.Docs, card: o.Store.Len()},
	}
	for _, n := range order {
		ins := make([]sig, len(n.Inputs))
		for i, ref := range n.Inputs {
			s, ok := vars[ref]
			if !ok {
				s = vars["dataset"]
			}
			ins[i] = s
		}
		out, err := o.lowerNode(ctx, plan, n, ins, stats)
		if err != nil {
			return err
		}
		vars["{"+n.OutVar+"}"] = out
	}
	return nil
}

// dummyValue fabricates a value of the right kind for adequacy checks.
func dummyValue(s sig) values.Value {
	switch s.kind {
	case values.Docs:
		return values.Value{Kind: values.Docs, DocIDs: make([]int, s.card)}
	case values.Groups:
		g := make([]values.Group, s.groups)
		return values.Value{Kind: values.Groups, GroupVal: g}
	case values.Vec:
		return values.Value{Kind: values.Vec, VecVal: make([]values.LabeledNum, s.card)}
	case values.Labels:
		return values.Value{Kind: values.Labels, LabelVal: make([]string, s.card)}
	case values.Num:
		return values.NewNum(0)
	default:
		return values.NewStr("")
	}
}

// lowerNode picks the physical implementation for one node and returns
// the output signature.
func (o *Optimizer) lowerNode(ctx context.Context, plan *core.Plan, n *core.Node, ins []sig, stats *Stats) (sig, error) {
	spec, ok := ops.Get(n.Op)
	if !ok {
		return sig{}, fmt.Errorf("optimizer: unknown operator %q", n.Op)
	}
	inCard := 0
	if len(ins) > 0 {
		inCard = ins[0].card
	}

	// Output signature and per-candidate work estimation.
	outSig, work := o.propagate(ctx, n, ins, stats)
	n.EstCard = outSig.card

	// Materialized-view coverage: when every corpus document has a fresh
	// row in this condition's filter column, a full SemanticFilter pass
	// reads entirely from the view — exact and model-free. Mark the node
	// so costing treats it as zero LLM work, and skip the index-scan
	// shortcut (a shortlist would only lose recall for nothing).
	viewed := false
	delete(n.Args, "_viewed")
	if o.Views != nil && o.Mode != Rule && n.Op == "Filter" && len(n.Inputs) == 1 && n.Inputs[0] == "dataset" {
		if c, okc := nlcond.Parse(n.Args.Get("Condition")); okc && !c.Structured() {
			col := views.FilterColumn(n.Args.Get("Condition"))
			if o.Views.Covers(col, o.Store.IDs(), o.Store.ContentHash) {
				viewed = true
				n.Args["_viewed"] = "1"
			}
		}
	}

	// IndexFilter opportunity: scanning the raw dataset with a semantic
	// condition can shortlist ~3x the estimated output instead of
	// scanning everything.
	if !viewed && o.Mode != Rule && n.Op == "Filter" && len(n.Inputs) == 1 && n.Inputs[0] == "dataset" {
		if c, okc := nlcond.Parse(n.Args.Get("Condition")); okc && !c.Structured() {
			scanK := outSig.card * 3
			if scanK < 16 {
				scanK = 16
			}
			if scanK < (inCard*4)/5 {
				n.Args["_scanK"] = fmt.Sprint(scanK)
			}
		}
	}

	dummies := make([]values.Value, len(ins))
	for i, s := range ins {
		dummies[i] = dummyValue(s)
	}
	cands := spec.Adequate(n.Args, dummies)
	if len(cands) == 0 {
		return sig{}, fmt.Errorf("optimizer: no adequate physical for %s(%v) with %d inputs", n.Op, n.Args, len(ins))
	}

	switch o.Mode {
	case Rule:
		n.Phys = cands[pick(o.Seed, plan.Query, n.ID, len(cands))].Name
	default:
		bestCost := time.Duration(math.MaxInt64)
		for _, c := range cands {
			var cc time.Duration
			if c.LLMBased {
				w := work
				if strings.HasPrefix(c.Name, "IndexFilter") {
					if k, okk := n.Args.Int("_scanK"); okk {
						w = k
					}
				}
				if viewed {
					w = 0 // every judgment is served from the view
				}
				cc = o.Calib.EstimateLLM(c.Name, w)
			} else {
				cc = o.Calib.EstimatePre(c.Name, inCard)
			}
			if cc < bestCost {
				bestCost = cc
				n.Phys = c.Name
			}
		}
	}
	if !strings.HasPrefix(n.Phys, "IndexFilter") && n.Phys != "IndexScan" {
		delete(n.Args, "_scanK")
	}
	if viewed {
		// A view-served node has no model work to fan out.
		work = 0
	}
	o.markScatter(n, ins, work, outSig)
	return outSig, nil
}

// machines reports the effective cluster width.
func (o *Optimizer) machines() int {
	if o.Machines < 1 {
		return 1
	}
	return o.Machines
}

// scatterMerge classifies a physical operator's scatter/merge shape:
// decomposable operators merge per-shard partials with pure computation
// (filters concat, count/sum add, max/min take the extreme); combiners
// (top-k) re-rank the union of per-shard winners with more LLM work.
// Everything else must not be scattered.
const (
	scatterNone    = iota // not decomposable
	scatterExact          // merge is pure computation
	scatterCombine        // merge re-runs the operator over per-shard winners
)

func scatterMerge(phys string) int {
	switch phys {
	case "SemanticFilter", "SemanticCount", "SemanticSum", "SemanticMax", "SemanticMin":
		return scatterExact
	case "SemanticTopK":
		return scatterCombine
	default:
		return scatterNone
	}
}

// markScatter annotates a node for scatter execution when fanning its
// document input out across the cluster's machines beats running it on
// the home machine alone: per-shard cost (work split M ways) plus the
// merge cost must undercut the unscattered cost. M=1 — and Rule mode,
// which does no costing — never scatters, so single-machine plans are
// bit-for-bit unchanged.
func (o *Optimizer) markScatter(n *core.Node, ins []sig, work int, outSig sig) {
	delete(n.Args, "_scatter")
	m := o.machines()
	if m < 2 || o.Mode == Rule {
		return
	}
	mode := scatterMerge(n.Phys)
	if mode == scatterNone || len(ins) == 0 || ins[0].kind != values.Docs {
		return
	}
	// Fan-out must be real work: at least two batched calls per machine,
	// otherwise the shards degenerate to one short call each and the merge
	// latency dominates.
	if o.Calib.EstimateLLMCalls(work) < 2*m {
		return
	}
	shardWork := (work + m - 1) / m
	cost := o.Calib.EstimateLLM(n.Phys, shardWork)
	if mode == scatterCombine {
		union := outSig.card * m
		if union > work {
			union = work
		}
		cost += o.Calib.EstimateLLM(n.Phys, union)
	}
	if cost < o.Calib.EstimateLLM(n.Phys, work) {
		n.Args["_scatter"] = fmt.Sprint(m)
	}
}

// propagate computes the output signature of a node and the number of
// items its (LLM) work scales with.
func (o *Optimizer) propagate(ctx context.Context, n *core.Node, ins []sig, stats *Stats) (sig, int) {
	in := sig{kind: values.Docs, card: o.Store.Len()}
	if len(ins) > 0 {
		in = ins[0]
	}
	switch n.Op {
	case "Scan":
		return in, in.card
	case "Filter":
		sel, err := o.selectivity(ctx, n.Args.Get("Condition"), stats)
		if err != nil {
			sel = 0.3
		}
		out := in
		out.card = int(float64(in.card)*sel + 0.5)
		if out.card < 1 {
			out.card = 1
		}
		if in.kind == values.Groups {
			if c, ok := nlcond.Parse(n.Args.Get("Condition")); ok && c.Kind == nlcond.Subset {
				out.groups = (in.groups + 1) / 2
				out.card = in.card / 2
				return out, in.groups // one judgment per group label
			}
		}
		return out, in.card
	case "GroupBy":
		groups := 12
		if in.card < groups {
			groups = in.card
		}
		return sig{kind: values.Groups, card: in.card, groups: groups}, in.card
	case "Count", "Sum", "Average", "Median", "Percentile":
		if in.kind == values.Groups {
			return sig{kind: values.Vec, card: in.groups}, in.card
		}
		return sig{kind: values.Num, card: 1}, in.card
	case "Max", "Min":
		if in.kind == values.Vec {
			return sig{kind: values.Str, card: 1}, in.card
		}
		if in.kind == values.Groups {
			return sig{kind: values.Vec, card: in.groups}, in.card
		}
		return sig{kind: values.Num, card: 1}, in.card
	case "TopK":
		k, _ := n.Args.Int("Number")
		if k <= 0 {
			k = 1
		}
		if in.kind == values.Vec {
			c := k
			if c > in.card {
				c = in.card
			}
			return sig{kind: values.Labels, card: c}, in.card
		}
		c := k
		if c > in.card {
			c = in.card
		}
		return sig{kind: values.Docs, card: c}, in.card
	case "OrderBy":
		return in, in.card
	case "Classify":
		return sig{kind: values.Str, card: 1}, 1
	case "Extract":
		if in.kind == values.Groups {
			return sig{kind: values.Labels, card: in.groups}, in.groups
		}
		if in.kind == values.Docs && classAttrWord(n.Args.Get("Attribute")) {
			// Distinct-value extraction classifies every document.
			groups := 12
			if in.card < groups {
				groups = in.card
			}
			return sig{kind: values.Labels, card: groups}, in.card
		}
		return sig{kind: values.Str, card: 1}, 1
	case "Join", "Union", "Intersection", "Complementary":
		b := sig{}
		if len(ins) > 1 {
			b = ins[1]
		}
		out := in
		// A union is at most the sum of its sides, but a document set can
		// never exceed the corpus: unclamped sums violated the
		// card_bounds invariant (EstCard in [0, |docs|]) and inflated
		// downstream work estimates.
		out.card = min(in.card+b.card, o.Store.Len())
		if n.Op == "Intersection" || n.Op == "Join" {
			out.card = min(in.card, b.card)
		}
		if n.Op == "Complementary" {
			out.card = in.card
		}
		return out, in.card + b.card
	case "Compute":
		if in.kind == values.Vec {
			return in, in.card
		}
		return sig{kind: values.Num, card: 1}, 1
	case "Compare":
		return sig{kind: values.Str, card: 1}, 1
	case "Generate":
		return sig{kind: values.Str, card: 1}, 8
	default:
		return sig{kind: values.Str, card: 1}, 1
	}
}

func classAttrWord(attr string) bool {
	switch strings.ToLower(strings.TrimSpace(attr)) {
	case "sport", "field", "area", "category", "topic":
		return true
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pick is a deterministic pseudo-random choice for Rule mode.
func pick(seed uint64, query string, nodeID, n int) int {
	if n <= 1 {
		return 0
	}
	h := seed
	for _, b := range []byte(query) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64(nodeID)
	return int(h % uint64(n))
}

// planCost predicts the plan's cost under the configured objective: the
// scheduled makespan (time) or the total token volume (money, expressed
// on a common duration scale so plan comparison stays uniform).
func (o *Optimizer) planCost(plan *core.Plan) (time.Duration, error) {
	if o.Objective == MinTokens {
		return o.planTokenCost(plan)
	}
	tasks, err := o.PlanTasks(plan)
	if err != nil {
		return 0, err
	}
	res, err := vtime.NewCluster(o.machines(), o.Slots).Run(tasks)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// planTokenCost sums estimated generated tokens across LLM-based
// operators (1 token == 1ms on the comparison scale).
func (o *Optimizer) planTokenCost(plan *core.Plan) (time.Duration, error) {
	order, err := plan.Topo()
	if err != nil {
		return 0, err
	}
	cardOf := map[string]int{"dataset": o.Store.Len()}
	total := 0.0
	for _, n := range order {
		inCard := 0
		for _, ref := range n.Inputs {
			if c, ok := cardOf[ref]; ok && c > inCard {
				inCard = c
			}
		}
		if inCard == 0 {
			inCard = o.Store.Len()
		}
		work := inCard
		if k, ok := n.Args.Int("_scanK"); ok && strings.HasPrefix(n.Phys, "IndexFilter") {
			work = k
		}
		if n.Args.Get("_viewed") == "1" {
			work = 0
		}
		spec, _ := ops.Get(n.Op)
		if spec != nil {
			for _, p := range spec.Phys {
				if p.Name == n.Phys && p.LLMBased {
					total += o.Calib.EstimateLLMTokens(n.Phys, work)
				}
			}
		}
		cardOf["{"+n.OutVar+"}"] = n.EstCard
	}
	return time.Duration(total) * time.Millisecond, nil
}

// PlanTasks converts an annotated physical plan into vtime tasks with
// ESTIMATED durations (used for plan selection; the executor later builds
// the same structure from observed durations).
func (o *Optimizer) PlanTasks(plan *core.Plan) ([]vtime.Task, error) {
	order, err := plan.Topo()
	if err != nil {
		return nil, err
	}
	// Recover each node's input cardinality from its deps' estimates.
	cardOf := map[string]int{"dataset": o.Store.Len()}
	taskOf := make(map[int]int, len(order)) // node id -> the node's own task
	var tasks []vtime.Task
	for _, n := range order {
		inCard := 0
		for _, ref := range n.Inputs {
			if c, ok := cardOf[ref]; ok && c > inCard {
				inCard = c
			}
		}
		if inCard == 0 {
			inCard = o.Store.Len()
		}
		work := inCard
		if k, ok := n.Args.Int("_scanK"); ok && strings.HasPrefix(n.Phys, "IndexFilter") {
			work = k
		}
		if n.Args.Get("_viewed") == "1" {
			work = 0
		}
		spec, _ := ops.Get(n.Op)
		var phys *ops.Physical
		if spec != nil {
			for _, p := range spec.Phys {
				if p.Name == n.Phys {
					phys = p
				}
			}
		}
		// llmCalls is the implementation's call stream over work items.
		llmCalls := func(work int, pool vtime.Pool) []vtime.Unit {
			busy := o.Calib.EstimateLLM(n.Phys, work)
			units := make([]vtime.Unit, max(o.Calib.EstimateLLMCalls(work), 1))
			for i := range units {
				units[i] = vtime.Unit{Dur: busy / time.Duration(len(units)), Pool: pool}
			}
			return units
		}
		deps := make([]int, len(n.Deps))
		for i, d := range n.Deps {
			deps[i] = taskOf[d]
		}
		var units []vtime.Unit
		if m, scattered := n.Args.Int("_scatter"); scattered && m > 1 && phys != nil && phys.LLMBased {
			// Scatter: the node's work splits across the cluster's machines,
			// one task per shard, plus a merge on the home machine gated on
			// every shard (top-k re-ranks the union; exact merges are free).
			shards := make([]int, m)
			for s := range shards {
				shards[s] = len(tasks)
				tasks = append(tasks, vtime.Task{Deps: deps, Units: llmCalls((work+m-1)/m, vtime.OnMachine(s)), Sequential: true})
			}
			deps = shards
			if scatterMerge(n.Phys) == scatterCombine {
				units = llmCalls(min(n.EstCard*m, work), vtime.OnMachine(0))
			} else {
				units = []vtime.Unit{{Dur: o.Calib.EstimatePre(n.Phys, work)}}
			}
		} else if phys != nil && phys.LLMBased {
			units = llmCalls(work, vtime.OnMachine(0))
		} else {
			units = []vtime.Unit{{Dur: o.Calib.EstimatePre(n.Phys, work)}}
		}
		taskOf[n.ID] = len(tasks)
		tasks = append(tasks, vtime.Task{Deps: deps, Units: units, Sequential: true})
		cardOf["{"+n.OutVar+"}"] = n.EstCard
	}
	return tasks, nil
}
