// Package check is the deterministic correctness subsystem: named
// structural invariants over logical/physical plans, executed answers,
// and virtual-time schedules, plus a differential/metamorphic driver
// (differential.go) asserting answer equivalence across configuration
// axes that must not change results.
//
// Invariant checking is wired into the planner/optimizer call sites
// (unify.query), the executor (exec.Run), and the shared slot pool
// (sched.Pool) behind Config.StrictChecks: on in tests, off by default
// on the production path. A violation carries the invariant's name, a
// human-readable detail, and — when a tracer was installed — a rendered
// span dump of the query so the failure is diagnosable post mortem.
package check

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"unify/internal/core"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/values"
	"unify/internal/vtime"
)

// Named invariants. Plan invariants validate the DAG itself (logical
// plans after generation, physical plans after optimization and after
// every replan); answer invariants validate a completed query's
// accounting; vtime/pool invariants validate schedules on the shared
// slot pool.
const (
	InvPlanNonEmpty        = "plan.non_empty"         // a plan has at least one node and a root
	InvPlanAcyclic         = "plan.acyclic"           // the dependency graph is a DAG
	InvPlanUniqueOutputs   = "plan.unique_outputs"    // node ids and output variables are unique
	InvPlanDepsMatchInputs = "plan.deps_match_inputs" // every consumed variable's producer is a declared dep
	InvPlanSingleSink      = "plan.single_sink"       // exactly one node has no consumers: the answer producer
	InvPlanTypeCompat      = "plan.type_compat"       // each operator has an adequate implementation for its input kinds
	InvPlanCardBounds      = "plan.card_bounds"       // estimated cardinalities lie within [0, |docs|]

	InvAnswerDursNonNeg    = "answer.durs_non_negative" // every reported duration is >= 0
	InvAnswerDurAdditive   = "answer.dur_additive"      // TotalDur == Planning + Estimation + Exec
	InvAnswerSoloBound     = "answer.solo_bound"        // SoloExecDur <= ExecDur (contention only slows down)
	InvAnswerUtilBound     = "answer.utilization_bound" // SlotBusy <= ExecDur * slots (utilization <= 1)
	InvAnswerSkippedBound  = "answer.skipped_bound"     // SkippedDocs <= documents scanned
	InvAnswerReplansBound  = "answer.replans_bound"     // replan rounds <= MaxReplans
	InvAnswerNodesComplete = "answer.nodes_complete"    // one node stat per plan node
	InvAnswerCallsBound    = "answer.calls_bound"       // 0 <= CachedLLMCalls <= LLMCalls

	InvVTimeConservation = "vtime.conservation"     // per-job busy sums to total busy; JobEnd caps at Makespan
	InvVTimeSlotBound    = "vtime.slot_bound"       // busy <= Makespan * slots; slot frees within the schedule
	InvPoolUtilBound     = "pool.utilization_bound" // epoch slot utilization <= 1 (checked per machine on clusters)

	InvClusterShardComplete = "cluster.shard_complete" // scatter/merge accounts for every shard; no shard silently dropped

	InvBatchFairness = "batch.fairness_bound" // batch sizes, durations, deferrals, and shares respect the policy

	InvProfileAttribution = "profile.vtime_attribution" // per-class vtime shares sum exactly to the Answer vtime
	InvProfileGlobalBound = "profile.global_bound"      // cumulative profile counters never exceed global counters

	InvViewColumnFresh = "views.column_fresh" // every view row served during a query matched its document's live content hash
)

// Violation is one failed invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Error aggregates the violations of one checked artifact, with an
// optional span dump for diagnostics.
type Error struct {
	Context    string
	Violations []Violation
	SpanDump   string
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s: %d invariant violation(s)", e.Context, len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  " + v.String())
	}
	if e.SpanDump != "" {
		b.WriteString("\nspan dump:\n" + e.SpanDump)
	}
	return b.String()
}

// Fail wraps violations into an error carrying a rendered span dump
// (nil-safe span, nil when there are no violations).
func Fail(context string, vs []Violation, span *obs.Span) error {
	if len(vs) == 0 {
		return nil
	}
	return &Error{Context: context, Violations: vs, SpanDump: obs.Render(span)}
}

func violatef(vs *[]Violation, inv, format string, args ...interface{}) {
	*vs = append(*vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Plan validates a plan's structural invariants. docs is the corpus
// size; physical selects the additional invariants that only hold after
// optimization (chosen implementations, cardinality estimates).
func Plan(p *core.Plan, docs int, physical bool) []Violation {
	var vs []Violation
	if p == nil || len(p.Nodes) == 0 || p.Root() == nil {
		violatef(&vs, InvPlanNonEmpty, "plan has no nodes")
		return vs
	}

	order, err := p.Topo()
	if err != nil {
		violatef(&vs, InvPlanAcyclic, "%v", err)
		return vs // downstream checks need a topological order
	}

	// Unique ids and output variables.
	byID := map[int]*core.Node{}
	producer := map[string]*core.Node{}
	for _, n := range p.Nodes {
		if _, dup := byID[n.ID]; dup {
			violatef(&vs, InvPlanUniqueOutputs, "duplicate node id %d", n.ID)
		}
		byID[n.ID] = n
		if n.OutVar == "" || n.OutVar == "dataset" {
			violatef(&vs, InvPlanUniqueOutputs, "node %d has invalid output variable %q", n.ID, n.OutVar)
			continue
		}
		if prev, dup := producer[n.OutVar]; dup {
			violatef(&vs, InvPlanUniqueOutputs, "nodes %d and %d both produce {%s}", prev.ID, n.ID, n.OutVar)
		}
		producer[n.OutVar] = n
	}

	// Every consumed variable has a producer, and that producer is a
	// declared dependency (deps may be a superset: the Generate fallback
	// depends on everything computed so far).
	for _, n := range p.Nodes {
		deps := map[int]bool{}
		for _, d := range n.Deps {
			if d == n.ID {
				violatef(&vs, InvPlanDepsMatchInputs, "node %d depends on itself", n.ID)
			}
			if _, ok := byID[d]; !ok {
				violatef(&vs, InvPlanDepsMatchInputs, "node %d depends on unknown node %d", n.ID, d)
			}
			deps[d] = true
		}
		for _, ref := range n.Inputs {
			if ref == "dataset" {
				continue
			}
			prod := producer[strings.Trim(ref, "{}")]
			if prod == nil {
				violatef(&vs, InvPlanDepsMatchInputs, "node %d consumes %s which no node produces", n.ID, ref)
				continue
			}
			if !deps[prod.ID] {
				violatef(&vs, InvPlanDepsMatchInputs, "node %d consumes %s but does not depend on its producer %d", n.ID, ref, prod.ID)
			}
		}
	}

	// Single sink: the answer producer is the only node without
	// consumers; anything else is dead work the executor would still run.
	consumed := map[int]bool{}
	for _, n := range p.Nodes {
		for _, d := range n.Deps {
			consumed[d] = true
		}
	}
	var sinks []int
	for _, n := range p.Nodes {
		if !consumed[n.ID] {
			sinks = append(sinks, n.ID)
		}
	}
	sort.Ints(sinks)
	if len(sinks) != 1 {
		violatef(&vs, InvPlanSingleSink, "expected exactly one sink, found %d: %v", len(sinks), sinks)
	} else if root := p.Root(); sinks[0] != root.ID {
		violatef(&vs, InvPlanSingleSink, "sink is node %d but root (answer producer) is node %d", sinks[0], root.ID)
	}

	// Type compatibility and cardinality bounds, walking the DAG in
	// topological order with the same kind propagation the optimizer uses.
	maxCard := docs
	if maxCard < 1 {
		maxCard = 1
	}
	kinds := map[string]sigHint{"dataset": {kind: values.Docs, card: docs}}
	for _, n := range order {
		spec, ok := ops.Get(n.Op)
		if !ok {
			violatef(&vs, InvPlanTypeCompat, "node %d uses unknown operator %q", n.ID, n.Op)
			continue
		}
		ins := make([]sigHint, len(n.Inputs))
		dummies := make([]values.Value, len(n.Inputs))
		for i, ref := range n.Inputs {
			h, okh := kinds[ref]
			if !okh {
				h = sigHint{kind: values.Docs, card: docs}
			}
			ins[i] = h
			dummies[i] = dummyValue(h)
		}
		if cands := spec.Adequate(n.Args, dummies); len(cands) == 0 {
			violatef(&vs, InvPlanTypeCompat,
				"node %d (%s) has no adequate implementation for input kinds %v", n.ID, n.Op, kindNames(ins))
		} else if physical {
			if n.Phys == "" {
				violatef(&vs, InvPlanTypeCompat, "node %d (%s) has no physical selection", n.ID, n.Op)
			} else if !specHas(spec, n.Phys) {
				violatef(&vs, InvPlanTypeCompat, "node %d selected %q which is not an implementation of %s", n.ID, n.Phys, n.Op)
			}
		}
		if physical {
			if n.EstCard < 0 || n.EstCard > maxCard {
				violatef(&vs, InvPlanCardBounds,
					"node %d (%s) estimated cardinality %d outside [0, %d]", n.ID, n.Op, n.EstCard, maxCard)
			}
		}
		out := propagateKind(n, ins, docs)
		if physical && n.EstCard > 0 {
			out.card = n.EstCard
		}
		kinds["{"+n.OutVar+"}"] = out
	}
	return vs
}

// sigHint is the checker's static view of a variable: value kind plus
// cardinality hints for fabricating adequacy-check dummies.
type sigHint struct {
	kind   values.Kind
	card   int
	groups int
}

func kindNames(ins []sigHint) []string {
	out := make([]string, len(ins))
	for i, h := range ins {
		out[i] = h.kind.String()
	}
	return out
}

func specHas(spec *ops.Spec, phys string) bool {
	for _, p := range spec.Phys {
		if p.Name == phys {
			return true
		}
	}
	return false
}

// dummyValue fabricates a value of the hinted kind for adequacy checks
// (mirrors the optimizer's lowering-time dummies).
func dummyValue(h sigHint) values.Value {
	card := h.card
	if card < 1 {
		card = 1
	}
	switch h.kind {
	case values.Docs:
		return values.Value{Kind: values.Docs, DocIDs: make([]int, card)}
	case values.Groups:
		g := h.groups
		if g < 1 {
			g = 1
		}
		return values.Value{Kind: values.Groups, GroupVal: make([]values.Group, g)}
	case values.Vec:
		return values.Value{Kind: values.Vec, VecVal: make([]values.LabeledNum, card)}
	case values.Labels:
		return values.Value{Kind: values.Labels, LabelVal: make([]string, card)}
	case values.Num:
		return values.NewNum(0)
	default:
		return values.NewStr("")
	}
}

// propagateKind mirrors the optimizer's output-signature propagation
// (optimizer.propagate) for the checker's type walk. Keep the two in
// sync when adding operators.
func propagateKind(n *core.Node, ins []sigHint, docs int) sigHint {
	in := sigHint{kind: values.Docs, card: docs}
	if len(ins) > 0 {
		in = ins[0]
	}
	switch n.Op {
	case "Scan", "Filter", "OrderBy":
		return in
	case "GroupBy":
		g := 12
		if in.card < g {
			g = in.card
		}
		return sigHint{kind: values.Groups, card: in.card, groups: g}
	case "Count", "Sum", "Average", "Median", "Percentile":
		if in.kind == values.Groups {
			return sigHint{kind: values.Vec, card: in.groups}
		}
		return sigHint{kind: values.Num, card: 1}
	case "Max", "Min":
		if in.kind == values.Vec {
			return sigHint{kind: values.Str, card: 1}
		}
		if in.kind == values.Groups {
			return sigHint{kind: values.Vec, card: in.groups}
		}
		return sigHint{kind: values.Num, card: 1}
	case "TopK":
		if in.kind == values.Vec {
			return sigHint{kind: values.Labels, card: in.card}
		}
		return sigHint{kind: values.Docs, card: in.card}
	case "Classify", "Compare", "Generate":
		return sigHint{kind: values.Str, card: 1}
	case "Extract":
		if in.kind == values.Groups {
			return sigHint{kind: values.Labels, card: in.groups}
		}
		if in.kind == values.Docs && classAttrWord(n.Args.Get("Attribute")) {
			return sigHint{kind: values.Labels, card: 12}
		}
		return sigHint{kind: values.Str, card: 1}
	case "Join", "Union", "Intersection", "Complementary":
		return in
	case "Compute":
		if in.kind == values.Vec {
			return in
		}
		return sigHint{kind: values.Num, card: 1}
	default:
		return sigHint{kind: values.Str, card: 1}
	}
}

// classAttrWord mirrors the optimizer's distinct-value-extraction
// heuristic so the checker's kind walk matches lowering.
func classAttrWord(attr string) bool {
	switch strings.ToLower(strings.TrimSpace(attr)) {
	case "sport", "field", "area", "category", "topic":
		return true
	}
	return false
}

// AnswerFacts carries the accounting of one completed query for
// invariant checking. All durations are virtual (simulated) time.
type AnswerFacts struct {
	Docs       int
	Slots      int
	MaxReplans int

	PlanNodes int // nodes in the executed plan
	NodeStats int // per-node stats reported on the answer

	ScannedDocs int // sum of per-node input cardinalities
	SkippedDocs int
	Replans     int

	LLMCalls       int
	CachedLLMCalls int

	PlanningDur   time.Duration
	EstimationDur time.Duration
	ExecDur       time.Duration
	TotalDur      time.Duration
	SoloExecDur   time.Duration
	SlotBusy      time.Duration
	GrantWait     time.Duration
}

// Answer validates a completed query's accounting invariants.
func Answer(f AnswerFacts) []Violation {
	var vs []Violation
	durs := []struct {
		name string
		d    time.Duration
	}{
		{"planning", f.PlanningDur}, {"estimation", f.EstimationDur},
		{"exec", f.ExecDur}, {"total", f.TotalDur}, {"solo_exec", f.SoloExecDur},
		{"slot_busy", f.SlotBusy}, {"grant_wait", f.GrantWait},
	}
	for _, d := range durs {
		if d.d < 0 {
			violatef(&vs, InvAnswerDursNonNeg, "%s duration is negative: %v", d.name, d.d)
		}
	}
	if sum := f.PlanningDur + f.EstimationDur + f.ExecDur; f.TotalDur != sum {
		violatef(&vs, InvAnswerDurAdditive, "total %v != planning %v + estimation %v + exec %v",
			f.TotalDur, f.PlanningDur, f.EstimationDur, f.ExecDur)
	}
	if f.SoloExecDur > f.ExecDur {
		violatef(&vs, InvAnswerSoloBound, "solo exec %v exceeds contended exec %v", f.SoloExecDur, f.ExecDur)
	}
	slots := f.Slots
	if slots < 1 {
		slots = 1
	}
	if f.SlotBusy > f.ExecDur*time.Duration(slots) {
		violatef(&vs, InvAnswerUtilBound, "slot busy %v exceeds exec %v x %d slots (utilization > 1)",
			f.SlotBusy, f.ExecDur, slots)
	}
	if f.SkippedDocs < 0 || f.SkippedDocs > f.ScannedDocs {
		violatef(&vs, InvAnswerSkippedBound, "skipped %d docs but only %d were scanned", f.SkippedDocs, f.ScannedDocs)
	}
	maxReplans := f.MaxReplans
	if maxReplans < 1 {
		maxReplans = 1
	}
	if f.Replans < 0 || f.Replans > maxReplans {
		violatef(&vs, InvAnswerReplansBound, "%d replans exceed the bound %d", f.Replans, maxReplans)
	}
	if f.NodeStats != f.PlanNodes {
		violatef(&vs, InvAnswerNodesComplete, "%d node stats for %d plan nodes", f.NodeStats, f.PlanNodes)
	}
	if f.CachedLLMCalls < 0 || f.CachedLLMCalls > f.LLMCalls {
		violatef(&vs, InvAnswerCallsBound, "%d cached calls out of %d total", f.CachedLLMCalls, f.LLMCalls)
	}
	return vs
}

// VTime validates a single-machine virtual-time schedule: per-job
// accounting conserves against the machine totals and nothing exceeds
// the slot capacity.
func VTime(res vtime.Result, slots int) []Violation {
	return VTimeCluster(res, 1, slots)
}

// VTimeCluster validates a cluster schedule: per-job busy conserves
// against the summed machine totals, and every machine individually
// respects its slot capacity. VTimeCluster(res, 1, slots) is the
// single-machine VTime check.
func VTimeCluster(res vtime.Result, machines, slots int) []Violation {
	var vs []Violation
	if machines < 1 {
		machines = 1
	}
	if slots < 1 {
		slots = 1
	}
	var jobBusy, jobWait, taskWait, maxEnd time.Duration
	for job, j := range res.Jobs {
		if j.Busy < 0 {
			violatef(&vs, InvVTimeConservation, "job %d has negative busy %v", job, j.Busy)
		}
		if j.Wait < 0 {
			violatef(&vs, InvVTimeConservation, "job %d has negative grant wait %v", job, j.Wait)
		}
		jobBusy += j.Busy
		jobWait += j.Wait
		if j.End > res.Makespan {
			violatef(&vs, InvVTimeConservation, "job %d ends at %v after makespan %v", job, j.End, res.Makespan)
		}
		maxEnd = max(maxEnd, j.End)
		if j.Busy > j.End*time.Duration(slots*machines) {
			violatef(&vs, InvVTimeConservation,
				"job %d busy %v exceeds its end %v x %d cluster slots", job, j.Busy, j.End, slots*machines)
		}
	}
	for i, w := range res.TaskWait {
		if w < 0 {
			violatef(&vs, InvVTimeConservation, "task %d has negative grant wait %v", i, w)
		}
		taskWait += w
	}
	if taskWait != jobWait {
		violatef(&vs, InvVTimeConservation, "per-task grant waits sum to %v but per-job waits sum to %v", taskWait, jobWait)
	}
	if len(res.Jobs) > 0 && maxEnd != res.Makespan {
		violatef(&vs, InvVTimeConservation, "max job end %v != makespan %v", maxEnd, res.Makespan)
	}
	if len(res.Busy) != machines || len(res.SlotFree) != machines {
		violatef(&vs, InvVTimeSlotBound, "busy for %d machines and slot free times for %d on a %d-machine cluster", len(res.Busy), len(res.SlotFree), machines)
		return vs
	}
	var busy time.Duration
	for m, mbusy := range res.Busy {
		busy += mbusy
		if mbusy > res.Makespan*time.Duration(slots) {
			violatef(&vs, InvVTimeSlotBound, "machine %d busy %v exceeds makespan %v x %d slots", m, mbusy, res.Makespan, slots)
		}
		frees := res.SlotFree[m]
		if len(frees) != slots {
			violatef(&vs, InvVTimeSlotBound, "machine %d has %d slot free times for %d slots", m, len(frees), slots)
		}
		for i, f := range frees {
			if f < 0 || f > res.Makespan {
				violatef(&vs, InvVTimeSlotBound, "machine %d slot %d frees at %v outside [0, %v]", m, i, f, res.Makespan)
			}
		}
	}
	if jobBusy != busy {
		violatef(&vs, InvVTimeConservation, "per-job busy sums to %v but cluster busy is %v", jobBusy, busy)
	}
	return vs
}

// ShardComplete validates a scatter/merge execution: the merge saw every
// shard's partial result, and — for cardinality-preserving merges like
// filters — the merged output accounts for exactly the per-shard doc
// counts (no shard silently dropped, nothing invented).
func ShardComplete(op string, shards int, perShard []int, merged int, exact bool) []Violation {
	var vs []Violation
	if len(perShard) != shards {
		violatef(&vs, InvClusterShardComplete, "%s: %d shard results for %d shards", op, len(perShard), shards)
		return vs
	}
	sum := 0
	for s, n := range perShard {
		if n < 0 {
			violatef(&vs, InvClusterShardComplete, "%s: shard %d reports negative count %d", op, s, n)
		}
		sum += n
	}
	if exact {
		if merged != sum {
			violatef(&vs, InvClusterShardComplete, "%s: merged %d docs but shards produced %d", op, merged, sum)
		}
	} else if merged > sum {
		violatef(&vs, InvClusterShardComplete, "%s: merged %d docs exceed the %d the shards produced", op, merged, sum)
	}
	return vs
}

// ViewsFresh validates the views.column_fresh invariant from an audit of
// the rows a query actually served: the view store compares each served
// row's stored content hash against the document's live hash, and any
// divergence (a stale row reaching an answer) is a violation. stale is
// the audit's violation list, one "column/doc" description per stale row.
func ViewsFresh(stale []string) []Violation {
	var vs []Violation
	for _, s := range stale {
		violatef(&vs, InvViewColumnFresh, "stale view row served: %s", s)
	}
	return vs
}

// BatchFairness validates every batched invocation of a schedule against
// its policy: member counts stay within [1, MaxBatch] with pairwise
// distinct jobs (batching is cross-query only), a multi-member batch's
// duration respects the fairness cap (unless the leader's own solo
// duration exceeds it — a call too big for the cap still has to run),
// hold-the-door deferral never exceeds the window, member waits equal
// the batch start minus their ready times, and the members' attributed
// shares sum exactly to the invocation's duration (conservation).
func BatchFairness(res vtime.Result, p *vtime.BatchPolicy) []Violation {
	var vs []Violation
	if p == nil {
		return vs
	}
	maxBatch := p.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	for i, g := range res.Batches {
		if len(g.Members) < 1 || len(g.Members) > maxBatch {
			violatef(&vs, InvBatchFairness, "batch %d has %d members outside [1, %d]", i, len(g.Members), maxBatch)
			continue
		}
		if g.Start < g.GrantAt || g.Start-g.GrantAt > p.Window {
			violatef(&vs, InvBatchFairness, "batch %d deferred from %v to %v, beyond the %v window", i, g.GrantAt, g.Start, p.Window)
		}
		leaderSolo := g.Members[0].Solo
		if len(g.Members) > 1 && p.FairnessCap > 0 {
			capLimit := p.FairnessCap
			if leaderSolo > capLimit {
				capLimit = leaderSolo
			}
			if g.Dur > capLimit {
				violatef(&vs, InvBatchFairness, "batch %d duration %v exceeds the fairness cap %v", i, g.Dur, capLimit)
			}
		}
		jobs := make(map[int]bool, len(g.Members))
		var shares time.Duration
		for _, m := range g.Members {
			if jobs[m.Job] {
				violatef(&vs, InvBatchFairness, "batch %d holds two members of job %d", i, m.Job)
			}
			jobs[m.Job] = true
			if m.Wait != g.Start-m.Ready || m.Wait < 0 {
				violatef(&vs, InvBatchFairness, "batch %d member task %d wait %v != start %v - ready %v", i, m.Task, m.Wait, g.Start, m.Ready)
			}
			shares += m.Share
		}
		if shares != g.Dur {
			violatef(&vs, InvBatchFairness, "batch %d member shares sum to %v but the invocation took %v", i, shares, g.Dur)
		}
	}
	return vs
}

// PoolUtilization validates an epoch's aggregate slot utilization
// (busy / (span x slots), structurally <= 1; eps absorbs float rounding).
func PoolUtilization(util float64) []Violation {
	var vs []Violation
	if util < 0 || util > 1+1e-9 {
		violatef(&vs, InvPoolUtilBound, "pool utilization %.6f outside [0, 1]", util)
	}
	return vs
}

// ProfileAttribution validates one query's cost profile against the
// query's reported total vtime: class shares must be non-negative and
// sum EXACTLY to the Answer's vtime (the largest-remainder split leaves
// no nanosecond unattributed), and per-class counters must be sane.
func ProfileAttribution(p *obs.CostProfile, answerVTime time.Duration) []Violation {
	var vs []Violation
	if p == nil {
		violatef(&vs, InvProfileAttribution, "query has no cost profile")
		return vs
	}
	if p.Total != answerVTime {
		violatef(&vs, InvProfileAttribution, "profile total %v != answer vtime %v", p.Total, answerVTime)
	}
	var sum time.Duration
	for _, name := range p.ClassNames() {
		c := p.Classes[name]
		if c.Share < 0 {
			violatef(&vs, InvProfileAttribution, "class %q has negative vtime share %v", name, c.Share)
		}
		if c.Busy < 0 || c.GrantWait < 0 {
			violatef(&vs, InvProfileAttribution, "class %q has negative busy %v or grant wait %v", name, c.Busy, c.GrantWait)
		}
		if c.LLMCalls < 0 || c.CachedCalls < 0 || c.CachedCalls > c.LLMCalls+c.CachedCalls {
			violatef(&vs, InvProfileAttribution, "class %q has inconsistent call counts (%d llm, %d cached)", name, c.LLMCalls, c.CachedCalls)
		}
		sum += c.Share
	}
	if sum != answerVTime {
		violatef(&vs, InvProfileAttribution, "class shares sum to %v, answer vtime is %v", sum, answerVTime)
	}
	return vs
}

// CounterPair compares one cumulative profile counter against its
// process-global registry counterpart for ProfileGlobalBound.
type CounterPair struct {
	Name    string
	Profile float64 // attributed by query profiles
	Global  float64 // counted at the source (registry)
}

// ProfileGlobalBound validates that cost attribution never invents
// work: every cumulative profile counter is bounded by the matching
// process-global counter (profiles are recorded after the globals, so
// under concurrency the profile side may lag but never lead; eps
// absorbs float rounding on seconds-valued series).
func ProfileGlobalBound(pairs []CounterPair) []Violation {
	var vs []Violation
	const eps = 1e-6
	for _, p := range pairs {
		if p.Profile < 0 {
			violatef(&vs, InvProfileGlobalBound, "%s: profile counter is negative: %g", p.Name, p.Profile)
		}
		if p.Profile > p.Global+eps {
			violatef(&vs, InvProfileGlobalBound, "%s: profile %g exceeds global %g", p.Name, p.Profile, p.Global)
		}
	}
	return vs
}
