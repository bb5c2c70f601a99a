// Package exec executes physical plans: parallel bottom-up topological
// execution over the plan DAG with batched LLM invocations (paper §III-C),
// dynamic plan adjustment when an operator implementation fails, and
// virtual-clock accounting that reproduces the paper's latency measurements
// on the 4-slot LLM machine model.
package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"unify/internal/check"
	"unify/internal/core"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/sched"
	"unify/internal/values"
	"unify/internal/views"
	"unify/internal/vtime"
)

// Replanner re-optimizes a partially executed plan's suffix given the
// observed signatures of already-produced variables (paper §V: dynamic
// replanning on execution feedback). The returned duration is the
// simulated cost of the replanning work. The optimizer implements this.
type Replanner interface {
	Reoptimize(ctx context.Context, plan *core.Plan, known map[string]core.Known) (time.Duration, error)
}

// Executor runs physical plans against a store.
type Executor struct {
	Store *docstore.Store
	// Worker is the operator-execution model.
	Worker llm.Client
	// Calib receives execution history (the cost model's calibration
	// loop) and models pre-programmed durations.
	Calib *cost.Calibrator
	// Slots is the number of LLM server slots (paper: 4 local Llamas).
	Slots int
	// BatchSize is the per-invocation document batch size.
	BatchSize int
	// MaxParallel bounds concurrently executing operators.
	MaxParallel int

	// Pool is the process-global slot pool shared by all concurrent
	// queries. When nil the executor schedules on a private single-query
	// pool (identical to the shared pool with no contention).
	Pool *sched.Pool

	// Batching mirrors the pool's continuous-batching policy: when set,
	// recorded calls carrying a batch key get their cost decomposition
	// attached so the scheduler can coalesce them across queries.
	Batching *vtime.BatchPolicy

	// Views, when non-nil, is the materialized semantic view store:
	// operators read per-document verdicts/labels/values from it instead
	// of invoking the model, and backfill it with fresh results.
	Views *views.Store

	// Sharding is the corpus shard assignment for scatter execution on a
	// simulated cluster (nil on a single machine). Operators the
	// optimizer marked "_scatter" fan their document input out per shard,
	// run each shard's slice on that shard's machine, and merge the
	// partials; the shard count must match the cluster width.
	Sharding *docstore.Sharding

	// NodeErrorBudget, when positive, lets each operator absorb up to
	// this many per-batch LLM failures by skipping the affected
	// documents (partial results) instead of failing the node.
	NodeErrorBudget int
	// ReplanThreshold triggers dynamic replanning: when an executed
	// node's observed output cardinality deviates from its SCE estimate
	// by more than this ratio (in either direction) and downstream nodes
	// have not run yet, the Replanner re-optimizes the remaining DAG
	// suffix with corrected cardinalities. Values <= 1 disable
	// replanning.
	ReplanThreshold float64
	// MaxReplans bounds replanning rounds per execution (default 1).
	MaxReplans int
	// Replanner performs the suffix re-optimization (nil disables).
	Replanner Replanner

	// StrictChecks validates every plan this executor receives (including
	// replanned suffixes, which mutate the plan in place) against the
	// internal/check invariants before running it. On in all tests, off
	// by default on the production path (Config.StrictChecks).
	StrictChecks bool
}

// NodeResult captures one operator execution.
type NodeResult struct {
	NodeID   int
	Op       string
	Phys     string
	Value    values.Value
	Calls    []llm.Call
	PreDur   time.Duration
	InCard   int
	Adjusted bool // a fallback physical implementation was used
	// SkippedDocs counts documents dropped by the node's error budget
	// (graceful degradation under LLM failures).
	SkippedDocs int
	// Retries counts failed attempts the resilience layer absorbed
	// across the node's calls.
	Retries int
	// ViewHits counts per-document judgments served from materialized
	// views instead of model work during this node's execution.
	ViewHits int
	// GrantWait is the node's share of the query's slot-grant delay on
	// the shared pool (cost attribution for contention).
	GrantWait time.Duration
	// ShardCalls holds, for scatter executions, each shard's model calls
	// (index = shard); the scheduler places shard s's stream on machine
	// s's slots. Empty for unscattered nodes. All shard and merge calls
	// are also in Calls for aggregate accounting.
	ShardCalls [][]llm.Call
	// MergeCalls are the merge/combine step's model calls (top-k re-ranks
	// the union of per-shard winners; exact merges have none). The merge
	// runs on the query's home machine.
	MergeCalls []llm.Call
	// Span is the node's trace span (nil when tracing is off).
	Span *obs.Span
}

// Result is a completed plan execution.
type Result struct {
	Answer values.Value
	Nodes  []NodeResult
	// Makespan is the simulated latency of parallel topological
	// execution on the machine model.
	Makespan time.Duration
	// Serial is the simulated latency of fully sequential execution
	// (the Unify-noLO ablation of Figure 5a).
	Serial time.Duration
	// LLMCalls counts model invocations during execution.
	LLMCalls int
	// CachedLLMCalls counts invocations answered by the response cache
	// (included in LLMCalls; they cost zero virtual time and bypass the
	// slot pool).
	CachedLLMCalls int
	// OutTokens counts generated tokens during execution.
	OutTokens int
	// Adjusted reports that at least one operator needed a fallback
	// physical implementation (the paper's plan adjustment).
	Adjusted bool
	// SlotBusy is the total simulated busy time across the LLM slot
	// pool (slot utilization = SlotBusy / (Makespan * slots)).
	SlotBusy time.Duration
	// GrantWait is the total simulated delay between units becoming
	// ready and receiving a slot grant — non-zero under cross-query
	// contention on the shared pool.
	GrantWait time.Duration
	// SoloMakespan is the simulated latency the same execution would
	// have on an idle machine; Makespan == SoloMakespan for a query
	// that ran alone, and Makespan >= SoloMakespan under contention.
	SoloMakespan time.Duration
	// PoolStart is the query's virtual admission time on the shared
	// clock (0 for a private pool).
	PoolStart time.Duration
	// Contended reports the execution shared slots with other queries.
	Contended bool
	// BatchedCalls counts this query's LLM calls that shared a batched
	// invocation with another query (0 without batching).
	BatchedCalls int
	// SkippedDocs counts documents dropped across all nodes by error
	// budgets: the answer is partial when this is non-zero.
	SkippedDocs int
	// ViewHits counts per-document judgments served from materialized
	// views across all nodes (each hit is a model judgment avoided).
	ViewHits int
	// Replans counts dynamic replanning rounds during this execution.
	Replans int
	// ReplanDur is the simulated cost of replanning (already included
	// in Makespan).
	ReplanDur time.Duration
}

// New returns an executor with the paper's defaults.
func New(store *docstore.Store, worker llm.Client, calib *cost.Calibrator) *Executor {
	return &Executor{Store: store, Worker: worker, Calib: calib, Slots: 4, BatchSize: 16, MaxParallel: 8}
}

// errReplan is the internal sentinel that stops a pass so the remaining
// DAG suffix can be re-optimized; it never escapes Run.
var errReplan = errors.New("exec: replan requested")

// replanTrigger records the node whose observed cardinality deviated.
type replanTrigger struct {
	nodeID   int
	est, obs int
}

// Run executes the plan and returns the answer plus timing accounting.
//
// Execution proceeds in passes: a pass runs the DAG in parallel until it
// completes or a node's observed output cardinality deviates from the
// optimizer's estimate beyond ReplanThreshold. On deviation the
// Replanner re-optimizes the un-executed suffix with corrected
// cardinalities (paper §V dynamic replanning) and the next pass resumes
// from the completed prefix — finished nodes are never re-executed.
func (e *Executor) Run(ctx context.Context, plan *core.Plan) (*Result, error) {
	order, err := plan.Topo()
	if err != nil {
		return nil, err
	}
	root := plan.Root()
	if root == nil {
		return nil, fmt.Errorf("exec: empty plan")
	}

	espan := obs.SpanFrom(ctx)
	if e.StrictChecks {
		if err := check.Fail("exec: physical plan", check.Plan(plan, e.Store.Len(), true), espan); err != nil {
			return nil, err
		}
	}
	completed := map[int]*NodeResult{}
	vars := map[string]values.Value{"dataset": values.NewDocs(e.Store.IDs())}
	replans := 0
	var replanDur time.Duration
	for {
		allow := e.ReplanThreshold > 1 && e.Replanner != nil && replans < e.maxReplans()
		trig, err := e.runPass(ctx, plan, order, completed, vars, allow)
		if err != nil {
			return nil, err
		}
		if trig == nil {
			break
		}
		replans++
		known := make(map[string]core.Known, len(completed))
		for id, nr := range completed {
			if n := plan.Node(id); n != nil {
				known["{"+n.OutVar+"}"] = core.KnownOf(nr.Value)
			}
		}
		rspan := espan.StartChild("replan", obs.KindPhase)
		rspan.SetInt("node", trig.nodeID)
		rspan.SetInt("est_card", trig.est)
		rspan.SetInt("obs_card", trig.obs)
		d, rerr := e.Replanner.Reoptimize(ctx, plan, known)
		// Replanning's SCE judgments parallelize across the slot pool,
		// like the initial optimization.
		d /= time.Duration(e.slots())
		rspan.SetVDur(d)
		replanDur += d
		if rerr != nil {
			// The replan failed: finish the suffix on the stale plan
			// rather than losing the query.
			rspan.SetAttr("error", rerr.Error())
			replans = e.maxReplans()
		}
		rspan.End()
		// Reoptimize rewrites the un-executed suffix in place: re-validate
		// the mutated plan before resuming.
		if e.StrictChecks {
			if err := check.Fail("exec: replanned plan", check.Plan(plan, e.Store.Len(), true), espan); err != nil {
				return nil, err
			}
		}
	}

	res := &Result{Replans: replans, ReplanDur: replanDur}
	for _, n := range order {
		nr := completed[n.ID]
		if nr == nil {
			return nil, fmt.Errorf("exec: node %d produced no result", n.ID)
		}
		// Adopt node spans in plan order so EXPLAIN ANALYZE output is
		// deterministic regardless of goroutine completion order.
		espan.Adopt(nr.Span)
		res.Nodes = append(res.Nodes, *nr)
		if nr.Adjusted {
			res.Adjusted = true
		}
		res.SkippedDocs += nr.SkippedDocs
		res.ViewHits += nr.ViewHits
		res.LLMCalls += len(nr.Calls)
		for _, c := range nr.Calls {
			res.OutTokens += c.OutTokens
			if c.Cached {
				res.CachedLLMCalls++
			}
		}
	}
	ans, ok := vars["{"+root.OutVar+"}"]
	if !ok {
		return nil, fmt.Errorf("exec: plan root variable %s missing", root.OutVar)
	}
	res.Answer = ans
	if err := e.replay(ctx, plan, res); err != nil {
		return nil, err
	}
	return res, nil
}

// replay submits the recorded work to the shared slot pool and fills in
// res's timing: the makespan reflects slot grants actually received
// against concurrent queries. A query admitted upstream carries its ticket
// in the context; an unticketed caller gets a self-contained
// admit/release. The ticket resolves before the task graph is built: its
// home machine places the query's unscattered work.
func (e *Executor) replay(ctx context.Context, plan *core.Plan, res *Result) error {
	pool := e.Pool
	tk := sched.TicketFrom(ctx)
	if pool == nil {
		pool, tk = sched.NewCluster(e.clusterWidth(), e.slots()), nil
		pool.Batching = e.Batching
	}
	owned := tk == nil
	if owned {
		tk = pool.Admit(0)
	}
	tasks, taskOf := e.tasks(plan, res.Nodes, tk.Machine(), pool.Machines())
	jr, err := pool.Run(ctx, tk, tasks)
	if errors.Is(err, sched.ErrTicketUsed) {
		// The query's ticket was consumed by an earlier execution (the
		// system-level fallback re-runs on the same context): re-admit,
		// rebuilding the graph against the fresh ticket's home machine.
		tk = pool.Admit(tk.Priority)
		owned = true
		tasks, taskOf = e.tasks(plan, res.Nodes, tk.Machine(), pool.Machines())
		jr, err = pool.Run(ctx, tk, tasks)
	}
	if owned {
		pool.Release(tk)
	}
	if err != nil {
		return err
	}
	res.Makespan = jr.Makespan + res.ReplanDur
	res.SlotBusy = jr.Busy
	res.GrantWait = jr.GrantWait
	res.SoloMakespan = jr.Solo + res.ReplanDur
	res.PoolStart = jr.Start
	res.Contended = jr.Contended
	res.BatchedCalls = jr.BatchedUnits
	for i := range res.Nodes {
		nr := &res.Nodes[i]
		ti := taskOf[nr.NodeID]
		nr.Span.SetAttr("finish_vtime", jr.Finish[ti].Round(time.Millisecond).String())
		if w := jr.TaskWait[ti]; w > 0 {
			nr.GrantWait = w
			nr.Span.SetAttr("grant_wait", w.Round(time.Millisecond).String())
		}
		if jr.TaskBatched != nil && jr.TaskBatched[ti] > 0 {
			nr.Span.SetInt("batched_calls", jr.TaskBatched[ti])
		}
	}
	res.Serial = vtime.Serial(tasks) + res.ReplanDur
	return nil
}

// clusterWidth is the machine count the executor scatters over (1
// without a sharding).
func (e *Executor) clusterWidth() int {
	if e.Sharding == nil || e.Sharding.N < 1 {
		return 1
	}
	return e.Sharding.N
}

// runPass executes every not-yet-completed node of the plan in parallel
// bottom-up topological order, recording results into completed/vars. It
// returns a non-nil trigger when replanning was requested (the pass
// stops early; in-flight nodes still finish and are kept).
func (e *Executor) runPass(ctx context.Context, plan *core.Plan, order []*core.Node,
	completed map[int]*NodeResult, vars map[string]values.Value, allowReplan bool) (*replanTrigger, error) {

	espan := obs.SpanFrom(ctx)
	var (
		mu     sync.Mutex
		firstE error
		trig   *replanTrigger
	)
	setErr := func(err error) {
		mu.Lock()
		if firstE == nil {
			firstE = err
		}
		mu.Unlock()
	}
	// Snapshot the completed set before spawning: this pass's goroutines
	// append to completed concurrently with the spawn loop.
	already := make(map[int]bool, len(completed))
	for id := range completed {
		already[id] = true
	}
	done := make(map[int]chan struct{}, len(order))
	for _, n := range order {
		done[n.ID] = make(chan struct{})
		if already[n.ID] {
			close(done[n.ID]) // finished in a previous pass
		}
	}
	sem := make(chan struct{}, e.maxParallel())
	after := twins(order)

	var wg sync.WaitGroup
	for _, n := range order {
		if already[n.ID] {
			continue
		}
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[n.ID])
			// Wait for prerequisites (bottom-up topological execution) and
			// for the node's earlier twin, if it has one, bailing out when
			// the query's context is cancelled so a server-side timeout
			// stops in-flight plans.
			waitFor := n.Deps
			if first, ok := after[n.ID]; ok {
				waitFor = append(slices.Clip(waitFor), first)
			}
			for _, d := range waitFor {
				select {
				case <-done[d]:
				case <-ctx.Done():
					setErr(ctx.Err())
					return
				}
			}
			mu.Lock()
			failed := firstE != nil
			inputs := make([]values.Value, len(n.Inputs))
			for i, ref := range n.Inputs {
				v, ok := vars[ref]
				if !ok {
					failed = true
				}
				inputs[i] = v
			}
			mu.Unlock()
			if failed {
				return
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				setErr(ctx.Err())
				return
			}
			nspan := espan.NewDetached(fmt.Sprintf("node[%d] %s", n.ID, n.Op), obs.KindNode)
			nr, err := e.runNode(ctx, plan, n, inputs, nspan)
			nspan.End()
			<-sem
			if err != nil {
				setErr(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			vars["{"+n.OutVar+"}"] = nr.Value
			completed[n.ID] = nr
			if allowReplan && trig == nil && firstE == nil {
				if t := e.replanCheck(plan, n, nr, completed); t != nil {
					trig = t
					nr.Span.SetAttr("replan_trigger", "true")
					firstE = errReplan
				}
			}
		}()
	}
	wg.Wait()
	if firstE != nil && firstE != errReplan {
		return nil, firstE
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return trig, nil
}

// twins maps each node that repeats an earlier node of order — the same
// operator and implementation over the same arguments and inputs — to the
// id of the first such node. Twins send the same prompts: run side by side
// they race for the lead of every call the shared cache coalesces, and
// which twin's busy time a call lands in — and with it the plan's
// makespan — would follow goroutine arrival. The later twin therefore
// runs after the first, which pays for the calls; the virtual schedule is
// replayed from the plan's own edges and does not see the wait.
func twins(order []*core.Node) map[int]int {
	var after map[int]int
	var firstVar map[string]string // a later twin's "{var}" -> the first twin's
	first := func(v string) string {
		if f, ok := firstVar[v]; ok {
			return f
		}
		return v
	}
	sameInput := func(a, b string) bool { return first(a) == first(b) }
	for i, n := range order {
		for _, m := range order[:i] {
			if n.Op == m.Op && n.Phys == m.Phys && maps.Equal(n.Args, m.Args) && slices.EqualFunc(n.Inputs, m.Inputs, sameInput) {
				if after == nil {
					after, firstVar = map[int]int{}, map[string]string{}
				}
				// m has no earlier twin: n would have met that one first.
				after[n.ID], firstVar["{"+n.OutVar+"}"] = m.ID, "{"+m.OutVar+"}"
				break
			}
		}
	}
	return after
}

// replanCheck reports whether a finished node's observed cardinality
// deviates from its estimate enough to warrant replanning the remaining
// suffix. It only fires when a direct dependent has not executed yet —
// otherwise the corrected estimate could no longer change anything.
func (e *Executor) replanCheck(plan *core.Plan, n *core.Node, nr *NodeResult, completed map[int]*NodeResult) *replanTrigger {
	est, obsd := n.EstCard, nr.Value.Len()
	if est <= 0 {
		return nil
	}
	if obsd < 1 {
		obsd = 1
	}
	ratio := float64(est) / float64(obsd)
	if obsd > est {
		ratio = float64(obsd) / float64(est)
	}
	if ratio < e.ReplanThreshold {
		return nil
	}
	for _, m := range plan.Nodes {
		if _, did := completed[m.ID]; did {
			continue
		}
		for _, d := range m.Deps {
			if d == n.ID {
				return &replanTrigger{nodeID: n.ID, est: est, obs: obsd}
			}
		}
	}
	return nil
}

func (e *Executor) maxReplans() int {
	if e.MaxReplans < 1 {
		return 1
	}
	return e.MaxReplans
}

func (e *Executor) slots() int {
	if e.Slots < 1 {
		return 4
	}
	return e.Slots
}

func (e *Executor) maxParallel() int {
	if e.MaxParallel < 1 {
		return 8
	}
	return e.MaxParallel
}

// runNode executes one operator, trying the selected physical first and
// falling back to other adequate implementations on failure (the paper's
// plan adjustment during execution).
func (e *Executor) runNode(ctx context.Context, plan *core.Plan, n *core.Node, inputs []values.Value, span *obs.Span) (*NodeResult, error) {
	spec, ok := ops.Get(n.Op)
	if !ok {
		return nil, fmt.Errorf("exec: unknown operator %q", n.Op)
	}
	cands := spec.Adequate(n.Args, inputs)
	if len(cands) == 0 {
		return nil, fmt.Errorf("exec: no adequate implementation for %s(%v)", n.Op, n.Args)
	}
	// Order candidates: the optimizer's choice first, then the rest.
	sort.SliceStable(cands, func(i, j int) bool {
		return (cands[i].Name == n.Phys) && (cands[j].Name != n.Phys)
	})

	inCard := 0
	if len(inputs) > 0 {
		inCard = inputs[0].TotalDocs()
		if inCard == 0 {
			inCard = inputs[0].Len()
		}
	}

	// Scatter execution: the optimizer marked this node for cluster
	// fan-out. Any scatter failure falls through to the ordinary
	// candidate loop below, so a shard error degrades to an unscattered
	// run instead of losing the query.
	if m, okm := n.Args.Int("_scatter"); okm && m > 1 {
		nr, serr := e.runScatter(ctx, n, cands[0], m, inputs, span, inCard)
		if serr == nil {
			return nr, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		span.SetAttr("scatter_fallback", serr.Error())
	}

	var lastErr error
	for i, phys := range cands {
		rec := llm.NewRecorder(e.Worker)
		// When tracing, wrap the recorder so each model invocation
		// attaches an llm span under the node span (calls of failed
		// attempts stay visible: that is the plan adjustment happening).
		var cli llm.Client = rec
		if span != nil {
			cli = llm.NewTraced(rec, span)
		}
		// A fresh budget per candidate: a fallback implementation starts
		// with full headroom, and skips from failed attempts don't leak.
		fb := ops.NewFaultBudget(e.NodeErrorBudget)
		env := &ops.Env{Store: e.Store, Client: cli, BatchSize: e.batch(), Budget: fb, Views: e.Views}
		v, err := phys.Run(ctx, env, n.Args, inputs)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			span.SetAttr("failed_phys", phys.Name)
			continue
		}
		nr := &NodeResult{
			NodeID:      n.ID,
			Op:          n.Op,
			Phys:        phys.Name,
			Value:       v,
			Calls:       rec.Calls(),
			InCard:      inCard,
			Adjusted:    i > 0,
			SkippedDocs: fb.Skipped(),
			ViewHits:    env.ViewHits(),
			Span:        span,
		}
		work := inCard
		if k, okk := n.Args.Int("_scanK"); okk && strings.HasPrefix(phys.Name, "IndexFilter") {
			work = k
		}
		// View-served judgments never reached the model either: exclude
		// them from the calibration work, like cache-served calls below.
		if work > nr.ViewHits {
			work -= nr.ViewHits
		} else if nr.ViewHits > 0 {
			work = 0
		}
		// Cache-served calls cost zero time and never reached a model:
		// feeding them to the calibrator would drag its per-call mean
		// toward zero. Calibrate on the live calls only, scaling the work
		// to the fraction of items they actually covered.
		live := make([]llm.Call, 0, len(nr.Calls))
		for _, c := range nr.Calls {
			if !c.Cached {
				live = append(live, c)
			}
		}
		if phys.LLMBased {
			if len(live) > 0 {
				lw := work
				if len(live) < len(nr.Calls) {
					lw = work * len(live) / len(nr.Calls)
				}
				e.Calib.RecordLLM(phys.Name, lw, live)
			}
		} else {
			nr.PreDur = e.Calib.PreDuration(phys.Name, work)
			e.Calib.RecordPre(phys.Name, work, nr.PreDur)
		}
		// Annotate the node span: the virtual duration is the operator's
		// busy time on its model instance (its calls run sequentially;
		// cached calls contribute zero).
		var busy time.Duration
		var inTok, outTok, retries int
		for _, c := range nr.Calls {
			busy += c.Dur
			inTok += c.InTokens
			outTok += c.OutTokens
			retries += c.Retries
		}
		nr.Retries = retries
		span.SetVDur(busy + nr.PreDur)
		span.SetAttr("phys", phys.Name)
		span.SetInt("in_card", inCard)
		span.SetInt("out_card", v.Len())
		span.SetInt("llm_calls", len(nr.Calls))
		if nc := len(nr.Calls) - len(live); nc > 0 {
			span.SetInt("cached_calls", nc)
		}
		span.SetInt("in_tokens", inTok)
		span.SetInt("out_tokens", outTok)
		if retries > 0 {
			span.SetInt("retries", retries)
		}
		if nr.Adjusted {
			span.SetAttr("adjusted", "true")
		}
		if nr.SkippedDocs > 0 {
			span.SetInt("skipped_docs", nr.SkippedDocs)
		}
		if nr.ViewHits > 0 {
			span.SetInt("view_hits", nr.ViewHits)
		}
		return nr, nil
	}
	return nil, fmt.Errorf("exec: all implementations of %s failed: %w", n.Op, lastErr)
}

func (e *Executor) batch() int {
	if e.BatchSize < 1 {
		return 16
	}
	return e.BatchSize
}

// batchSpec decomposes one recorded call's duration into the
// continuous-batching cost parts. The parts sum exactly to the call's
// Dur — Base and Decode come from the worker profile, TemplatePrefill
// from the stamped template tokens, and PayloadPrefill absorbs the
// residual (payload prefill plus any folded retry penalties) — so a
// batch of one costs precisely the unbatched duration. Calls without a
// batch key, or whose duration is somehow below the profile floor,
// return nil and never coalesce.
func (e *Executor) batchSpec(c llm.Call) *vtime.BatchSpec {
	if c.BatchKey == "" {
		return nil
	}
	prof := e.Worker.Profile()
	out := c.OutTokens
	if out < 1 {
		out = 1
	}
	decode := time.Duration(out) * prof.PerOutToken
	residual := c.Dur - prof.Base - decode
	if residual < 0 {
		return nil
	}
	tmpl := time.Duration(float64(c.TemplateTokens) * llm.PrefillTokenFactor * float64(prof.PerOutToken))
	if tmpl > residual {
		tmpl = residual
	}
	return &vtime.BatchSpec{
		Key:             c.BatchKey,
		Base:            prof.Base,
		Decode:          decode,
		TemplatePrefill: tmpl,
		PayloadPrefill:  residual - tmpl,
		PayloadKey:      c.PayloadKey,
	}
}

// tasks converts observed node executions into the vtime task graph and
// reports which task each plan node's own work is, by node id.
// Unscattered operators run on the query's home machine; a scattered
// node expands into one task per shard (shard s on machine s's slots)
// followed by its own task, the merge on the home machine gated on every
// shard.
func (e *Executor) tasks(plan *core.Plan, nodes []NodeResult, home, machines int) ([]vtime.Task, map[int]int) {
	if machines < 1 {
		machines = 1
	}
	homePool := vtime.OnMachine(home % machines)
	byID := make(map[int]*NodeResult, len(nodes))
	for i := range nodes {
		byID[nodes[i].NodeID] = &nodes[i]
	}
	taskOf := make(map[int]int, len(plan.Nodes))
	n := 0
	for _, node := range plan.Nodes {
		n += len(byID[node.ID].ShardCalls)
		taskOf[node.ID] = n
		n++
	}
	tasks := make([]vtime.Task, 0, n)
	// An operator executes on a single model instance: its calls form a
	// sequential stream (the paper parallelizes ACROSS its 4 Llama
	// instances, one operator per instance). Cache-served calls bypass the
	// slot pool entirely: no unit, no makespan or SlotBusy contribution.
	stream := func(deps []int, calls []llm.Call, pool vtime.Pool, batchable bool) vtime.Task {
		var units []vtime.Unit
		for _, c := range calls {
			if c.Cached {
				continue
			}
			u := vtime.Unit{Dur: c.Dur, Pool: pool}
			if batchable {
				u.Batch = e.batchSpec(c)
			}
			units = append(units, u)
		}
		return vtime.Task{Deps: deps, Units: units, Sequential: true}
	}
	for _, node := range plan.Nodes {
		nr := byID[node.ID]
		deps := make([]int, len(node.Deps))
		for i, d := range node.Deps {
			deps[i] = taskOf[d]
		}
		var own vtime.Task
		if len(nr.ShardCalls) > 0 {
			// Scatter: each shard's call stream is its own task on the
			// shard's machine; the merge joins them back (its calls are the
			// combine overhead the optimizer costed).
			shards := make([]int, len(nr.ShardCalls))
			for s, calls := range nr.ShardCalls {
				shards[s] = len(tasks)
				tasks = append(tasks, stream(deps, calls, vtime.OnMachine(s%machines), true))
			}
			own = stream(shards, nr.MergeCalls, homePool, false)
		} else {
			own = stream(deps, nr.Calls, homePool, true)
		}
		if nr.PreDur > 0 || len(own.Units) == 0 {
			own.Units = append(own.Units, vtime.Unit{Dur: nr.PreDur})
		}
		tasks = append(tasks, own)
	}
	return tasks, taskOf
}
