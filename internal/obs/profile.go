package obs

import (
	"sort"
	"sync"
	"time"
)

// OpCost aggregates the cost counters of one operator class: the LLM
// side (calls, tokens, cache traffic, retries) and the virtual-clock
// side (busy time, attributed share of query vtime, slot-grant waits).
// All durations are virtual-clock.
type OpCost struct {
	Executions  int
	LLMCalls    int
	CachedCalls int
	InTokens    int
	OutTokens   int
	SkippedDocs int
	Retries     int
	Busy        time.Duration // modeled work time (LLM call + programmed compute)
	Share       time.Duration // attributed share of the query's total vtime
	GrantWait   time.Duration // slot-grant delay on the shared pool
}

func (c *OpCost) add(o OpCost) {
	c.Executions += o.Executions
	c.LLMCalls += o.LLMCalls
	c.CachedCalls += o.CachedCalls
	c.InTokens += o.InTokens
	c.OutTokens += o.OutTokens
	c.SkippedDocs += o.SkippedDocs
	c.Retries += o.Retries
	c.Busy += o.Busy
	c.Share += o.Share
	c.GrantWait += o.GrantWait
}

// CostProfile is one query's per-operator-class cost attribution. The
// class key is the phase name ("planning", "optimize", "replan") or an
// operator identity "Op/Phys" (e.g. "filter/llm_sem_filter"). After
// Attribute, the Share fields sum exactly to Total, which equals the
// query's Answer vtime — the profile.vtime_attribution invariant.
type CostProfile struct {
	RequestID string
	Total     time.Duration
	Classes   map[string]*OpCost
}

// Phase class names used by the system when building query profiles.
const (
	ClassPlanning = "planning"
	ClassOptimize = "optimize"
	ClassReplan   = "replan"
	// ClassUnattributed absorbs execution vtime when no operator class
	// recorded busy time (e.g. a fully cache-served plan).
	ClassUnattributed = "(unattributed)"
)

// NewCostProfile returns an empty profile for one query.
func NewCostProfile(requestID string) *CostProfile {
	return &CostProfile{RequestID: requestID, Classes: map[string]*OpCost{}}
}

// Add merges cost counters into a class, creating it if needed.
func (p *CostProfile) Add(class string, c OpCost) {
	e, ok := p.Classes[class]
	if !ok {
		e = &OpCost{}
		p.Classes[class] = e
	}
	e.add(c)
}

// ClassNames returns the profile's class keys sorted.
func (p *CostProfile) ClassNames() []string {
	names := make([]string, 0, len(p.Classes))
	for n := range p.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Attribute fixes the per-class vtime shares from the query's phase
// durations. Planning and optimize get their phase durations verbatim;
// the execution makespan is split across operator classes proportionally
// to their busy time, with the class of greatest busy time absorbing the
// integer-division remainder so the shares sum EXACTLY to
// planning+optimize+exec. Deterministic: ties break on class name.
func (p *CostProfile) Attribute(planning, optimize, exec time.Duration) {
	p.Total = planning + optimize + exec
	if planning > 0 || p.Classes[ClassPlanning] != nil {
		p.Add(ClassPlanning, OpCost{})
		p.Classes[ClassPlanning].Share = planning
	}
	if optimize > 0 || p.Classes[ClassOptimize] != nil {
		p.Add(ClassOptimize, OpCost{})
		p.Classes[ClassOptimize].Share = optimize
	}

	// Execution classes: everything that is not a phase class.
	var names []string
	var busyTotal time.Duration
	for name, c := range p.Classes {
		if name == ClassPlanning || name == ClassOptimize {
			continue
		}
		c.Share = 0
		names = append(names, name)
		busyTotal += c.Busy
	}
	sort.Strings(names)
	if exec == 0 {
		return
	}
	if busyTotal == 0 {
		// Nothing recorded busy time (fully cache-served execution):
		// the makespan cannot be split proportionally, so charge it to
		// a dedicated class rather than silently dropping vtime.
		p.Add(ClassUnattributed, OpCost{})
		p.Classes[ClassUnattributed].Share = exec
		return
	}
	// Proportional split. Scaling through float64 then truncating keeps
	// every share <= its exact value; the largest-busy class absorbs the
	// leftover nanoseconds so the sum is exact.
	var acc time.Duration
	biggest := names[0]
	for _, n := range names {
		c := p.Classes[n]
		if c.Busy > p.Classes[biggest].Busy {
			biggest = n
		}
		share := time.Duration(float64(exec) * (float64(c.Busy) / float64(busyTotal)))
		if acc+share > exec {
			share = exec - acc
		}
		c.Share = share
		acc += share
	}
	p.Classes[biggest].Share += exec - acc
}

// ShareSum returns the sum of all class shares (== Total after
// Attribute).
func (p *CostProfile) ShareSum() time.Duration {
	var sum time.Duration
	for _, c := range p.Classes {
		sum += c.Share
	}
	return sum
}

// Totals sums the profile's counters across classes.
func (p *CostProfile) Totals() OpCost {
	var t OpCost
	for _, c := range p.Classes {
		t.add(*c)
	}
	return t
}

// Profiler accumulates per-operator-class cost profiles across the
// lifetime of a system — the data behind /v1/profile. A nil *Profiler
// is a safe no-op.
type Profiler struct {
	mu      sync.Mutex
	queries int64
	total   time.Duration
	classes map[string]*OpCost
}

// NewProfiler returns an empty cumulative profiler.
func NewProfiler() *Profiler {
	return &Profiler{classes: map[string]*OpCost{}}
}

// Record folds one query's profile into the cumulative totals.
func (pr *Profiler) Record(p *CostProfile) {
	if pr == nil || p == nil {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.queries++
	pr.total += p.Total
	for name, c := range p.Classes {
		e, ok := pr.classes[name]
		if !ok {
			e = &OpCost{}
			pr.classes[name] = e
		}
		e.add(*c)
	}
}

// Queries reports how many profiles have been recorded.
func (pr *Profiler) Queries() int64 {
	if pr == nil {
		return 0
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.queries
}

// TotalVTime reports the cumulative attributed query vtime.
func (pr *Profiler) TotalVTime() time.Duration {
	if pr == nil {
		return 0
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.total
}

// Totals sums the cumulative counters across classes (used by the
// profile.global_bound invariant: these may never exceed the process-
// global registry counters).
func (pr *Profiler) Totals() OpCost {
	if pr == nil {
		return OpCost{}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	var t OpCost
	for _, c := range pr.classes {
		t.add(*c)
	}
	return t
}

// opFamilies are the cumulative profile's Prometheus faces: one counter
// family per OpCost field, labeled by operator class ("Op/Phys" or a phase
// name) — the /v1/profile data as series.
var opFamilies = []struct {
	name, help string
	val        func(OpCost) float64
}{
	{"unify_op_executions_total", "Operator-class executions attributed by query profiles.",
		func(c OpCost) float64 { return float64(c.Executions) }},
	{"unify_op_llm_calls_total", "Model invocations attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.LLMCalls) }},
	{"unify_op_cached_calls_total", "Cache-served model invocations attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.CachedCalls) }},
	{"unify_op_in_tokens_total", "Prompt tokens attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.InTokens) }},
	{"unify_op_out_tokens_total", "Generated tokens attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.OutTokens) }},
	{"unify_op_skipped_docs_total", "Error-budget document skips attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.SkippedDocs) }},
	{"unify_op_retries_total", "Transient-failure retries attributed to operator classes.",
		func(c OpCost) float64 { return float64(c.Retries) }},
	{"unify_op_busy_vtime_seconds_total", "Modeled busy vtime attributed to operator classes.",
		func(c OpCost) float64 { return c.Busy.Seconds() }},
	{"unify_op_vtime_share_seconds_total", "Share of end-to-end query vtime attributed to operator classes.",
		func(c OpCost) float64 { return c.Share.Seconds() }},
	{"unify_op_grant_wait_vtime_seconds_total", "Slot-grant wait vtime attributed to operator classes.",
		func(c OpCost) float64 { return c.GrantWait.Seconds() }},
}

// Register exposes the cumulative profile on r as the unify_op_* counter
// families, each read from the profiler when r is read.
func (pr *Profiler) Register(r *Registry) {
	for _, f := range opFamilies {
		r.Func(f.name, f.help, TypeCounter, "op", func(emit func(string, float64)) {
			pr.mu.Lock()
			defer pr.mu.Unlock()
			for class, c := range pr.classes {
				emit(class, f.val(*c))
			}
		})
	}
}

// OpCostJSON is the wire form of one class's cumulative cost counters.
// Durations are virtual-clock seconds; no wall-clock values appear, so
// the snapshot is byte-deterministic for identical workloads.
type OpCostJSON struct {
	Executions     int     `json:"executions"`
	LLMCalls       int     `json:"llm_calls"`
	CachedCalls    int     `json:"cached_calls"`
	InTokens       int     `json:"in_tokens"`
	OutTokens      int     `json:"out_tokens"`
	SkippedDocs    int     `json:"skipped_docs,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	BusySecs       float64 `json:"busy_vtime_secs"`
	ShareSecs      float64 `json:"vtime_share_secs"`
	GrantWaitSecs  float64 `json:"grant_wait_vtime_secs"`
	ShareOfTotal   float64 `json:"share_of_total,omitempty"`
	CacheHitRatio  float64 `json:"cache_hit_ratio,omitempty"`
	CallsPerExec   float64 `json:"calls_per_exec,omitempty"`
	TokensPerCall  float64 `json:"tokens_per_call,omitempty"`
	VTimePerExecMS float64 `json:"vtime_per_exec_ms,omitempty"`
}

func costJSON(c *OpCost, total time.Duration) OpCostJSON {
	j := OpCostJSON{
		Executions:    c.Executions,
		LLMCalls:      c.LLMCalls,
		CachedCalls:   c.CachedCalls,
		InTokens:      c.InTokens,
		OutTokens:     c.OutTokens,
		SkippedDocs:   c.SkippedDocs,
		Retries:       c.Retries,
		BusySecs:      c.Busy.Seconds(),
		ShareSecs:     c.Share.Seconds(),
		GrantWaitSecs: c.GrantWait.Seconds(),
	}
	if total > 0 {
		j.ShareOfTotal = round6(float64(c.Share) / float64(total))
	}
	if calls := c.LLMCalls + c.CachedCalls; calls > 0 {
		j.CacheHitRatio = round6(float64(c.CachedCalls) / float64(calls))
		j.TokensPerCall = round6(float64(c.InTokens+c.OutTokens) / float64(calls))
	}
	if c.Executions > 0 {
		j.CallsPerExec = round6(float64(c.LLMCalls+c.CachedCalls) / float64(c.Executions))
		j.VTimePerExecMS = round6(float64(c.Share) / float64(time.Millisecond) / float64(c.Executions))
	}
	return j
}

// round6 rounds to 6 decimal places for stable, compact JSON.
func round6(v float64) float64 {
	return float64(int64(v*1e6+0.5)) / 1e6
}

// ProfileSnapshot is the wire form of the cumulative profiler.
type ProfileSnapshot struct {
	Queries        int64                 `json:"queries"`
	TotalVTimeSecs float64               `json:"total_vtime_secs"`
	Classes        map[string]OpCostJSON `json:"classes"`
}

// Snapshot returns the cumulative profile in wire form. Map keys are
// sorted by encoding/json, so marshaling the snapshot is deterministic.
func (pr *Profiler) Snapshot() ProfileSnapshot {
	snap := ProfileSnapshot{Classes: map[string]OpCostJSON{}}
	if pr == nil {
		return snap
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	snap.Queries = pr.queries
	snap.TotalVTimeSecs = pr.total.Seconds()
	for name, c := range pr.classes {
		snap.Classes[name] = costJSON(c, pr.total)
	}
	return snap
}

// ProfileJSON returns one query profile's wire form (class key ->
// counters), used when embedding a profile in an Answer or trace.
func (p *CostProfile) JSON() map[string]OpCostJSON {
	if p == nil {
		return nil
	}
	out := make(map[string]OpCostJSON, len(p.Classes))
	for name, c := range p.Classes {
		out[name] = costJSON(c, p.Total)
	}
	return out
}
