package obs

import (
	"runtime"
	"strconv"
	"time"
)

// Metrics bundles the standard Unify instruments over one Registry: the
// process-wide counters the server exposes at /metrics and /v1/stats and
// the health endpoint reads. A nil *Metrics is a valid no-op sink (every
// method checks the receiver), so library users who construct systems by
// hand pay nothing.
type Metrics struct {
	Reg *Registry

	Queries      Counter // by terminal status: "ok" / "error"
	QuerySeconds Histogram
	PlanSeconds  Histogram
	ExecSeconds  Histogram

	LLMCalls       Counter // by task
	LLMTokensIn    Counter // by task
	LLMTokensOut   Counter // by task
	LLMCachedCalls Counter // by task: calls answered by the response cache

	CacheHits      Counter // by cache layer
	CacheMisses    Counter // by cache layer
	CacheEvictions Counter // by cache layer
	CacheCoalesced Counter // by cache layer
	CacheBytes     Gauge   // resident bytes of the shared cache
	CacheEntries   Gauge   // resident entries of the shared cache

	SimCalls Gauge // by model: calls that reached the simulated backend

	PlanFallbacks   Counter
	PlanAdjustments Counter
	PlanCacheHits   Counter

	FaultsInjected    Counter // by fault kind
	LLMRetries        Counter // by task
	LLMHedges         Counter // by task
	LLMRetryExhausted Counter // by task
	ExecReplans       Counter
	ExecSkippedDocs   Counter

	SlotBusySeconds Counter
	SlotUtilization Gauge

	// Serving-layer instruments: the shared slot pool and the HTTP
	// admission queue.
	GrantWaitSeconds Histogram // per-query slot-grant wait on the pool
	PoolActive       Gauge     // queries currently admitted to the pool
	PoolUtilization  Gauge     // aggregate epoch slot utilization
	// Per-machine cluster gauges, registered lazily by EnablePerMachine:
	// single-machine systems never register them, keeping the /metrics
	// exposition byte-identical to the pre-cluster format (the registry
	// emits HELP/TYPE for every registered metric, series or not).
	PoolMachineActive      Gauge // by machine: queries homed on it
	PoolMachineUtilization Gauge // by machine: epoch slot utilization
	// Continuous-batching gauges, registered lazily by EnableBatching:
	// batching-off systems never register them, keeping the /metrics
	// exposition byte-identical to the pre-batching format.
	BatchGrants       Gauge     // batchable slot grants (invocations), lifetime
	BatchedCalls      Gauge     // member calls those grants carried, lifetime
	BatchOccupancy    Gauge     // mean calls per invocation
	BatchSavedSeconds Gauge     // slot busy vtime avoided versus solo execution
	ServeQueueDepth   Gauge     // requests waiting in the admission queue
	ServeInflight     Gauge     // requests holding an admission slot
	ServeQueueWait    Histogram // wall-clock admission-queue wait
	ServeRejected     Counter   // by reason: "queue_full" / "deadline"

	HTTPRequests Counter // by path

	// Per-operator-class cost attribution (the /v1/profile data as
	// Prometheus series), labeled by operator class ("Op/Phys" or a
	// phase name).
	OpExecutions       Counter // by op
	OpLLMCalls         Counter // by op
	OpCachedCalls      Counter // by op
	OpInTokens         Counter // by op
	OpOutTokens        Counter // by op
	OpSkippedDocs      Counter // by op
	OpRetries          Counter // by op
	OpBusySeconds      Counter // by op: modeled busy vtime
	OpShareSeconds     Counter // by op: attributed share of query vtime
	OpGrantWaitSeconds Counter // by op: slot-grant wait vtime

	// Query-history trace store and slow-query log.
	TracesStored  Gauge   // traces currently retained
	TracesEvicted Gauge   // traces evicted since start (monotonic)
	SlowQueries   Counter // queries crossing the slow-query threshold

	// Materialized-view and ingestion instruments, registered lazily by
	// EnableViews: views-off systems never register them, keeping the
	// /metrics exposition byte-identical to the views-less format.
	ViewRows        Gauge   // materialized rows resident across columns
	ViewColumns     Gauge   // distinct view columns
	ViewHits        Gauge   // lifetime per-document view hits
	ViewMisses      Gauge   // lifetime per-document view misses
	ViewBackfills   Gauge   // lifetime rows written back after model work
	ViewInvalidated Gauge   // lifetime rows dropped by document updates
	IngestDocs      Counter // by kind: documents added / updated
	CorpusGen       Gauge   // corpus generation (mutations since open)
}

// NewMetrics builds a fresh registry with the standard Unify instruments
// registered.
func NewMetrics() *Metrics {
	r := NewRegistry()
	m := &Metrics{Reg: r}
	m.Queries = r.CounterVec("unify_queries_total",
		"Queries processed, by terminal status.", "status")
	m.QuerySeconds = r.Histogram("unify_query_vtime_seconds",
		"End-to-end simulated query latency.", nil)
	m.PlanSeconds = r.Histogram("unify_plan_vtime_seconds",
		"Simulated planning+estimation latency per query.", nil)
	m.ExecSeconds = r.Histogram("unify_exec_vtime_seconds",
		"Simulated execution makespan per query.", nil)
	m.LLMCalls = r.CounterVec("unify_llm_calls_total",
		"Model invocations, by prompt task.", "task")
	m.LLMTokensIn = r.CounterVec("unify_llm_in_tokens_total",
		"Prompt tokens consumed, by task.", "task")
	m.LLMTokensOut = r.CounterVec("unify_llm_out_tokens_total",
		"Tokens generated, by task.", "task")
	m.LLMCachedCalls = r.CounterVec("unify_llm_cached_calls_total",
		"Model invocations answered by the shared response cache, by task.", "task")
	m.CacheHits = r.CounterVec("unify_cache_hits_total",
		"Shared-cache hits, by layer.", "layer")
	m.CacheMisses = r.CounterVec("unify_cache_misses_total",
		"Shared-cache misses, by layer.", "layer")
	m.CacheEvictions = r.CounterVec("unify_cache_evictions_total",
		"Shared-cache evictions (budget or staleness), by layer.", "layer")
	m.CacheCoalesced = r.CounterVec("unify_cache_coalesced_total",
		"Lookups that joined an identical in-flight computation, by layer.", "layer")
	m.CacheBytes = r.Gauge("unify_cache_bytes",
		"Resident byte cost of the shared cache.")
	m.CacheEntries = r.Gauge("unify_cache_entries",
		"Resident entry count of the shared cache.")
	m.SimCalls = r.GaugeVec("unify_sim_calls",
		"Prompts that reached the simulated model backend, by model.", "model")
	m.PlanFallbacks = r.Counter("unify_plan_fallback_total",
		"Queries answered via the Generate (RAG) fallback plan.")
	m.PlanAdjustments = r.Counter("unify_exec_adjusted_total",
		"Queries where a failing physical operator was swapped at run time.")
	m.PlanCacheHits = r.Counter("unify_plan_cache_hits_total",
		"Queries whose optimization was served entirely from the plan cache.")
	m.FaultsInjected = r.CounterVec("unify_faults_injected_total",
		"Faults injected into model calls, by kind.", "kind")
	m.LLMRetries = r.CounterVec("unify_llm_retries_total",
		"Model call retry attempts after transient failures, by task.", "task")
	m.LLMHedges = r.CounterVec("unify_llm_hedges_total",
		"Hedged (backup) model calls issued against slow primaries, by task.", "task")
	m.LLMRetryExhausted = r.CounterVec("unify_llm_retry_exhausted_total",
		"Model calls that failed after exhausting their retry budget, by task.", "task")
	m.ExecReplans = r.Counter("unify_exec_replans_total",
		"Dynamic replanning rounds triggered by cardinality deviations.")
	m.ExecSkippedDocs = r.Counter("unify_exec_skipped_docs_total",
		"Documents dropped by node error budgets (partial results).")
	m.SlotBusySeconds = r.Counter("unify_slot_busy_vtime_seconds_total",
		"Simulated busy time accumulated across LLM slots.")
	m.SlotUtilization = r.Gauge("unify_slot_utilization",
		"Slot-pool utilization of the most recent query (busy / (makespan*slots)).")
	m.GrantWaitSeconds = r.Histogram("unify_slot_grant_wait_vtime_seconds",
		"Per-query simulated wait for slot grants on the shared pool.", nil)
	m.PoolActive = r.Gauge("unify_pool_active_queries",
		"Queries currently admitted to the shared slot pool.")
	m.PoolUtilization = r.Gauge("unify_pool_utilization",
		"Aggregate slot utilization of the pool's current scheduling epoch.")
	m.ServeQueueDepth = r.Gauge("unify_serve_queue_depth",
		"Requests waiting in the server admission queue.")
	m.ServeInflight = r.Gauge("unify_serve_inflight",
		"Requests holding a server admission slot.")
	m.ServeQueueWait = r.Histogram("unify_serve_queue_wait_seconds",
		"Wall-clock time requests spent in the admission queue.", nil)
	m.ServeRejected = r.CounterVec("unify_serve_rejected_total",
		"Requests rejected by admission control, by reason.", "reason")
	m.HTTPRequests = r.CounterVec("unify_http_requests_total",
		"HTTP requests served, by path.", "path")
	m.OpExecutions = r.CounterVec("unify_op_executions_total",
		"Operator-class executions attributed by query profiles.", "op")
	m.OpLLMCalls = r.CounterVec("unify_op_llm_calls_total",
		"Model invocations attributed to operator classes.", "op")
	m.OpCachedCalls = r.CounterVec("unify_op_cached_calls_total",
		"Cache-served model invocations attributed to operator classes.", "op")
	m.OpInTokens = r.CounterVec("unify_op_in_tokens_total",
		"Prompt tokens attributed to operator classes.", "op")
	m.OpOutTokens = r.CounterVec("unify_op_out_tokens_total",
		"Generated tokens attributed to operator classes.", "op")
	m.OpSkippedDocs = r.CounterVec("unify_op_skipped_docs_total",
		"Error-budget document skips attributed to operator classes.", "op")
	m.OpRetries = r.CounterVec("unify_op_retries_total",
		"Transient-failure retries attributed to operator classes.", "op")
	m.OpBusySeconds = r.CounterVec("unify_op_busy_vtime_seconds_total",
		"Modeled busy vtime attributed to operator classes.", "op")
	m.OpShareSeconds = r.CounterVec("unify_op_vtime_share_seconds_total",
		"Share of end-to-end query vtime attributed to operator classes.", "op")
	m.OpGrantWaitSeconds = r.CounterVec("unify_op_grant_wait_vtime_seconds_total",
		"Slot-grant wait vtime attributed to operator classes.", "op")
	m.TracesStored = r.Gauge("unify_traces_stored",
		"Query traces currently retained in the history store.")
	m.TracesEvicted = r.Gauge("unify_traces_evicted_total",
		"Query traces evicted from the history store since start.")
	m.SlowQueries = r.Counter("unify_slow_queries_total",
		"Queries whose vtime crossed the slow-query log threshold.")
	return m
}

// SetBuildInfo registers the constant unify_build_info gauge carrying
// the library version and Go runtime version.
func (m *Metrics) SetBuildInfo(version string) {
	if m == nil {
		return
	}
	m.Reg.Info("unify_build_info",
		"Constant gauge carrying build metadata as labels.",
		map[string]string{"version": version, "goversion": runtime.Version()})
}

// RecordOpCosts folds one query's cost profile into the per-operator-
// class counters. Classes are visited in sorted order so first-seen
// label registration is deterministic.
func (m *Metrics) RecordOpCosts(p *CostProfile) {
	if m == nil || p == nil {
		return
	}
	for _, name := range p.ClassNames() {
		c := p.Classes[name]
		m.OpExecutions.AddL(name, float64(c.Executions))
		m.OpLLMCalls.AddL(name, float64(c.LLMCalls))
		m.OpCachedCalls.AddL(name, float64(c.CachedCalls))
		m.OpInTokens.AddL(name, float64(c.InTokens))
		m.OpOutTokens.AddL(name, float64(c.OutTokens))
		m.OpSkippedDocs.AddL(name, float64(c.SkippedDocs))
		m.OpRetries.AddL(name, float64(c.Retries))
		m.OpBusySeconds.AddL(name, c.Busy.Seconds())
		m.OpShareSeconds.AddL(name, c.Share.Seconds())
		m.OpGrantWaitSeconds.AddL(name, c.GrantWait.Seconds())
	}
}

// RecordTraceStore publishes the trace store's retention state.
func (m *Metrics) RecordTraceStore(stored int, evicted int64) {
	if m == nil {
		return
	}
	m.TracesStored.Set(float64(stored))
	m.TracesEvicted.Set(float64(evicted))
}

// RecordSlowQuery counts one slow-query log emission.
func (m *Metrics) RecordSlowQuery() {
	if m == nil {
		return
	}
	m.SlowQueries.Inc()
}

// RecordQueryOK records a successfully answered query's aggregates. The
// request id is stored as the latency histograms' bucket exemplar so a
// slow bucket links to its retained trace ("" records no exemplar).
func (m *Metrics) RecordQueryOK(requestID string, total, plan, exec time.Duration) {
	if m == nil {
		return
	}
	m.Queries.IncL("ok")
	m.QuerySeconds.ObserveDurEx(total, requestID)
	m.PlanSeconds.ObserveDurEx(plan, requestID)
	m.ExecSeconds.ObserveDurEx(exec, requestID)
}

// RecordQueryFailed records a failed query.
func (m *Metrics) RecordQueryFailed() {
	if m == nil {
		return
	}
	m.Queries.IncL("error")
}

// RecordCall charges one LLM call to the per-task counters.
func (m *Metrics) RecordCall(task string, inTokens, outTokens int) {
	if m == nil {
		return
	}
	if task == "" {
		task = "unknown"
	}
	m.LLMCalls.IncL(task)
	m.LLMTokensIn.AddL(task, float64(inTokens))
	m.LLMTokensOut.AddL(task, float64(outTokens))
}

// RecordCacheEvent charges one batch of cache-layer events to the
// per-layer counters (the shared cache's event hook).
func (m *Metrics) RecordCacheEvent(layer, event string, n int) {
	if m == nil || n <= 0 {
		return
	}
	v := float64(n)
	switch event {
	case "hit":
		m.CacheHits.AddL(layer, v)
	case "miss":
		m.CacheMisses.AddL(layer, v)
	case "evict":
		m.CacheEvictions.AddL(layer, v)
	case "coalesce":
		m.CacheCoalesced.AddL(layer, v)
	}
}

// RecordCacheSize publishes the shared cache's resident footprint.
func (m *Metrics) RecordCacheSize(bytes int64, entries int) {
	if m == nil {
		return
	}
	m.CacheBytes.Set(float64(bytes))
	m.CacheEntries.Set(float64(entries))
}

// RecordSimStats publishes how many prompts reached a simulated backend.
func (m *Metrics) RecordSimStats(model string, calls int) {
	if m == nil {
		return
	}
	m.SimCalls.SetL(model, float64(calls))
}

// RecordFault charges one injected fault to the per-kind counter.
func (m *Metrics) RecordFault(kind string) {
	if m == nil {
		return
	}
	m.FaultsInjected.IncL(kind)
}

// RecordResilience charges one retry-layer event ("retry", "hedge",
// "exhausted") for a task.
func (m *Metrics) RecordResilience(event, task string) {
	if m == nil {
		return
	}
	if task == "" {
		task = "unknown"
	}
	switch event {
	case "retry":
		m.LLMRetries.IncL(task)
	case "hedge":
		m.LLMHedges.IncL(task)
	case "exhausted":
		m.LLMRetryExhausted.IncL(task)
	}
}

// RecordDegradation records one query's graceful-degradation accounting.
func (m *Metrics) RecordDegradation(replans, skippedDocs int) {
	if m == nil {
		return
	}
	if replans > 0 {
		m.ExecReplans.Add(float64(replans))
	}
	if skippedDocs > 0 {
		m.ExecSkippedDocs.Add(float64(skippedDocs))
	}
}

// RecordSlots records the executor slot accounting of one query.
func (m *Metrics) RecordSlots(busy, makespan time.Duration, slots int) {
	if m == nil {
		return
	}
	m.SlotBusySeconds.Add(busy.Seconds())
	if makespan > 0 && slots > 0 {
		m.SlotUtilization.Set(busy.Seconds() / (makespan.Seconds() * float64(slots)))
	}
}

// RecordGrantWait records one query's simulated slot-grant wait on the
// shared pool, tagged with the query's request id as bucket exemplar.
func (m *Metrics) RecordGrantWait(requestID string, wait time.Duration) {
	if m == nil {
		return
	}
	m.GrantWaitSeconds.ObserveDurEx(wait, requestID)
}

// RecordPool publishes the shared slot pool's live state.
func (m *Metrics) RecordPool(active int, utilization float64) {
	if m == nil {
		return
	}
	m.PoolActive.Set(float64(active))
	m.PoolUtilization.Set(utilization)
}

// EnablePerMachine registers the per-machine pool gauges. Multi-machine
// systems call it once at open time; until then RecordPoolMachines is a
// no-op and the exposition carries no per-machine metrics at all.
func (m *Metrics) EnablePerMachine(machines int) {
	if m == nil || m.Reg == nil || machines < 2 || m.PoolMachineActive.m != nil {
		return
	}
	m.PoolMachineActive = m.Reg.GaugeVec("unify_pool_machine_active_queries",
		"Queries currently homed on the machine, by machine index.", "machine")
	m.PoolMachineUtilization = m.Reg.GaugeVec("unify_pool_machine_utilization",
		"Epoch slot utilization of the machine, by machine index.", "machine")
}

// EnableBatching registers the continuous-batching gauges. Systems with
// batching on call it once at open time; until then RecordBatching is a
// no-op and the exposition carries no batching metrics at all.
func (m *Metrics) EnableBatching() {
	if m == nil || m.Reg == nil || m.BatchGrants.m != nil {
		return
	}
	m.BatchGrants = m.Reg.Gauge("unify_batch_grants",
		"Slot grants of batchable units (batched invocations), lifetime.")
	m.BatchedCalls = m.Reg.Gauge("unify_batched_calls",
		"Operator LLM calls carried by batchable slot grants, lifetime.")
	m.BatchOccupancy = m.Reg.Gauge("unify_batch_occupancy",
		"Mean calls per batchable invocation (batched_calls / batch_grants).")
	m.BatchSavedSeconds = m.Reg.Gauge("unify_batch_saved_vtime_seconds",
		"Slot busy vtime avoided by batching versus solo execution, lifetime.")
}

// EnableViews registers the materialized-view and ingestion instruments.
// Systems with views on call it once at open time; until then RecordViews
// and RecordIngest are no-ops and the exposition carries no view metrics.
func (m *Metrics) EnableViews() {
	if m == nil || m.Reg == nil || m.ViewRows.m != nil {
		return
	}
	m.ViewRows = m.Reg.Gauge("unify_view_rows",
		"Materialized semantic view rows resident across all columns.")
	m.ViewColumns = m.Reg.Gauge("unify_view_columns",
		"Distinct materialized view columns.")
	m.ViewHits = m.Reg.Gauge("unify_view_hits_total",
		"Per-document judgments served from materialized views, lifetime.")
	m.ViewMisses = m.Reg.Gauge("unify_view_misses_total",
		"Per-document view lookups that fell through to model work, lifetime.")
	m.ViewBackfills = m.Reg.Gauge("unify_view_backfills_total",
		"View rows written back after fresh model work, lifetime.")
	m.ViewInvalidated = m.Reg.Gauge("unify_view_invalidated_total",
		"View rows dropped because their document was updated, lifetime.")
	m.IngestDocs = m.Reg.CounterVec("unify_ingest_docs_total",
		"Documents ingested into the live corpus, by mutation kind.", "kind")
	m.CorpusGen = m.Reg.Gauge("unify_corpus_generation",
		"Corpus generation: mutations applied since the system opened.")
}

// RecordViews publishes the view store's lifetime counters (no-op unless
// EnableViews ran).
func (m *Metrics) RecordViews(columns, rows int, hits, misses, backfills, invalidated int64) {
	if m == nil || m.ViewRows.m == nil {
		return
	}
	m.ViewColumns.Set(float64(columns))
	m.ViewRows.Set(float64(rows))
	m.ViewHits.Set(float64(hits))
	m.ViewMisses.Set(float64(misses))
	m.ViewBackfills.Set(float64(backfills))
	m.ViewInvalidated.Set(float64(invalidated))
}

// RecordIngest charges one corpus mutation to the ingestion counters
// (no-op unless EnableViews ran).
func (m *Metrics) RecordIngest(added, updated int, generation uint64) {
	if m == nil || m.IngestDocs.m == nil {
		return
	}
	if added > 0 {
		m.IngestDocs.AddL("added", float64(added))
	}
	if updated > 0 {
		m.IngestDocs.AddL("updated", float64(updated))
	}
	m.CorpusGen.Set(float64(generation))
}

// RecordBatching publishes the pool's continuous-batching state (no-op
// unless EnableBatching ran).
func (m *Metrics) RecordBatching(grants, calls int64, occupancy float64, saved time.Duration) {
	if m == nil {
		return
	}
	m.BatchGrants.Set(float64(grants))
	m.BatchedCalls.Set(float64(calls))
	m.BatchOccupancy.Set(occupancy)
	m.BatchSavedSeconds.Set(saved.Seconds())
}

// RecordPoolMachines publishes per-machine cluster state (one series per
// machine; no-op unless EnablePerMachine ran).
func (m *Metrics) RecordPoolMachines(active []int, util []float64) {
	if m == nil {
		return
	}
	for i, a := range active {
		l := strconv.Itoa(i)
		m.PoolMachineActive.SetL(l, float64(a))
		if i < len(util) {
			m.PoolMachineUtilization.SetL(l, util[i])
		}
	}
}

// RecordAdmission records one request's trip through the admission queue
// (it waited, then ran).
func (m *Metrics) RecordAdmission(wait time.Duration) {
	if m == nil {
		return
	}
	m.ServeQueueWait.ObserveDur(wait)
}

// RecordRejection charges one admission-control rejection to the
// per-reason counter ("queue_full", "deadline").
func (m *Metrics) RecordRejection(reason string) {
	if m == nil {
		return
	}
	m.ServeRejected.IncL(reason)
}

// RecordServeDepth publishes the admission queue's live state.
func (m *Metrics) RecordServeDepth(queued, inflight int) {
	if m == nil {
		return
	}
	m.ServeQueueDepth.Set(float64(queued))
	m.ServeInflight.Set(float64(inflight))
}
