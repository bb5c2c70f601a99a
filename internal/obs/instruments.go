package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Metrics bundles the instruments the system pushes into over one
// Registry: the numbers that have no owner but the query that produced
// them — query counts and latencies, calls and tokens by task, retries,
// degradation, slot accounting, and the serving layer's own instruments.
// Every other standard metric is read from the component that owns it
// when the registry is read (Registry.Func); see NewMetrics.
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

	PlanFallbacks   Counter
	PlanAdjustments Counter
	PlanCacheHits   Counter

	LLMRetries        Counter // by task
	LLMHedges         Counter // by task
	LLMRetryExhausted Counter // by task
	ExecReplans       Counter
	ExecSkippedDocs   Counter

	SlotBusySeconds  Counter
	SlotUtilization  Gauge
	GrantWaitSeconds Histogram // per-query slot-grant wait on the pool

	// Serving-layer instruments: the HTTP admission queue. Its depth is
	// the queue's own number, read through serveDepth when scraped.
	serveDepth     atomic.Pointer[func() (queued, inflight int)]
	ServeQueueWait Histogram // wall-clock admission-queue wait
	ServeRejected  Counter   // by reason: "queue_full" / "deadline"

	HTTPRequests Counter // by path

	// IngestDocs counts documents added / updated, by kind. The system
	// registers it after NewMetrics, where the exposition has always
	// carried it: behind the build info and the view gauges.
	IngestDocs Counter
}

// NewMetrics builds a fresh registry with the pushed instruments
// registered in exposition order. Four runs of that order belong to
// numbers other components own; at each, owned (when non-nil) is called
// with the registry and the run's name so the caller can register those
// metrics through Registry.Func at their place: "cache" (the shared cache
// and the simulated models), "faults" (the fault injector), "pool" (the
// slot pool) and "history" (profiler, trace store, slow-query log).
func NewMetrics(owned func(r *Registry, owner string)) *Metrics {
	r := NewRegistry()
	if owned == nil {
		owned = func(*Registry, string) {}
	}
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
	owned(r, "cache")
	m.PlanFallbacks = r.Counter("unify_plan_fallback_total",
		"Queries answered via the Generate (RAG) fallback plan.")
	m.PlanAdjustments = r.Counter("unify_exec_adjusted_total",
		"Queries where a failing physical operator was swapped at run time.")
	m.PlanCacheHits = r.Counter("unify_plan_cache_hits_total",
		"Queries whose optimization was served entirely from the plan cache.")
	owned(r, "faults")
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
	owned(r, "pool")
	// No series until a server attaches its admission queue.
	serveDepth := func(name, help string, pick func(queued, inflight int) int) {
		r.Func(name, help, TypeGauge, "", func(emit func(string, float64)) {
			if depth := m.serveDepth.Load(); depth != nil {
				emit("", float64(pick((*depth)())))
			}
		})
	}
	serveDepth("unify_serve_queue_depth", "Requests waiting in the server admission queue.",
		func(queued, _ int) int { return queued })
	serveDepth("unify_serve_inflight", "Requests holding a server admission slot.",
		func(_, inflight int) int { return inflight })
	m.ServeQueueWait = r.Histogram("unify_serve_queue_wait_seconds",
		"Wall-clock time requests spent in the admission queue.", nil)
	m.ServeRejected = r.CounterVec("unify_serve_rejected_total",
		"Requests rejected by admission control, by reason.", "reason")
	m.HTTPRequests = r.CounterVec("unify_http_requests_total",
		"HTTP requests served, by path.", "path")
	owned(r, "history")
	return m
}

// SetBuildInfo registers the constant unify_build_info gauge carrying
// the library version and Go runtime version.
func (m *Metrics) SetBuildInfo(version string) {
	m.Reg.Info("unify_build_info",
		"Constant gauge carrying build metadata as labels.",
		map[string]string{"version": version, "goversion": runtime.Version()})
}

// RecordQueryOK records a successfully answered query's aggregates. The
// request id is stored as the latency histograms' bucket exemplar so a
// slow bucket links to its retained trace ("" records no exemplar).
func (m *Metrics) RecordQueryOK(requestID string, total, plan, exec time.Duration) {
	m.Queries.IncL("ok")
	m.QuerySeconds.ObserveDurEx(total, requestID)
	m.PlanSeconds.ObserveDurEx(plan, requestID)
	m.ExecSeconds.ObserveDurEx(exec, requestID)
}

// RecordQueryFailed records a failed query.
func (m *Metrics) RecordQueryFailed() {
	m.Queries.IncL("error")
}

// RecordCall charges one LLM call to the per-task counters.
func (m *Metrics) RecordCall(task string, inTokens, outTokens int) {
	if task == "" {
		task = "unknown"
	}
	m.LLMCalls.IncL(task)
	m.LLMTokensIn.AddL(task, float64(inTokens))
	m.LLMTokensOut.AddL(task, float64(outTokens))
}

// RecordResilience charges one retry-layer event ("retry", "hedge",
// "exhausted") for a task.
func (m *Metrics) RecordResilience(event, task string) {
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
	if replans > 0 {
		m.ExecReplans.Add(float64(replans))
	}
	if skippedDocs > 0 {
		m.ExecSkippedDocs.Add(float64(skippedDocs))
	}
}

// RecordSlots records the executor slot accounting of one query.
func (m *Metrics) RecordSlots(busy, makespan time.Duration, slots int) {
	m.SlotBusySeconds.Add(busy.Seconds())
	if makespan > 0 && slots > 0 {
		m.SlotUtilization.Set(busy.Seconds() / (makespan.Seconds() * float64(slots)))
	}
}

// RecordGrantWait records one query's simulated slot-grant wait on the
// shared pool, tagged with the query's request id as bucket exemplar.
func (m *Metrics) RecordGrantWait(requestID string, wait time.Duration) {
	m.GrantWaitSeconds.ObserveDurEx(wait, requestID)
}

// RecordIngest charges one corpus mutation to the ingestion counter.
func (m *Metrics) RecordIngest(added, updated int) {
	if added > 0 {
		m.IngestDocs.AddL("added", float64(added))
	}
	if updated > 0 {
		m.IngestDocs.AddL("updated", float64(updated))
	}
}

// RecordAdmission records one request's trip through the admission queue
// (it waited, then ran).
func (m *Metrics) RecordAdmission(wait time.Duration) {
	m.ServeQueueWait.ObserveDur(wait)
}

// RecordRejection charges one admission-control rejection to the
// per-reason counter ("queue_full", "deadline").
func (m *Metrics) RecordRejection(reason string) {
	m.ServeRejected.IncL(reason)
}

// AttachServe names the admission queue that unify_serve_queue_depth and
// unify_serve_inflight read when the registry is read. depth must be safe
// for concurrent use.
func (m *Metrics) AttachServe(depth func() (queued, inflight int)) {
	m.serveDepth.Store(&depth)
}
