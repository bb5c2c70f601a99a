// Package unify is a reproduction of "Unify: An Unstructured Data
// Analytics System" (ICDE 2025): natural-language analytics over
// collections of unstructured text documents, with automatic logical plan
// generation by LLM-guided query reduction, cost-based physical
// optimization driven by semantic cardinality estimation, and parallel
// DAG execution.
//
// Quick start:
//
//	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(500))
//	ans, err := sys.Query(ctx, "How many questions about football have more than 500 views?")
//	fmt.Println(ans.Text, ans.TotalDur)
//
// Per-query options ride on the same call: sys.Query(ctx, q,
// unify.WithTimeout(30*time.Second), unify.WithPriority(1)).
//
// The LLM substrate is simulated (deterministic, latency-modeled); see
// DESIGN.md for the substitution rationale. Any llm.Client implementation
// can be plugged in via unify.WithClients.
package unify

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"unify/internal/cache"
	"unify/internal/check"
	"unify/internal/core"
	"unify/internal/corpus"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/exec"
	"unify/internal/faults"
	"unify/internal/lexicon"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/optimizer"
	"unify/internal/sce"
	"unify/internal/sched"
	"unify/internal/usql"
	"unify/internal/values"
	"unify/internal/views"
	"unify/internal/vtime"
)

// Version identifies this build of the reproduction (reported by
// /v1/health and the CLI).
const Version = "0.2.0"

// Config controls system construction.
type Config struct {
	// Dataset names a built-in synthetic corpus: "sports", "ai", "law",
	// "wiki". Ignored when documents are supplied directly.
	Dataset string
	// Size overrides the corpus document count (0 = the paper's size).
	Size int

	// Planner hyper-parameters (paper defaults: K=5, Tau=0.75; the
	// candidate count NC is the paper's 3, fixed).
	K   int
	Tau float64

	// Machine model: LLM server slots per machine (paper: 4) and
	// per-invocation document batch size.
	Slots     int
	BatchSize int

	// Machines sets the simulated cluster width (0 or 1 = the paper's
	// single machine). With M > 1 the corpus is hash-partitioned into M
	// shards, queries are admitted round-robin to a home machine, and the
	// optimizer may scatter shardable operators across the cluster.
	Machines int

	// Batching enables cross-query continuous batching of operator LLM
	// calls: compatible per-document calls (same task family, model, and
	// prompt template) from different queries that are co-pending on the
	// shared pool coalesce into one batched invocation occupying a
	// single slot, amortizing base and template-prefill cost. Off by
	// default; batch formation is deterministic given the admission and
	// submission sequence, and answers are byte-identical either way.
	// The policy is fixed: DefaultBatchWindow, DefaultBatchFairnessCap,
	// DefaultMaxBatch.
	Batching bool

	// Mode selects the optimizer strategy (CostBased, Rule, GroundTruth
	// via the optimizer package constants).
	Mode optimizer.Mode

	// Views enables materialized semantic views: per-document operator
	// results (filter verdicts, classification labels, extracted field
	// values) persist as named columns keyed by document content hash,
	// and repeated semantic work is served from the view instead of the
	// model. Rows survive corpus ingestion — only mutated documents
	// recompute. Off by default; answers are byte-identical with views on
	// or off (rows are only served while their content hash matches).
	Views bool

	// SCEBuckets sets the importance-function resolution.
	SCEBuckets int
	// TrainSCE learns the importance function from a small set of
	// historical predicates at open time (recommended; the paper's
	// offline phase).
	TrainSCE bool

	// Sim overrides the simulated model configuration (noise, speed).
	Sim *llm.SimConfig

	// CacheBytes bounds the shared semantic cache (LLM responses,
	// planning sessions, selectivities, plans). 0 selects
	// DefaultCacheBytes; a negative value disables the shared cache — LLM
	// responses and planning sessions are no longer cached, while the
	// optimizer falls back to its private 4 MiB plan+selectivity LRU (see
	// optimizer.New).
	CacheBytes int64

	// FaultPlan, when non-nil, injects seeded deterministic faults into
	// the worker client (the failure-testing harness). Enabling it also
	// installs the retry layer (llm.DefaultRetryPolicy: 3 retries).
	FaultPlan *faults.Plan
	// HedgeAfter, when positive, hedges slow worker calls: a response
	// slower than this threshold triggers one backup request and the
	// faster outcome wins.
	HedgeAfter time.Duration
	// NodeErrorBudget lets each operator absorb up to this many per-batch
	// LLM failures by skipping the affected documents (partial results)
	// instead of failing the node.
	NodeErrorBudget int
	// ReplanThreshold enables dynamic replanning (paper §V): when an
	// executed node's observed cardinality deviates from its estimate by
	// more than this ratio, the remaining DAG suffix is re-optimized with
	// corrected cardinalities. Values <= 1 disable replanning.
	ReplanThreshold float64

	// StrictChecks turns on the internal/check invariant checker: every
	// logical and physical plan (including replanned suffixes), every
	// merged pool schedule, and every completed answer's accounting is
	// validated, and a violation fails the query with a span-dump
	// diagnostic. On in all tests; off by default on the production path
	// (the checks are pure CPU but add per-query overhead).
	StrictChecks bool

	// MaxTraces bounds the retained query-history trace store (0 selects
	// obs.DefaultMaxTraces). A negative value disables trace retention —
	// and with it the always-on tracer that feeds the store; Analyze and
	// caller-installed tracers still work.
	MaxTraces int
	// MaxTraceSpans bounds the spans retained per stored trace (0
	// selects obs.DefaultMaxSpansPerTrace). Truncation is breadth-first:
	// the query and phase structure survives, deep per-call detail is
	// dropped first.
	MaxTraceSpans int
	// SlowQueryVTime, when positive, logs every query whose total
	// virtual time meets the threshold as one structured log/slog record
	// carrying the request id of its retained trace.
	SlowQueryVTime time.Duration
}

// DefaultCacheBytes is the default shared-cache budget (64 MiB).
const DefaultCacheBytes = 64 << 20

// The continuous-batching policy in force when Config.Batching is on.
const (
	// DefaultBatchWindow is the virtual-time hold-the-door window:
	// compatible calls becoming ready within it after a slot grant may
	// join the batch — long enough to catch lockstep chains slightly out
	// of phase, short against the ~300ms-and-up worker calls it defers.
	DefaultBatchWindow = 100 * time.Millisecond
	// DefaultBatchFairnessCap bounds a multi-member batch's duration to a
	// few worker calls' worth of slot time, so one heavy scan cannot grow
	// invocations that monopolize a slot and starve light queries.
	DefaultBatchFairnessCap = 2500 * time.Millisecond
	// DefaultMaxBatch bounds the calls coalesced into one invocation; it
	// mirrors typical continuous-batching widths at the simulated
	// worker's scale.
	DefaultMaxBatch = 8
)

func (c *Config) defaults() {
	if c.Dataset == "" {
		c.Dataset = "sports"
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.Tau == 0 {
		c.Tau = 0.75
	}
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Machines < 1 {
		c.Machines = 1
	}
	if c.SCEBuckets == 0 {
		c.SCEBuckets = 8
	}
}

// System is an opened Unify instance over one document collection.
type System struct {
	Config  Config
	Dataset *corpus.Dataset
	Store   *docstore.Store

	PlannerClient llm.Client
	WorkerClient  llm.Client

	Planner   *core.Planner
	Optimizer *optimizer.Optimizer
	Executor  *exec.Executor
	Estimator *sce.Estimator
	Calib     *cost.Calibrator

	// Metrics is the system's process-wide metrics bundle (served by the
	// HTTP server at /metrics and /v1/stats), always installed by New:
	// the instruments queries push into, and a registry that reads every
	// other number from the component that owns it.
	Metrics *obs.Metrics

	// Cache is the shared semantic cache backing every caching layer
	// (nil when Config.CacheBytes < 0).
	Cache *cache.LRU

	// Pool is the process-global slot pool: every concurrent query of
	// this system contends for the same simulated LLM slots (paper
	// §VI-A: one machine, 4 local model instances). With Config.Machines
	// > 1 it is the shared cluster of M such pools on one virtual clock.
	Pool *sched.Pool

	// Sharding is the corpus shard assignment driving scatter execution
	// (nil on single-machine systems).
	Sharding *docstore.Sharding

	// Views is the materialized semantic view store (nil unless
	// Config.Views is on).
	Views *views.Store
	// ingestMu serializes corpus mutations: Ingest runs exclusively
	// against queries' shared structures, mirroring the paper's offline
	// preprocessing boundary.
	ingestMu sync.Mutex

	// Injector is the fault-injecting wrapper around the worker client
	// (nil unless Config.FaultPlan was set).
	Injector *faults.Client

	// Traces is the bounded query-history store: every completed query's
	// span tree, keyed by request id, ordered by admission sequence
	// (served at /v1/traces). Nil when Config.MaxTraces < 0.
	Traces *obs.TraceStore
	// Profiler accumulates per-operator-class cost profiles across the
	// system's lifetime (served at /v1/profile).
	Profiler *obs.Profiler
	// SlowLog is the threshold-gated slow-query log (nil when
	// Config.SlowQueryVTime <= 0).
	SlowLog *obs.SlowLog

	// PreprocessDur is the simulated offline preprocessing time
	// (embedding + indexing + SCE training).
	PreprocessDur time.Duration
}

// NodeStat summarizes one operator's execution for diagnostics.
type NodeStat struct {
	NodeID   int
	Op       string
	Physical string
	InCard   int
	OutCard  int
	LLMCalls int
	// Busy is the operator's total model time (its calls run
	// sequentially on one instance in the machine model).
	Busy time.Duration
}

// Answer is a completed query.
type Answer struct {
	Text  string
	Value values.Value
	Plan  *core.Plan
	// Lang is the resolved query language the frontend dispatched on:
	// LangUSQL for parsed statements (zero planner-LLM work), LangNL
	// for planner-generated plans. Never LangAuto on a completed query.
	Lang Language
	// Nodes reports per-operator execution statistics in plan order.
	Nodes []NodeStat
	// Unresolved lists sub-queries the planner could not reduce (the
	// paper suggests mining these to design new operators).
	Unresolved []string

	PlanningDur   time.Duration // logical planning (sequential prompts)
	EstimationDur time.Duration // SCE + physical optimization
	ExecDur       time.Duration // parallel execution makespan
	TotalDur      time.Duration
	// SerialExecDur is the latency had execution been fully sequential
	// (the Unify-noLO ablation).
	SerialExecDur time.Duration

	LLMCalls int
	// CachedLLMCalls counts invocations (planning + execution) answered
	// by the shared response cache at zero virtual cost.
	CachedLLMCalls int
	// PlanCacheHit reports that optimization was served from the plan
	// cache (estimation and lowering were skipped entirely).
	PlanCacheHit bool
	Fallback     bool
	// Adjusted reports runtime plan adjustment: an operator's selected
	// physical implementation failed and a fallback ran instead.
	Adjusted bool

	// SkippedDocs counts documents dropped by node error budgets under
	// LLM failures; Partial is true when any were dropped.
	SkippedDocs int
	Partial     bool
	// ViewHits counts per-document judgments served from materialized
	// views instead of model work (0 unless Config.Views is on).
	ViewHits int
	// Replans counts dynamic replanning rounds during execution.
	Replans int

	// SlotBusy is the execution's total simulated busy time across the
	// LLM slot pool (utilization = SlotBusy / (ExecDur * slots)).
	SlotBusy time.Duration
	// SlotGrantWait is the total simulated delay between work units
	// becoming ready and receiving a slot grant on the shared pool —
	// non-zero when concurrent queries contend for slots.
	SlotGrantWait time.Duration
	// SoloExecDur is the execution latency the same work would have on
	// an idle machine: ExecDur == SoloExecDur for a query that ran
	// alone, ExecDur >= SoloExecDur under contention.
	SoloExecDur time.Duration
	// SchedStart is the query's admission time on the pool's shared
	// virtual clock.
	SchedStart time.Duration
	// Contended reports that execution shared slots with other queries.
	Contended bool
	// BatchedCalls counts this query's operator LLM calls that rode in
	// multi-member batched invocations (0 unless batching is enabled).
	BatchedCalls int
	// RequestID identifies the query in the trace store and slow-query
	// log: the caller-installed id (obs.WithRequestID) when present,
	// otherwise minted from the pool admission sequence ("t-<seq>").
	RequestID string

	// Profile is the query's per-operator-class cost attribution: LLM
	// calls, tokens, cache traffic, retries, grant waits, and vtime
	// shares that sum exactly to TotalDur (the profile.vtime_attribution
	// invariant under StrictChecks).
	Profile *obs.CostProfile

	// Trace is the query's span tree (EXPLAIN ANALYZE), populated only
	// when a tracer was installed in the query context via
	// obs.WithTracer; render it with obs.Render or serialize via JSON().
	Trace *obs.Span
}

// open assembles the system from what New resolved: a defaulted Config,
// a concrete dataset and concrete clients.
func open(ds *corpus.Dataset, cfg Config, planner, worker llm.Client) (*System, error) {
	store, err := docstore.New(ds.Name, ds.Documents())
	if err != nil {
		return nil, err
	}
	// The components that own exported numbers come first, so the
	// registry can be told where to read them (registerOwned). The
	// profiler is always on (pure counters); the trace store and the
	// slow-query log honor the retention config.
	s := &System{
		Config:   cfg,
		Dataset:  ds,
		Store:    store,
		Pool:     sched.NewCluster(cfg.Machines, cfg.Slots),
		Profiler: obs.NewProfiler(),
		SlowLog:  obs.NewSlowLog(cfg.SlowQueryVTime, nil),
	}
	if cfg.MaxTraces >= 0 {
		s.Traces = obs.NewTraceStore(cfg.MaxTraces, cfg.MaxTraceSpans)
	}
	// The shared semantic cache: one byte budget across LLM responses,
	// planning sessions, selectivities, and plans.
	if cfg.CacheBytes >= 0 {
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		s.Cache = cache.New(budget)
		llmLayer := cache.NewLayer[llm.Response](s.Cache, "llm", llm.ResponseCost)
		planner = llm.NewCached(planner, llmLayer)
		worker = llm.NewCached(worker, llmLayer)
	}
	// Failure harness: the injector sits above the cache (garbage never
	// poisons cached entries) and below the retry layer, so every logical
	// call — hit or miss — is exposed to serving-path faults and the
	// Resilient wrapper sees them first.
	if cfg.FaultPlan != nil {
		s.Injector = faults.New(worker, cfg.FaultPlan)
		worker = s.Injector
	}
	metrics := obs.NewMetrics(s.registerOwned)
	metrics.SetBuildInfo(Version)
	s.Metrics = metrics
	if cfg.FaultPlan != nil || cfg.HedgeAfter > 0 {
		pol := llm.DefaultRetryPolicy()
		pol.HedgeAfter = cfg.HedgeAfter
		worker = llm.NewResilient(worker, pol, metrics.RecordResilience)
	}
	if cfg.Batching {
		// Top of the worker stack: stamps batch-compatibility metadata
		// (key + template tokens) on responses so the executor's
		// per-query recorder carries it into virtual-time replay, where
		// batch formation actually happens. Answers are untouched.
		worker = llm.NewBatching(worker)
	}
	calib := cost.NewCalibrator(cfg.BatchSize)
	est := sce.NewEstimator(store, worker, cfg.SCEBuckets)
	opt := optimizer.New(store, est, calib, cfg.Slots)
	opt.Mode = cfg.Mode
	opt.Machines = cfg.Machines
	opt.AttachCache(s.Cache)
	s.PlannerClient = planner
	s.WorkerClient = worker
	// Three candidate plans per query: the paper's NC (§VI-A).
	s.Planner = core.NewPlanner(planner, store.Embedder(), cfg.K, 3, cfg.Tau)
	s.Planner.AttachCache(s.Cache)
	s.Optimizer = opt
	s.Executor = exec.New(store, worker, calib)
	s.Estimator = est
	s.Calib = calib
	s.Executor.Slots = cfg.Slots
	s.Executor.BatchSize = cfg.BatchSize
	s.Executor.Pool = s.Pool
	// The metrics below follow the build info in the exposition, each
	// registered only on the configurations that have its owner.
	reg := metrics.Reg
	if cfg.Machines > 1 {
		s.Sharding = store.Shard(nil, cfg.Machines)
		s.Executor.Sharding = s.Sharding
		perMachine := func(name, help string, v func(sched.MachineStat) float64) {
			reg.Func(name, help, obs.TypeGauge, "machine", func(emit func(string, float64)) {
				for _, pm := range s.Pool.Stats().PerMachine {
					emit(strconv.Itoa(pm.Machine), v(pm))
				}
			})
		}
		perMachine("unify_pool_machine_active_queries",
			"Queries currently homed on the machine, by machine index.",
			func(pm sched.MachineStat) float64 { return float64(pm.Active) })
		perMachine("unify_pool_machine_utilization",
			"Epoch slot utilization of the machine, by machine index.",
			func(pm sched.MachineStat) float64 { return pm.Utilization })
	}
	if cfg.Views {
		s.Views = views.NewStore()
		s.Views.SetAudit(cfg.StrictChecks)
		s.Executor.Views = s.Views
		opt.Views = s.Views
		viewStat := func(name, help string, v func(views.Stats) float64) {
			readScalar(reg, name, help, obs.TypeGauge, func() float64 { return v(s.Views.Stats()) })
		}
		viewStat("unify_view_rows", "Materialized semantic view rows resident across all columns.",
			func(st views.Stats) float64 { return float64(st.Rows) })
		viewStat("unify_view_columns", "Distinct materialized view columns.",
			func(st views.Stats) float64 { return float64(st.Columns) })
		viewStat("unify_view_hits_total", "Per-document judgments served from materialized views, lifetime.",
			func(st views.Stats) float64 { return float64(st.Hits) })
		viewStat("unify_view_misses_total", "Per-document view lookups that fell through to model work, lifetime.",
			func(st views.Stats) float64 { return float64(st.Misses) })
		viewStat("unify_view_backfills_total", "View rows written back after fresh model work, lifetime.",
			func(st views.Stats) float64 { return float64(st.Backfills) })
		viewStat("unify_view_invalidated_total", "View rows dropped because their document was updated, lifetime.",
			func(st views.Stats) float64 { return float64(st.Invalidated) })
	}
	// Ingestion is every system's: Ingest pushes the documents it applied
	// (nothing else holds that count); the generation is the store's.
	metrics.IngestDocs = reg.CounterVec("unify_ingest_docs_total",
		"Documents ingested into the live corpus, by mutation kind.", "kind")
	readScalar(reg, "unify_corpus_generation",
		"Corpus generation: mutations applied since the system opened.", obs.TypeGauge,
		func() float64 { return float64(store.Generation()) })
	s.Executor.NodeErrorBudget = cfg.NodeErrorBudget
	s.Executor.StrictChecks = cfg.StrictChecks
	s.Pool.StrictChecks = cfg.StrictChecks
	if cfg.Batching {
		pol := &vtime.BatchPolicy{
			Window:      DefaultBatchWindow,
			FairnessCap: DefaultBatchFairnessCap,
			MaxBatch:    DefaultMaxBatch,
		}
		s.Pool.Batching = pol
		s.Executor.Batching = pol
		s.poolGauge(reg, "unify_batch_grants", "Slot grants of batchable units (batched invocations), lifetime.",
			func(ps sched.Stats) float64 { return float64(ps.BatchGrants) })
		s.poolGauge(reg, "unify_batched_calls", "Operator LLM calls carried by batchable slot grants, lifetime.",
			func(ps sched.Stats) float64 { return float64(ps.BatchedUnits) })
		s.poolGauge(reg, "unify_batch_occupancy", "Mean calls per batchable invocation (batched_calls / batch_grants).",
			func(ps sched.Stats) float64 { return ps.BatchOccupancy })
		s.poolGauge(reg, "unify_batch_saved_vtime_seconds", "Slot busy vtime avoided by batching versus solo execution, lifetime.",
			func(ps sched.Stats) float64 { return ps.BatchSavedVTime.Seconds() })
	}
	if cfg.ReplanThreshold > 1 {
		s.Executor.ReplanThreshold = cfg.ReplanThreshold
		s.Executor.Replanner = opt
	}
	if cfg.TrainSCE {
		// Training is the paper's offline phase: the failure harness
		// targets query serving, so injection pauses while it runs.
		if s.Injector != nil {
			s.Injector.SetEnabled(false)
		}
		start := time.Now()
		if err := s.TrainSCE(context.Background()); err != nil {
			return nil, err
		}
		s.PreprocessDur += time.Since(start)
		if s.Injector != nil {
			s.Injector.SetEnabled(true)
		}
	}
	return s, nil
}

// readScalar registers an unlabeled read-time metric whose one series is
// v(), called when the registry is read.
func readScalar(r *obs.Registry, name, help string, typ obs.MetricType, v func() float64) {
	r.Func(name, help, typ, "", func(emit func(string, float64)) { emit("", v()) })
}

// poolGauge registers a gauge read from the slot pool's snapshot.
func (s *System) poolGauge(r *obs.Registry, name, help string, v func(sched.Stats) float64) {
	readScalar(r, name, help, obs.TypeGauge, func() float64 { return v(s.Pool.Stats()) })
}

// registerOwned is NewMetrics's callback: for each run of the exposition
// order that belongs to a component of the system, it registers the
// metrics that component owns, each as a function that reads the owner
// when the registry is read. Nothing on the query path copies these
// numbers, so a scrape of an idle system and a caller that drives the
// phases itself both see them as they are.
func (s *System) registerOwned(r *obs.Registry, owner string) {
	switch owner {
	case "cache":
		// A layer's counter renders once it has counted something, as a
		// pushed counter would.
		layers := func(name, help string, v func(cache.Stats) uint64) {
			r.Func(name, help, obs.TypeCounter, "layer", func(emit func(string, float64)) {
				for layer, st := range s.Cache.LayerStats() {
					if n := v(st); n > 0 {
						emit(layer, float64(n))
					}
				}
			})
		}
		layers("unify_cache_hits_total", "Shared-cache hits, by layer.",
			func(st cache.Stats) uint64 { return st.Hits })
		layers("unify_cache_misses_total", "Shared-cache misses, by layer.",
			func(st cache.Stats) uint64 { return st.Misses })
		layers("unify_cache_evictions_total", "Shared-cache evictions (budget or staleness), by layer.",
			func(st cache.Stats) uint64 { return st.Evictions })
		layers("unify_cache_coalesced_total", "Lookups that joined an identical in-flight computation, by layer.",
			func(st cache.Stats) uint64 { return st.Coalesced })
		readScalar(r, "unify_cache_bytes", "Resident byte cost of the shared cache.", obs.TypeGauge,
			func() float64 { return float64(s.Cache.Bytes()) })
		readScalar(r, "unify_cache_entries", "Resident entry count of the shared cache.", obs.TypeGauge,
			func() float64 { return float64(s.Cache.Len()) })
		r.Func("unify_sim_calls", "Prompts that reached the simulated model backend, by model.",
			obs.TypeGauge, "model", func(emit func(string, float64)) {
				for _, cli := range []llm.Client{s.PlannerClient, s.WorkerClient} {
					if sim := llm.SimOf(cli); sim != nil {
						calls, _ := sim.Stats()
						emit(sim.Profile().Name, float64(calls))
					}
				}
			})
	case "faults":
		r.Func("unify_faults_injected_total", "Faults injected into model calls, by kind.",
			obs.TypeCounter, "kind", func(emit func(string, float64)) {
				if s.Injector == nil {
					return
				}
				for kind, n := range s.Injector.Stats() {
					emit(string(kind), float64(n))
				}
			})
	case "pool":
		s.poolGauge(r, "unify_pool_active_queries", "Queries currently admitted to the shared slot pool.",
			func(ps sched.Stats) float64 { return float64(ps.Active) })
		s.poolGauge(r, "unify_pool_utilization", "Aggregate slot utilization of the pool's current scheduling epoch.",
			func(ps sched.Stats) float64 { return ps.Utilization })
	case "history":
		s.Profiler.Register(r)
		// No series without a trace store, as when nothing stored one.
		traces := func(name, help string, v func(*obs.TraceStore) float64) {
			r.Func(name, help, obs.TypeGauge, "", func(emit func(string, float64)) {
				if s.Traces != nil {
					emit("", v(s.Traces))
				}
			})
		}
		traces("unify_traces_stored", "Query traces currently retained in the history store.",
			func(ts *obs.TraceStore) float64 { return float64(ts.Len()) })
		traces("unify_traces_evicted_total", "Query traces evicted from the history store since start.",
			func(ts *obs.TraceStore) float64 { return float64(ts.Evicted()) })
		r.Func("unify_slow_queries_total", "Queries whose vtime crossed the slow-query log threshold.",
			obs.TypeCounter, "", func(emit func(string, float64)) {
				if n := s.SlowLog.Count(); n > 0 {
					emit("", float64(n))
				}
			})
	}
}

// IngestResult summarizes one live corpus mutation.
type IngestResult struct {
	// Added and Updated count the documents ingested by kind.
	Added   int `json:"added"`
	Updated int `json:"updated"`
	// Generation is the corpus generation after the mutation (every
	// plan/selectivity/SCE cache key embeds it, so derived state from
	// before the mutation can never serve after it).
	Generation uint64 `json:"generation"`
	// InvalidatedRows counts materialized view rows dropped because their
	// document was updated (0 without views; added documents invalidate
	// nothing — their rows simply do not exist yet).
	InvalidatedRows int `json:"invalidated_rows"`
	// Docs is the corpus size after the mutation.
	Docs int `json:"docs"`
}

// Ingest mutates the live corpus: add appends new documents (their ids
// must be unused) and update replaces existing documents in place. All
// indexes — document and sentence embeddings, the exact and HNSW vector
// indexes, per-document content hashes, and (on clusters) the shard
// assignment — are maintained incrementally and deterministically: a
// corpus grown by Ingest is byte-identical to one built statically over
// the same collection, and a post-ingest query answers exactly as a cold
// system over the mutated corpus would. Materialized view rows survive
// for unchanged documents and are invalidated for updated ones.
//
// Ingests are serialized with each other; the caller is responsible for
// not racing Ingest against in-flight queries (the HTTP layer serializes
// /v1/ingest against /v1/query admissions).
func (s *System) Ingest(add []docstore.Document, update []docstore.Document) (*IngestResult, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	// Validate up front so the mutation is all-or-nothing: every update
	// id must exist (AddDocs pre-checks its own ids for duplicates).
	for _, d := range update {
		if _, ok := s.Store.Doc(d.ID); !ok {
			return nil, fmt.Errorf("unify: ingest: update of unknown document id %d", d.ID)
		}
	}
	start := time.Now()
	res := &IngestResult{Added: len(add), Updated: len(update)}
	if len(add) > 0 {
		if err := s.Store.AddDocs(add); err != nil {
			return nil, fmt.Errorf("unify: ingest: %w", err)
		}
		if s.Sharding != nil {
			// New documents get shard assignments; existing ones stay
			// frozen so prior scatter placements remain valid.
			s.Sharding.Extend(add)
		}
	}
	if s.Views != nil {
		for _, d := range update {
			res.InvalidatedRows += s.Views.Invalidate(d.ID)
		}
	}
	// One call for all updates: the store rebuilds its graph once.
	if err := s.Store.UpdateDocs(update); err != nil {
		return nil, fmt.Errorf("unify: ingest: %w", err)
	}
	res.Generation = s.Store.Generation()
	res.Docs = s.Store.Len()
	s.PreprocessDur += time.Since(start)
	s.Metrics.RecordIngest(res.Added, res.Updated)
	return res, nil
}

// TrainSCE learns the importance function from historical predicates
// derived from the dataset's concept classes (the paper's offline phase).
func (s *System) TrainSCE(ctx context.Context) error {
	var preds []string
	for i, name := range lexicon.Names(s.Dataset.CatClass) {
		if i%3 == 0 { // a small, representative historical workload
			preds = append(preds, "related to "+name)
		}
	}
	for i, name := range lexicon.Names(s.Dataset.AspectClass) {
		if i%3 == 0 {
			preds = append(preds, "related to "+name)
		}
	}
	return s.Estimator.Train(ctx, preds, 24)
}

// DetectLanguage reports which dialect auto-detection treats a query
// string as: LangUSQL when its first token is SELECT (case-insensitive),
// LangNL otherwise. It never returns LangAuto.
func DetectLanguage(q string) Language {
	if usql.Detect(q) {
		return LangUSQL
	}
	return LangNL
}

// run is one query's state on its way through the phases: each phase
// reads what the phases before it wrote and fills in its own part. It
// lives on Query's (or Plan's) stack.
type run struct {
	q    string
	opts QueryOptions
	// span is the root "query" span; nil for Plan and for untraced
	// queries, which makes every child span a no-op.
	span *obs.Span

	// admit
	ticket *sched.Ticket
	rid    string

	// frontend
	lang      Language
	plans     []*core.Plan
	pstats    *core.PlanStats
	canonical string // canonical USQL text; "" on the planner route

	// optimize
	opt    *optimizer.Optimizer // the per-mode view the query optimized under
	plan   *core.Plan
	ostats *optimizer.Stats
	estDur time.Duration

	// execute
	res *exec.Result
}

// deadline applies the per-query timeout, if any.
func (o QueryOptions) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// Query answers one analytics query end to end: admit → frontend →
// optimize → execute → assemble, then the accounting tail (DESIGN.md
// "Query lifecycle").
//
// Options set a per-query deadline (WithTimeout), slot-grant priority
// (WithPriority), optimizer-strategy override (WithModeOverride), the
// frontend (WithLanguage) and EXPLAIN ANALYZE capture (WithAnalyze).
// Installing a tracer in ctx (obs.WithTracer) also captures the query's
// full span tree in Answer.Trace — one span per planning iteration,
// optimizer phase, and executed plan node, with LLM calls as leaves.
// Without a tracer the span plumbing is nil and costs nothing.
func (s *System) Query(ctx context.Context, q string, opts ...QueryOption) (*Answer, error) {
	r := run{q: q, opts: buildQueryOptions(opts)}
	ctx, cancel := r.opts.deadline(ctx)
	defer cancel()
	ctx = s.admit(ctx, &r)
	defer s.Pool.Release(r.ticket)

	var ans *Answer
	err := s.frontend(ctx, &r)
	if err == nil {
		err = s.optimize(ctx, &r)
	}
	if err == nil {
		err = s.execute(ctx, &r)
	}
	if err == nil {
		ans, err = s.assemble(&r)
	}
	if err != nil {
		r.span.SetAttr("error", err.Error())
	}
	// The one place the root span ends, on every path: the tree is frozen
	// before it is stored.
	r.span.End()
	return s.account(&r, ans, err)
}

// Plan generates and optimizes the physical plan for a query without
// executing it (EXPLAIN-style): exactly Query's frontend and optimize
// phases. The returned duration is the simulated planning + estimation
// latency. It accepts the same options as Query; WithTimeout,
// WithLanguage and WithModeOverride apply, the rest are execution-only.
func (s *System) Plan(ctx context.Context, q string, opts ...QueryOption) (*core.Plan, time.Duration, error) {
	r := run{q: q, opts: buildQueryOptions(opts)}
	ctx, cancel := r.opts.deadline(ctx)
	defer cancel()
	if err := s.frontend(ctx, &r); err != nil {
		return nil, 0, err
	}
	if err := s.optimize(ctx, &r); err != nil {
		return nil, 0, err
	}
	return r.plan, r.pstats.Duration + r.estDur, nil
}

// admit opens the query: a tracer when one is needed, the root span, a
// ticket on the shared slot pool (the caller releases it) and the
// request id.
func (s *System) admit(ctx context.Context, r *run) context.Context {
	// A tracer is installed for Analyze, and also whenever the trace
	// store retains history — stored traces need a real span tree even
	// when the caller did not ask for EXPLAIN ANALYZE output.
	if obs.TracerFrom(ctx) == nil && (r.opts.Analyze || s.Traces != nil) {
		ctx = obs.WithTracer(ctx, obs.NewTracer())
	}
	r.span = obs.TracerFrom(ctx).Start("query", obs.KindQuery)
	r.span.SetAttr("query", r.q)

	// Admission to the shared slot pool happens up front: queries whose
	// lifetimes overlap share a virtual epoch and contend for the same
	// simulated machine.
	r.ticket = s.Pool.Admit(r.opts.Priority)

	// The request id keys the trace store and the slow-query log: the
	// serving layer's id when one rode in on the context, otherwise one
	// minted from the admission sequence (deterministic per run).
	r.rid = obs.RequestIDFrom(ctx)
	if r.rid == "" {
		r.rid = fmt.Sprintf("t-%d", r.ticket.Seq()+1)
	}
	r.span.SetAttr("request_id", r.rid)
	return sched.WithTicket(ctx, r.ticket)
}

// frontend produces the candidate logical plans: a USQL statement is
// parsed and compiled, anything else goes to the LLM planner. Under
// StrictChecks every candidate is validated before it is optimized.
func (s *System) frontend(ctx context.Context, r *run) error {
	r.lang = r.opts.Language
	if r.lang == LangAuto {
		r.lang = DetectLanguage(r.q)
	}
	var err error
	if r.lang == LangUSQL {
		err = s.parseUSQL(r)
	} else {
		err = s.planNL(ctx, r)
	}
	if err != nil {
		return err
	}
	if s.Config.StrictChecks {
		for i, lp := range r.plans {
			if err := check.Fail(fmt.Sprintf("unify: logical plan %d for %q", i, r.q),
				check.Plan(lp, s.Store.Len(), false), r.span); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseUSQL is the parsed route: deterministic scan/parse/compile
// straight to the logical DAG — no planner LLM calls, zero planning
// vtime. Errors carry byte positions from internal/usql.
func (s *System) parseUSQL(r *run) error {
	span := r.span.StartChild("parse", obs.KindPhase)
	defer span.End()
	uq, err := usql.Parse(r.q)
	if err != nil {
		return fmt.Errorf("unify: parsing %q: %w", r.q, err)
	}
	plan, err := usql.Compile(uq, usql.Env{Dataset: s.Dataset.Name, Entity: s.Dataset.EntityWord})
	if err != nil {
		return fmt.Errorf("unify: compiling %q: %w", r.q, err)
	}
	// The canonical text is the exact plan-cache key input.
	r.plans, r.pstats, r.canonical = []*core.Plan{plan}, &core.PlanStats{}, uq.String()
	span.SetAttr("lang", "usql")
	span.SetAttr("canonical", r.canonical)
	return nil
}

// planNL is the natural-language route: LLM-guided query reduction.
func (s *System) planNL(ctx context.Context, r *run) error {
	span := r.span.StartChild("planning", obs.KindPhase)
	defer span.End()
	var err error
	r.plans, r.pstats, err = s.Planner.GeneratePlans(obs.WithSpan(ctx, span), r.q)
	if err != nil {
		return fmt.Errorf("unify: planning %q: %w", r.q, err)
	}
	span.SetVDur(r.pstats.Duration)
	return nil
}

// optimize lowers the candidates to one physical plan under the query's
// optimizer mode.
func (s *System) optimize(ctx context.Context, r *run) error {
	span := r.span.StartChild("optimize", obs.KindPhase)
	defer span.End()
	ctx = obs.WithSpan(ctx, span)
	// A per-query mode override is a shallow per-mode view of the shared
	// optimizer (cache-safe: plan signatures include the mode).
	r.opt = s.Optimizer
	if m := r.opts.Mode; m != nil && *m != s.Optimizer.Mode {
		r.opt = s.Optimizer.WithMode(*m)
	}
	var err error
	if r.canonical != "" {
		// Exact plan-cache key over the canonical text: repeated
		// parameterized USQL traffic always hits.
		r.plan, r.ostats, err = r.opt.OptimizeParsed(ctx, r.canonical, r.plans[0])
	} else {
		r.plan, r.ostats, err = r.opt.Optimize(ctx, r.plans)
	}
	if err != nil {
		return fmt.Errorf("unify: optimizing %q: %w", r.q, err)
	}
	// SCE judgments parallelize across the slot pool.
	r.estDur = r.ostats.Duration / time.Duration(s.Config.Slots)
	span.SetVDur(r.estDur)
	span.SetInt("llm_calls", len(r.ostats.Calls))
	span.SetAttr("est_cost", r.ostats.EstimatedCost.String())
	return nil
}

// execute runs the physical plan on the shared pool. An operator failure
// is answered by the single-node Generate fallback; cancellation and
// invariant violations fail the query.
func (s *System) execute(ctx context.Context, r *run) error {
	span := r.span.StartChild("execute", obs.KindPhase)
	defer span.End()
	ctx = obs.WithSpan(ctx, span)
	executor := s.Executor
	if r.opt != s.Optimizer && executor.Replanner != nil {
		// Replanning must use the same mode the query optimized under.
		cp := *executor
		cp.Replanner = r.opt
		executor = &cp
	}
	res, err := executor.Run(ctx, r.plan)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("unify: executing %q: %w", r.q, ctx.Err())
		}
		// A *check.Error says the system is wrong, not that an operator
		// failed: falling back would answer the query and hide it.
		var violation *check.Error
		if errors.As(err, &violation) {
			return err
		}
		// Plan adjustment at the system level: dynamic replanning via
		// the Generate fallback rather than a complete restart.
		fb := fallbackPlan(r.q)
		span.SetAttr("replanned", "true")
		if res, err = executor.Run(ctx, fb); err != nil {
			return fmt.Errorf("unify: executing %q: %w", r.q, err)
		}
		r.plan, r.pstats.Fallback = fb, true
	}
	r.res = res
	span.SetVDur(res.Makespan)
	span.SetInt("llm_calls", res.LLMCalls)
	span.SetAttr("slot_busy", res.SlotBusy.Round(time.Millisecond).String())
	if res.Contended {
		span.SetAttr("contended", "true")
		span.SetAttr("grant_wait", res.GrantWait.Round(time.Millisecond).String())
	}
	if res.BatchedCalls > 0 {
		span.SetInt("batched_calls", res.BatchedCalls)
	}
	if res.ViewHits > 0 {
		span.SetInt("view_hits", res.ViewHits)
	}
	return nil
}

// assemble folds the phase results into the Answer — durations, call
// counts, per-node statistics, the cost profile — and, under
// StrictChecks, validates it.
func (s *System) assemble(r *run) (*Answer, error) {
	res, pstats, ostats := r.res, r.pstats, r.ostats
	planCost := callCost(pstats.Calls, pstats.Duration)
	optCost := callCost(ostats.Calls, r.estDur)
	ans := &Answer{
		Text:           s.FormatValue(res.Answer),
		Value:          res.Answer,
		Plan:           r.plan,
		Lang:           r.lang,
		Unresolved:     pstats.Unresolved,
		PlanningDur:    pstats.Duration,
		EstimationDur:  r.estDur,
		ExecDur:        res.Makespan,
		TotalDur:       pstats.Duration + r.estDur + res.Makespan,
		SerialExecDur:  res.Serial,
		LLMCalls:       len(pstats.Calls) + len(ostats.Calls) + res.LLMCalls,
		CachedLLMCalls: planCost.CachedCalls + optCost.CachedCalls + res.CachedLLMCalls,
		PlanCacheHit:   ostats.PlanCacheHit,
		Fallback:       pstats.Fallback,
		Adjusted:       res.Adjusted,
		SkippedDocs:    res.SkippedDocs,
		Partial:        res.SkippedDocs > 0,
		ViewHits:       res.ViewHits,
		Replans:        res.Replans,
		SlotBusy:       res.SlotBusy,
		SlotGrantWait:  res.GrantWait,
		SoloExecDur:    res.SoloMakespan,
		SchedStart:     res.PoolStart,
		Contended:      res.Contended,
		BatchedCalls:   res.BatchedCalls,
		RequestID:      r.rid,
		Trace:          r.span,
	}
	for _, nr := range res.Nodes {
		busy := nr.PreDur
		for _, c := range nr.Calls {
			busy += c.Dur
		}
		ans.Nodes = append(ans.Nodes, NodeStat{
			NodeID:   nr.NodeID,
			Op:       nr.Op,
			Physical: nr.Phys,
			InCard:   nr.InCard,
			OutCard:  nr.Value.Len(),
			LLMCalls: len(nr.Calls),
			Busy:     busy,
		})
	}
	r.span.SetVDur(ans.TotalDur)
	ans.Profile = costProfile(r, ans, planCost, optCost)
	if s.Config.StrictChecks {
		if err := s.checkAnswer(r, ans); err != nil {
			return nil, err
		}
	}
	return ans, nil
}

// costProfile is the per-operator cost attribution: phase classes plus
// one class per operator identity (Op/Phys). Attribute splits the
// execution makespan across operator classes proportionally to busy
// time, so the class shares sum exactly to TotalDur.
func costProfile(r *run, ans *Answer, planCost, optCost obs.OpCost) *obs.CostProfile {
	res := r.res
	prof := obs.NewCostProfile(r.rid)
	prof.Add(obs.ClassPlanning, planCost)
	prof.Add(obs.ClassOptimize, optCost)
	var busyTotal time.Duration
	for i, nr := range res.Nodes {
		c := callCost(nr.Calls, ans.Nodes[i].Busy)
		c.SkippedDocs = nr.SkippedDocs
		c.GrantWait = nr.GrantWait
		prof.Add(nr.Op+"/"+nr.Phys, c)
		busyTotal += ans.Nodes[i].Busy
	}
	if res.Replans > 0 {
		prof.Add(obs.ClassReplan, obs.OpCost{Executions: res.Replans, Busy: res.ReplanDur})
		busyTotal += res.ReplanDur
	}
	prof.Attribute(ans.PlanningDur, ans.EstimationDur, ans.ExecDur)
	// Stamp each operator span with its share of the query total (the
	// per-node view of the same attribution).
	if busyTotal > 0 && ans.TotalDur > 0 {
		for i := range res.Nodes {
			frac := float64(ans.Nodes[i].Busy) / float64(busyTotal) *
				float64(ans.ExecDur) / float64(ans.TotalDur)
			res.Nodes[i].Span.SetAttr("vtime_share", fmt.Sprintf("%.1f%%", 100*frac))
		}
	}
	return prof
}

// checkAnswer runs the answer-level invariants: the accounting facts,
// the profile's vtime attribution, and the freshness of every view row
// the query was served.
func (s *System) checkAnswer(r *run, ans *Answer) error {
	scanned := 0
	for _, ns := range ans.Nodes {
		scanned += ns.InCard
	}
	facts := check.AnswerFacts{
		Docs:           s.Store.Len(),
		Slots:          s.clusterSlots(),
		MaxReplans:     s.Executor.MaxReplans,
		PlanNodes:      len(ans.Plan.Nodes),
		NodeStats:      len(ans.Nodes),
		ScannedDocs:    scanned,
		SkippedDocs:    ans.SkippedDocs,
		Replans:        ans.Replans,
		LLMCalls:       ans.LLMCalls,
		CachedLLMCalls: ans.CachedLLMCalls,
		PlanningDur:    ans.PlanningDur,
		EstimationDur:  ans.EstimationDur,
		ExecDur:        ans.ExecDur,
		TotalDur:       ans.TotalDur,
		SoloExecDur:    ans.SoloExecDur,
		SlotBusy:       ans.SlotBusy,
		GrantWait:      ans.SlotGrantWait,
	}
	if err := check.Fail(fmt.Sprintf("unify: answer for %q", r.q), check.Answer(facts), r.span); err != nil {
		return err
	}
	if err := check.Fail(fmt.Sprintf("unify: cost profile for %q", r.q),
		check.ProfileAttribution(ans.Profile, ans.TotalDur), r.span); err != nil {
		return err
	}
	if s.Views == nil {
		return nil
	}
	// Replay every view row this query served against the live content
	// hashes: a stale row reaching an answer is a views.column_fresh
	// violation.
	stale := s.Views.AuditServed(s.Store.ContentHash)
	return check.Fail(fmt.Sprintf("unify: view rows served for %q", r.q), check.ViewsFresh(stale), r.span)
}

// account is the tail every query passes through once its root span has
// ended: a failure is counted and its trace retained; a completed query
// is charged to the registry, the profiler, the trace store and the
// slow-query log, in that order.
func (s *System) account(r *run, ans *Answer, err error) (*Answer, error) {
	if err != nil {
		s.Metrics.RecordQueryFailed()
		s.retainTrace(r, "error", 0, 0, 0)
		return nil, err
	}
	// Registry first, profiler second: the profile.global_bound
	// invariant relies on profile counters never leading the globals.
	s.recordQueryMetrics(r, ans)
	s.Profiler.Record(ans.Profile)
	s.retainTrace(r, "ok", ans.TotalDur, ans.LLMCalls, len(ans.Nodes))
	s.observeSlow(r.q, ans)
	if s.Config.StrictChecks {
		if err := s.checkProfileBound(r.q, r.span); err != nil {
			return nil, err
		}
	}
	return ans, nil
}

// retainTrace stores a completed query's span tree in the trace store
// (no-op when retention is disabled).
func (s *System) retainTrace(r *run, status string, vtime time.Duration, llmCalls, operators int) {
	if s.Traces == nil || r.span == nil {
		return
	}
	s.Traces.Put(r.rid, r.ticket.Seq(), status, r.q, vtime, llmCalls, operators, r.span)
}

// observeSlow feeds a completed query to the slow-query log.
func (s *System) observeSlow(q string, ans *Answer) {
	s.SlowLog.Observe(obs.SlowRecord{
		RequestID:   ans.RequestID,
		Query:       q,
		Status:      "ok",
		VTime:       ans.TotalDur,
		GrantWait:   ans.SlotGrantWait,
		LLMCalls:    ans.LLMCalls,
		CachedCalls: ans.CachedLLMCalls,
		Operators:   len(ans.Nodes),
		Contended:   ans.Contended,
	})
}

// checkProfileBound validates the profile.global_bound invariant:
// cumulative profile counters may never exceed the matching process-
// global registry counters. The profile side is read first — profiles
// are recorded after the globals, so under concurrent queries the
// profile may lag the registry but never lead it.
func (s *System) checkProfileBound(q string, qspan *obs.Span) error {
	tot := s.Profiler.Totals()
	queries := s.Profiler.Queries()
	vtotal := s.Profiler.TotalVTime()
	reg := s.Metrics.Reg
	pairs := []check.CounterPair{
		{Name: "llm_calls", Profile: float64(tot.LLMCalls + tot.CachedCalls), Global: reg.Total("unify_llm_calls_total")},
		{Name: "cached_calls", Profile: float64(tot.CachedCalls), Global: reg.Total("unify_llm_cached_calls_total")},
		{Name: "in_tokens", Profile: float64(tot.InTokens), Global: reg.Total("unify_llm_in_tokens_total")},
		{Name: "out_tokens", Profile: float64(tot.OutTokens), Global: reg.Total("unify_llm_out_tokens_total")},
		{Name: "skipped_docs", Profile: float64(tot.SkippedDocs), Global: reg.Total("unify_exec_skipped_docs_total")},
		{Name: "retries", Profile: float64(tot.Retries), Global: reg.Total("unify_llm_retries_total")},
		{Name: "queries", Profile: float64(queries), Global: reg.Value("unify_queries_total", "ok")},
		{Name: "vtime_seconds", Profile: vtotal.Seconds(), Global: reg.HistogramSum("unify_query_vtime_seconds")},
	}
	return check.Fail(fmt.Sprintf("unify: cumulative profile after %q", q),
		check.ProfileGlobalBound(pairs), qspan)
}

// callCost folds one phase's or node's call log into an OpCost. The
// convention matches the profiler: LLMCalls counts model invocations
// that did real work, CachedCalls counts invocations served by the
// shared response cache.
func callCost(calls []llm.Call, busy time.Duration) obs.OpCost {
	c := obs.OpCost{Executions: 1, Busy: busy}
	for _, call := range calls {
		if call.Cached {
			c.CachedCalls++
		} else {
			c.LLMCalls++
		}
		c.InTokens += call.InTokens
		c.OutTokens += call.OutTokens
		c.Retries += call.Retries
	}
	return c
}

// recordQueryMetrics charges a completed query to the instruments only a
// query can feed; what the pool, the cache, the views, the models and the
// profiler own is read from them when the registry is (registerOwned).
func (s *System) recordQueryMetrics(r *run, ans *Answer) {
	m := s.Metrics
	m.RecordQueryOK(ans.RequestID, ans.TotalDur, ans.PlanningDur+ans.EstimationDur, ans.ExecDur)
	// Planner calls, optimizer calls, then node calls in plan order.
	recordCalls(m, r.pstats.Calls)
	recordCalls(m, r.ostats.Calls)
	for _, nr := range r.res.Nodes {
		recordCalls(m, nr.Calls)
	}
	if ans.Fallback {
		m.PlanFallbacks.Inc()
	}
	if ans.Adjusted {
		m.PlanAdjustments.Inc()
	}
	if ans.PlanCacheHit {
		m.PlanCacheHits.Inc()
	}
	m.RecordDegradation(ans.Replans, ans.SkippedDocs)
	m.RecordSlots(ans.SlotBusy, ans.ExecDur, s.clusterSlots())
	m.RecordGrantWait(ans.RequestID, ans.SlotGrantWait)
}

// recordCalls charges one call log to the per-task call counters.
func recordCalls(m *obs.Metrics, calls []llm.Call) {
	for _, c := range calls {
		m.RecordCall(c.Task, c.InTokens, c.OutTokens)
		if c.Cached {
			m.LLMCachedCalls.IncL(callTask(c))
		}
	}
}

// clusterSlots is the cluster-wide slot count: the per-machine Slots
// times the cluster width (Config.defaults keeps Machines >= 1, so it is
// Slots itself on single-machine systems).
func (s *System) clusterSlots() int {
	return s.Config.Slots * s.Config.Machines
}

// callTask normalizes a call's task label for metrics.
func callTask(c llm.Call) string {
	if c.Task == "" {
		return "unknown"
	}
	return c.Task
}

// CacheStats snapshots the shared cache's per-layer counters (empty when
// the cache is disabled).
func (s *System) CacheStats() map[string]cache.Stats {
	return s.Cache.LayerStats()
}

// FormatValue renders a value as an answer string, resolving document ids
// to titles.
func (s *System) FormatValue(v values.Value) string {
	if v.Kind == values.Docs {
		titles := make([]string, 0, len(v.DocIDs))
		for _, id := range v.DocIDs {
			if d, ok := s.Store.Doc(id); ok {
				titles = append(titles, d.Title)
			}
		}
		return strings.Join(titles, ", ")
	}
	return v.String()
}

// fallbackPlan is the single-node RAG fallback used when an optimized
// plan cannot be executed.
func fallbackPlan(q string) *core.Plan {
	return &core.Plan{
		Query: q,
		Nodes: []*core.Node{{
			ID:     0,
			Op:     "Generate",
			LR:     "answer [Condition] from context",
			Args:   map[string]string{"Condition": q},
			Inputs: []string{"dataset"},
			OutVar: "v1",
			Desc:   "generated answer",
			Phys:   "Generate",
		}},
	}
}
