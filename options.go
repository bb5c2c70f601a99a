package unify

import (
	"fmt"
	"time"

	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/optimizer"
)

// Option configures system construction for New.
type Option func(*openOptions)

// openOptions collects construction state: the Config plus the inputs
// that are not configuration — a ready dataset and model clients.
type openOptions struct {
	cfg     Config
	ds      *corpus.Dataset
	planner llm.Client
	worker  llm.Client
}

// WithConfig seeds construction from a full Config; later options
// override individual fields. Every setting is reachable this way; the
// With* options below cover the ones callers reach for.
func WithConfig(cfg Config) Option {
	return func(o *openOptions) { o.cfg = cfg }
}

// WithDataset selects a built-in synthetic corpus: "sports", "ai", "law",
// "wiki".
func WithDataset(name string) Option {
	return func(o *openOptions) { o.cfg.Dataset = name }
}

// WithSize overrides the corpus document count (0 = the paper's size).
func WithSize(n int) Option {
	return func(o *openOptions) { o.cfg.Size = n }
}

// WithCorpus supplies an already-generated dataset, bypassing corpus
// generation.
func WithCorpus(ds *corpus.Dataset) Option {
	return func(o *openOptions) { o.ds = ds }
}

// WithClients supplies caller-provided model clients (the extension point
// for real LLM backends).
func WithClients(planner, worker llm.Client) Option {
	return func(o *openOptions) { o.planner, o.worker = planner, worker }
}

// WithCacheBytes bounds the shared semantic cache; negative disables it.
func WithCacheBytes(n int64) Option {
	return func(o *openOptions) { o.cfg.CacheBytes = n }
}

// WithMachines sets the simulated cluster width: M machines of Slots LLM
// slots each on one shared virtual clock, with the corpus partitioned
// into M shards (0 or 1 = the paper's single machine).
func WithMachines(n int) Option {
	return func(o *openOptions) { o.cfg.Machines = n }
}

// WithBatching enables cross-query continuous batching of operator LLM
// calls: compatible per-document calls from different queries co-pending
// on the shared pool coalesce into one batched invocation occupying a
// single slot. Answers are byte-identical with batching on or off; only
// schedules and costs change. Off by default.
func WithBatching() Option {
	return func(o *openOptions) { o.cfg.Batching = true }
}

// WithViews enables materialized semantic views: per-document operator
// results persist as content-hash-keyed columns and repeated semantic
// work is served from the view instead of the model. Answers are
// byte-identical with views on or off; view rows survive ingestion for
// unchanged documents. Off by default.
func WithViews() Option {
	return func(o *openOptions) { o.cfg.Views = true }
}

// WithMode selects the optimizer strategy for the whole system; see
// WithModeOverride for a per-query override.
func WithMode(m optimizer.Mode) Option {
	return func(o *openOptions) { o.cfg.Mode = m }
}

// WithTrainSCE learns the importance function at open time (the paper's
// offline phase).
func WithTrainSCE() Option {
	return func(o *openOptions) { o.cfg.TrainSCE = true }
}

// WithSim overrides the simulated model configuration (noise, speed).
func WithSim(cfg llm.SimConfig) Option {
	return func(o *openOptions) { c := cfg; o.cfg.Sim = &c }
}

// WithStrictChecks turns on the internal/check invariant checker: every
// plan, pool schedule, and answer is validated and violations fail the
// query with diagnostics. On in all tests; off by default in production.
func WithStrictChecks() Option {
	return func(o *openOptions) { o.cfg.StrictChecks = true }
}

// WithTraceRetention bounds the query-history trace store: at most
// maxTraces retained traces of at most maxSpans spans each (0 selects
// the defaults). A negative maxTraces disables trace retention.
func WithTraceRetention(maxTraces, maxSpans int) Option {
	return func(o *openOptions) {
		o.cfg.MaxTraces = maxTraces
		o.cfg.MaxTraceSpans = maxSpans
	}
}

// WithSlowQueryVTime logs every query whose total virtual time meets the
// threshold as one structured slow-query record (<= 0 disables the log).
func WithSlowQueryVTime(d time.Duration) Option {
	return func(o *openOptions) { o.cfg.SlowQueryVTime = d }
}

// New builds a system from functional options:
//
//	sys, err := unify.New(unify.WithDataset("sports"), unify.WithSize(500))
//
// With no options it opens the paper's default configuration. New is the
// only constructor; a Config field without an option of its own is set
// through WithConfig.
func New(opts ...Option) (*System, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	o.cfg.defaults()
	ds := o.ds
	if ds == nil {
		size := o.cfg.Size
		if size == 0 {
			size = corpus.DefaultSize(o.cfg.Dataset)
		}
		var err error
		ds, err = corpus.GenerateN(o.cfg.Dataset, size)
		if err != nil {
			return nil, err
		}
	}
	planner, worker := o.planner, o.worker
	if planner == nil || worker == nil {
		simCfg := llm.DefaultSimConfig()
		if o.cfg.Sim != nil {
			simCfg = *o.cfg.Sim
		}
		if planner == nil {
			plannerCfg := simCfg
			plannerCfg.Profile = llm.PlannerProfile()
			planner = llm.NewSim(plannerCfg)
		}
		if worker == nil {
			workerCfg := simCfg
			workerCfg.Profile = llm.WorkerProfile()
			worker = llm.NewSim(workerCfg)
		}
	}
	return open(ds, o.cfg, planner, worker)
}

// Language selects the query frontend: the natural-language route
// through the LLM planner, or the USQL typed dialect compiled directly
// to the logical DAG without any planner calls.
type Language int

// Query languages.
const (
	// LangAuto detects the language per query: statements whose first
	// token is SELECT parse as USQL, everything else plans as natural
	// language.
	LangAuto Language = iota
	// LangNL forces the natural-language planner route.
	LangNL
	// LangUSQL forces the USQL parser route; queries that do not parse
	// fail instead of falling back to the planner.
	LangUSQL
)

// String renders the wire form used by the server's lang field.
func (l Language) String() string {
	switch l {
	case LangNL:
		return "nl"
	case LangUSQL:
		return "usql"
	default:
		return "auto"
	}
}

// ParseLanguage parses the wire form of a Language ("" means auto).
func ParseLanguage(s string) (Language, error) {
	switch s {
	case "", "auto":
		return LangAuto, nil
	case "nl":
		return LangNL, nil
	case "usql":
		return LangUSQL, nil
	default:
		return LangAuto, fmt.Errorf("unknown query language %q (use auto, nl, or usql)", s)
	}
}

// QueryOptions carries per-query execution options; construct it through
// QueryOption values passed to System.Query or System.Plan.
type QueryOptions struct {
	// Timeout bounds the query end to end (queue wait included); zero
	// means no per-query deadline.
	Timeout time.Duration
	// Priority breaks slot-grant ties on the shared pool: queries with
	// higher priority are granted slots first at equal ready times.
	Priority int
	// Analyze captures the query's full span tree in Answer.Trace
	// (EXPLAIN ANALYZE) even when the context carries no tracer.
	Analyze bool
	// Mode, when non-nil, overrides the optimizer strategy for this
	// query only.
	Mode *optimizer.Mode
	// Language selects the query frontend (default LangAuto).
	Language Language
}

// QueryOption configures one query.
type QueryOption func(*QueryOptions)

// WithTimeout bounds the query end to end.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *QueryOptions) { o.Timeout = d }
}

// WithPriority favors this query in slot-grant tie-breaks (higher wins).
func WithPriority(p int) QueryOption {
	return func(o *QueryOptions) { o.Priority = p }
}

// WithAnalyze captures the query's span tree in Answer.Trace.
func WithAnalyze() QueryOption {
	return func(o *QueryOptions) { o.Analyze = true }
}

// WithModeOverride overrides the optimizer strategy for this query only.
func WithModeOverride(m optimizer.Mode) QueryOption {
	return func(o *QueryOptions) { o.Mode = &m }
}

// WithLanguage pins the query frontend instead of auto-detecting it.
func WithLanguage(l Language) QueryOption {
	return func(o *QueryOptions) { o.Language = l }
}

func buildQueryOptions(opts []QueryOption) QueryOptions {
	var o QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
