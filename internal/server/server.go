// Package server exposes a Unify system over HTTP: a small JSON API for
// submitting analytics queries in natural language or USQL (the "lang"
// request field selects the dialect; the default auto-detects), inspecting
// plans (EXPLAIN via /v1/plan or "plan_only"), profiling them (EXPLAIN
// ANALYZE via ?analyze=1), browsing the operator registry, and scraping
// process metrics — the shape a deployed instance of the paper's system
// would take.
//
// Serving model: requests pass a bounded admission queue (at most
// MaxConcurrent executing, MaxQueue waiting; the rest get HTTP 429 with
// Retry-After) and then contend for the system's shared slot pool.
//
// # Error envelope (version 1)
//
// All error responses share one envelope, versioned with the API path
// prefix (/v1) and reported as api_version by /v1/health. Version 1 is
// frozen: the three fields below never change meaning, and new fields
// may only be added, never removed or repurposed.
//
//	{"error": {"code": "...", "message": "...", "request_id": "..."}}
//
// "code" is one of: bad_request (malformed body, unknown lang, USQL
// syntax errors), not_found, method_not_allowed, deadline_exceeded,
// queue_full, internal. "message" is human-readable and NOT stable;
// branch on "code". "request_id" matches the id echoed on success
// responses and keyed into /v1/traces/{id}.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unify"
	"unify/internal/core"
	"unify/internal/docstore"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/usql"
)

// Server wraps a System with HTTP handlers.
type Server struct {
	Sys *unify.System
	// Timeout bounds each query's processing time (queue wait included);
	// requests may shorten it per call via timeout_ms.
	Timeout time.Duration

	admission *Admission
	reqID     atomic.Int64
	mux       *http.ServeMux
	started   time.Time

	// corpusMu serializes corpus mutations against query execution:
	// queries hold it shared for the duration of their run, /v1/ingest
	// holds it exclusively, so a mutation never races an in-flight scan.
	corpusMu sync.RWMutex
}

// New returns a server over the given system with default admission
// limits (DefaultMaxConcurrent running, DefaultMaxQueue waiting).
func New(sys *unify.System) *Server {
	s := &Server{
		Sys:       sys,
		Timeout:   5 * time.Minute,
		admission: NewAdmission(0, 0),
		mux:       http.NewServeMux(),
		started:   time.Now(),
	}
	sys.Metrics.AttachServe(func() (queued, inflight int) {
		return s.admission.Queued(), s.admission.Inflight()
	})
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/operators", s.handleOperators)
	s.mux.HandleFunc("/v1/health", s.handleHealth)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/traces", s.handleTraces)
	s.mux.HandleFunc("/v1/traces/", s.handleTrace)
	s.mux.HandleFunc("/v1/profile", s.handleProfile)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// Catch-all: unknown paths previously fell through to the mux's
	// plain-text 404, bypassing the error envelope.
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// SetLimits reconfigures admission control: at most maxConcurrent
// queries execute at once and at most maxQueue wait (0 disables
// queueing entirely). Call before serving; maxConcurrent < 1 and
// maxQueue < 0 select the defaults.
func (s *Server) SetLimits(maxConcurrent, maxQueue int) {
	s.admission = NewAdmission(maxConcurrent, maxQueue)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Trace-detail requests collapse to one series: the id segment
	// would otherwise mint a label per request.
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/traces/") {
		path = "/v1/traces/{id}"
	}
	s.Sys.Metrics.HTTPRequests.IncL(path)
	s.mux.ServeHTTP(w, r)
}

// QueryRequest is the body of POST /v1/query and /v1/plan.
type QueryRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds this query end to end, queue wait included
	// (capped by the server's Timeout; 0 inherits it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Analyze requests EXPLAIN ANALYZE: the span tree rides back on the
	// response (equivalent to ?analyze=1).
	Analyze bool `json:"analyze,omitempty"`
	// Priority favors this query in slot-grant tie-breaks on the shared
	// pool (higher wins).
	Priority int `json:"priority,omitempty"`
	// Lang selects the query dialect: "nl" (natural language, LLM-planned),
	// "usql" (typed dialect, parsed and compiled deterministically), or
	// ""/"auto" (detect: statements starting with SELECT are USQL).
	Lang string `json:"lang,omitempty"`
	// PlanOnly compiles and optimizes the query and returns the logical
	// plan without executing it (a body-level EXPLAIN; /v1/plan is the
	// endpoint-level equivalent).
	PlanOnly bool `json:"plan_only,omitempty"`
}

// PlanNode is the JSON form of one plan operator.
type PlanNode struct {
	ID       int               `json:"id"`
	Op       string            `json:"op"`
	Physical string            `json:"physical,omitempty"`
	Args     map[string]string `json:"args,omitempty"`
	Inputs   []string          `json:"inputs,omitempty"`
	Deps     []int             `json:"deps,omitempty"`
	OutVar   string            `json:"out_var"`
	Desc     string            `json:"desc,omitempty"`
}

// QueryResponse is the body returned by POST /v1/query. Trace and
// TraceText are populated only for EXPLAIN ANALYZE requests
// (POST /v1/query?analyze=1).
type QueryResponse struct {
	RequestID     string     `json:"request_id"`
	Answer        string     `json:"answer"`
	Plan          []PlanNode `json:"plan"`
	PlanningSecs  float64    `json:"planning_secs"`
	EstimationSec float64    `json:"estimation_secs"`
	ExecSecs      float64    `json:"exec_secs"`
	TotalSecs     float64    `json:"total_secs"`
	LLMCalls      int        `json:"llm_calls"`
	CachedCalls   int        `json:"cached_llm_calls"`
	PlanCacheHit  bool       `json:"plan_cache_hit"`
	Lang          string     `json:"lang"`
	Fallback      bool       `json:"fallback"`
	Adjusted      bool       `json:"adjusted"`
	SkippedDocs   int        `json:"skipped_docs,omitempty"`
	Partial       bool       `json:"partial,omitempty"`
	Replans       int        `json:"replans,omitempty"`
	ViewHits      int        `json:"view_hits,omitempty"`
	// Serving-layer accounting. Clock domains are deliberately distinct:
	// QueueWaitSecs is MONOTONIC WALL time spent in the server's
	// admission queue (the only wall-clock figure on this response);
	// GrantWaitSecs and SoloExecSecs — like every *_secs field above —
	// are VIRTUAL (simulated) time on the shared slot pool.
	QueueWaitSecs float64       `json:"queue_wait_secs"`
	GrantWaitSecs float64       `json:"grant_wait_secs"`
	SoloExecSecs  float64       `json:"solo_exec_secs"`
	Contended     bool          `json:"contended,omitempty"`
	Trace         *obs.SpanJSON `json:"trace,omitempty"`
	TraceText     string        `json:"trace_text,omitempty"`
	// Profile is the query's per-operator-class cost attribution
	// (EXPLAIN ANALYZE only; all durations virtual-clock).
	Profile map[string]obs.OpCostJSON `json:"profile,omitempty"`
}

// PlanResponse is the body returned by POST /v1/plan and by
// POST /v1/query with "plan_only": true.
type PlanResponse struct {
	RequestID    string     `json:"request_id"`
	Lang         string     `json:"lang"`
	Plan         []PlanNode `json:"plan"`
	PlanningSecs float64    `json:"planning_secs"`
}

// ErrorBody is the uniform error payload carried by every non-2xx
// response from the /v1 API.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorResponse is the error envelope: {"error":{...}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// IngestDoc is one document in an ingestion request.
type IngestDoc struct {
	ID    int    `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// IngestRequest is the POST /v1/ingest body: documents to add (ids must
// be new) and documents to update in place (ids must exist). Applied
// atomically — validation failures leave the corpus untouched.
type IngestRequest struct {
	Add    []IngestDoc `json:"add,omitempty"`
	Update []IngestDoc `json:"update,omitempty"`
}

// IngestResponse reports one applied corpus mutation.
type IngestResponse struct {
	RequestID       string `json:"request_id"`
	Added           int    `json:"added"`
	Updated         int    `json:"updated"`
	Generation      uint64 `json:"generation"`
	InvalidatedRows int    `json:"invalidated_rows"`
	Docs            int    `json:"docs"`
}

// OperatorInfo describes one registry entry for GET /v1/operators.
type OperatorInfo struct {
	Name                   string   `json:"name"`
	LogicalRepresentations []string `json:"logical_representations"`
	PreProgrammed          []string `json:"pre_programmed"`
	LLMBased               []string `json:"llm_based"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errCode maps an HTTP status to the envelope's stable error code.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestTimeout:
		return "deadline_exceeded"
	case http.StatusTooManyRequests:
		return "queue_full"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, requestID, format string, args ...interface{}) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{
		Code:      errCode(status),
		Message:   fmt.Sprintf(format, args...),
		RequestID: requestID,
	}})
}

// nextRequestID mints the request identifier echoed on every response.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("q-%d", s.reqID.Add(1))
}

func (s *Server) readQuery(w http.ResponseWriter, r *http.Request, rid string) (QueryRequest, unify.Language, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, rid, "POST required")
		return QueryRequest{}, unify.LangAuto, false
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, rid, "malformed body: %v", err)
		return QueryRequest{}, unify.LangAuto, false
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, rid, "empty query")
		return QueryRequest{}, unify.LangAuto, false
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, rid, "negative timeout_ms")
		return QueryRequest{}, unify.LangAuto, false
	}
	lang, err := unify.ParseLanguage(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, rid, "%v", err)
		return QueryRequest{}, unify.LangAuto, false
	}
	return req, lang, true
}

// resolved labels a response with the dialect the query actually ran as.
func resolved(lang unify.Language, query string) unify.Language {
	if lang == unify.LangAuto {
		return unify.DetectLanguage(query)
	}
	return lang
}

// queryStatus maps a failed Query/Plan call to an HTTP status: USQL
// syntax and compile errors are the client's fault (400); everything
// else is internal.
func queryStatus(err error) int {
	var perr *usql.Error
	if errors.As(err, &perr) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// requestTimeout resolves a request's effective deadline: the server
// bound, shortened by a positive timeout_ms. The comparison is made in
// milliseconds: a timeout_ms too large for a Duration is capped by the
// bound like any other, where converting first would wrap it negative.
func (s *Server) requestTimeout(req QueryRequest) time.Duration {
	d := s.timeout()
	if ms := int64(req.TimeoutMS); ms > 0 && ms <= d.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	return d
}

func planNodes(p *core.Plan) []PlanNode {
	out := make([]PlanNode, 0, len(p.Nodes))
	for _, n := range p.Nodes {
		out = append(out, PlanNode{
			ID:       n.ID,
			Op:       n.Op,
			Physical: n.Phys,
			Args:     n.Args,
			Inputs:   n.Inputs,
			Deps:     n.Deps,
			OutVar:   n.OutVar,
			Desc:     n.Desc,
		})
	}
	return out
}

// analyzeRequested reports whether the request asks for EXPLAIN ANALYZE.
func analyzeRequested(r *http.Request) bool {
	switch r.URL.Query().Get("analyze") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rid := s.nextRequestID()
	req, lang, ok := s.readQuery(w, r, rid)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req))
	defer cancel()
	if req.PlanOnly {
		// Body-level EXPLAIN: compile and optimize under the requested
		// dialect, return the logical plan, execute nothing. Skips
		// admission like /v1/plan does — there is no slot-pool work.
		s.servePlan(ctx, w, rid, req, lang)
		return
	}
	// The request id rides down into the system so the retained trace is
	// keyed by the same id the response (and error envelope) carries.
	ctx = obs.WithRequestID(ctx, rid)
	analyze := analyzeRequested(r) || req.Analyze
	if analyze {
		// EXPLAIN ANALYZE: run the query with tracing enabled and
		// return the rendered span tree alongside the answer.
		ctx = obs.WithTracer(ctx, obs.NewTracer())
	}

	// Admission control: bounded queue ahead of the shared slot pool.
	// The deadline keeps ticking while queued; expiry or a full queue
	// rejects the request before any model work starts.
	m := s.Sys.Metrics
	release, queueWait, err := s.admission.Acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			m.RecordRejection("queue_full")
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, rid,
				"admission queue full (%d running, %d queued)",
				s.admission.MaxConcurrent(), s.admission.MaxQueue())
			return
		}
		m.RecordRejection("deadline")
		writeError(w, http.StatusRequestTimeout, rid,
			"deadline expired after %.3fs in admission queue", queueWait.Seconds())
		return
	}
	defer release()
	m.RecordAdmission(queueWait)

	s.corpusMu.RLock()
	ans, err := s.Sys.Query(ctx, req.Query, unify.WithPriority(req.Priority), unify.WithLanguage(lang))
	s.corpusMu.RUnlock()
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusRequestTimeout, rid, "query deadline exceeded: %v", err)
			return
		}
		writeError(w, queryStatus(err), rid, "query failed: %v", err)
		return
	}
	// queueWait is wall time and stays in the serving layer
	// (QueueWaitSecs below): Answer fields are all virtual-clock, and
	// writing wall time into one mixed the two domains.
	resp := QueryResponse{
		RequestID:     rid,
		Lang:          ans.Lang.String(),
		Answer:        ans.Text,
		Plan:          planNodes(ans.Plan),
		PlanningSecs:  ans.PlanningDur.Seconds(),
		EstimationSec: ans.EstimationDur.Seconds(),
		ExecSecs:      ans.ExecDur.Seconds(),
		TotalSecs:     ans.TotalDur.Seconds(),
		LLMCalls:      ans.LLMCalls,
		CachedCalls:   ans.CachedLLMCalls,
		PlanCacheHit:  ans.PlanCacheHit,
		Fallback:      ans.Fallback,
		Adjusted:      ans.Adjusted,
		SkippedDocs:   ans.SkippedDocs,
		Partial:       ans.Partial,
		Replans:       ans.Replans,
		ViewHits:      ans.ViewHits,
		QueueWaitSecs: queueWait.Seconds(),
		GrantWaitSecs: ans.SlotGrantWait.Seconds(),
		SoloExecSecs:  ans.SoloExecDur.Seconds(),
		Contended:     ans.Contended,
	}
	if analyze {
		// The span tree is always captured for the trace store; it only
		// rides back on the response when EXPLAIN ANALYZE asked for it.
		resp.Trace = ans.Trace.JSON()
		resp.TraceText = obs.Render(ans.Trace)
		resp.Profile = ans.Profile.JSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIngest applies a corpus mutation: add new documents and update
// existing ones. The mutation holds corpusMu exclusively, so it never
// interleaves with a running query; queries admitted after it observe
// the new corpus generation.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	rid := s.nextRequestID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, rid, "POST required")
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, rid, "malformed body: %v", err)
		return
	}
	if len(req.Add) == 0 && len(req.Update) == 0 {
		writeError(w, http.StatusBadRequest, rid, "empty ingest: no add or update documents")
		return
	}
	toDocs := func(in []IngestDoc) []docstore.Document {
		out := make([]docstore.Document, len(in))
		for i, d := range in {
			out[i] = docstore.Document{ID: d.ID, Title: d.Title, Text: d.Text}
		}
		return out
	}
	s.corpusMu.Lock()
	res, err := s.Sys.Ingest(toDocs(req.Add), toDocs(req.Update))
	s.corpusMu.Unlock()
	if err != nil {
		// Every Ingest failure is input validation (duplicate add id,
		// unknown update id); the corpus is untouched.
		writeError(w, http.StatusBadRequest, rid, "ingest rejected: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		RequestID:       rid,
		Added:           res.Added,
		Updated:         res.Updated,
		Generation:      res.Generation,
		InvalidatedRows: res.InvalidatedRows,
		Docs:            res.Docs,
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	rid := s.nextRequestID()
	req, lang, ok := s.readQuery(w, r, rid)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req))
	defer cancel()
	s.servePlan(ctx, w, rid, req, lang)
}

// servePlan backs both /v1/plan and plan_only /v1/query requests.
func (s *Server) servePlan(ctx context.Context, w http.ResponseWriter, rid string, req QueryRequest, lang unify.Language) {
	plan, dur, err := s.Sys.Plan(ctx, req.Query, unify.WithLanguage(lang))
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusRequestTimeout, rid, "planning deadline exceeded: %v", err)
			return
		}
		writeError(w, queryStatus(err), rid, "planning failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResponse{
		RequestID:    rid,
		Lang:         resolved(lang, req.Query).String(),
		Plan:         planNodes(plan),
		PlanningSecs: dur.Seconds(),
	})
}

// handleNotFound routes unknown paths through the uniform envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, s.nextRequestID(), "no such endpoint: %s", r.URL.Path)
}

func (s *Server) handleOperators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	var out []OperatorInfo
	for _, spec := range ops.All() {
		info := OperatorInfo{Name: spec.Name, LogicalRepresentations: spec.LRs}
		for _, p := range spec.Phys {
			if p.LLMBased {
				info.LLMBased = append(info.LLMBased, p.Name)
			} else {
				info.PreProgrammed = append(info.PreProgrammed, p.Name)
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// TraceDetail is the body of GET /v1/traces/{id}: the stored trace
// summary plus its full span tree. Unlike the list endpoint, the span
// tree carries wall-clock timings (wall_ms) alongside virtual time.
type TraceDetail struct {
	ID        string        `json:"id"`
	Seq       int64         `json:"seq"`
	Status    string        `json:"status"`
	Query     string        `json:"query"`
	VTimeSecs float64       `json:"vtime_secs"`
	LLMCalls  int           `json:"llm_calls"`
	Operators int           `json:"operators"`
	Spans     int           `json:"spans"`
	Truncated bool          `json:"truncated,omitempty"`
	Root      *obs.SpanJSON `json:"root"`
}

// handleTraces lists retained query traces newest-first. Filters:
// ?status=ok|error, ?min_vtime_secs=F, ?limit=N. The payload carries
// only virtual-clock fields, so identical runs produce identical bytes.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	var f obs.TraceFilter
	q := r.URL.Query()
	switch st := q.Get("status"); st {
	case "", "ok", "error":
		f.Status = st
	default:
		writeError(w, http.StatusBadRequest, s.nextRequestID(), "status must be ok or error")
		return
	}
	if v := q.Get("min_vtime_secs"); v != "" {
		// ParseFloat accepts NaN, Inf and values past what a Duration
		// holds; converting those is undefined and used to select every
		// trace. The negated comparison rejects NaN.
		secs, err := strconv.ParseFloat(v, 64)
		ns := secs * float64(time.Second)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			writeError(w, http.StatusBadRequest, s.nextRequestID(), "malformed min_vtime_secs: %q", v)
			return
		}
		f.MinVTime = time.Duration(ns)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, s.nextRequestID(), "malformed limit: %q", v)
			return
		}
		f.Limit = n
	}
	store := s.Sys.Traces
	traces := store.List(f)
	if traces == nil {
		traces = []obs.TraceSummary{}
	}
	maxTraces, maxSpans := store.Bounds()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"traces": traces,
		"count":  len(traces),
		"retention": map[string]interface{}{
			"enabled":             store != nil,
			"max_traces":          maxTraces,
			"max_spans_per_trace": maxSpans,
			"stored":              store.Len(),
			"evicted":             store.Evicted(),
		},
	})
}

// handleTrace serves one stored trace's full span tree by request id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, s.nextRequestID(), "no such endpoint: %s", r.URL.Path)
		return
	}
	t, ok := s.Sys.Traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, s.nextRequestID(), "no trace with id %q", id)
		return
	}
	writeJSON(w, http.StatusOK, TraceDetail{
		ID:        t.ID,
		Seq:       t.Seq,
		Status:    t.Status,
		Query:     t.Query,
		VTimeSecs: t.VTime.Seconds(),
		LLMCalls:  t.LLMCalls,
		Operators: t.Operators,
		Spans:     t.Spans,
		Truncated: t.Truncated,
		Root:      t.Root,
	})
}

// handleProfile serves the cumulative per-operator-class cost profile.
// All durations are virtual-clock, so the payload is byte-deterministic
// for identical workloads.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Sys.Profiler.Snapshot())
}

// corpusDocs reads the corpus size the way a query would: under the
// read side of corpusMu, so a health or stats request never races an
// ingest that is growing the store.
func (s *Server) corpusDocs() int {
	s.corpusMu.RLock()
	defer s.corpusMu.RUnlock()
	return s.Sys.Store.Len()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	reg := s.Sys.Metrics.Reg
	served := reg.Value("unify_queries_total", "ok")
	failed := reg.Value("unify_queries_total", "error")
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"version":        unify.Version,
		"api_version":    1,
		"dataset":        s.Sys.Dataset.Name,
		"documents":      s.corpusDocs(),
		"uptime_secs":    time.Since(s.started).Seconds(),
		"queries_served": int64(served),
		"queries_failed": int64(failed),
	})
}

// handleStats returns the metrics registry as JSON (a machine-friendly
// sibling of /metrics).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	reg := s.Sys.Metrics.Reg
	snap := reg.Snapshot()
	// Per-layer cache counters, read from the shared cache as the
	// registry's unify_cache_* metrics are, with each layer's resident
	// entry/byte figures included.
	cacheStats := map[string]interface{}{}
	for layer, st := range s.Sys.CacheStats() {
		cacheStats[layer] = st
	}
	// Failure-handling counters: resilience events, injected faults, and
	// graceful-degradation totals, summarized for operators.
	failures := map[string]interface{}{
		"retries":         int64(reg.Total("unify_llm_retries_total")),
		"retry_exhausted": int64(reg.Total("unify_llm_retry_exhausted_total")),
		"hedges":          int64(reg.Total("unify_llm_hedges_total")),
		"replans":         int64(reg.Total("unify_exec_replans_total")),
		"skipped_docs":    int64(reg.Total("unify_exec_skipped_docs_total")),
		"plan_fallbacks":  int64(reg.Total("unify_plan_fallback_total")),
		"query_errors":    int64(reg.Value("unify_queries_total", "error")),
	}
	if inj := s.Sys.Injector; inj != nil {
		byKind := map[string]int64{}
		for k, v := range inj.Stats() {
			byKind[string(k)] = v
		}
		failures["faults_injected"] = inj.Injected()
		failures["faults_by_kind"] = byKind
	}
	// Serving-layer state: the admission queue and the shared slot pool.
	serving := map[string]interface{}{
		"max_concurrent": s.admission.MaxConcurrent(),
		"max_queue":      s.admission.MaxQueue(),
		"inflight":       s.admission.Inflight(),
		"queued":         s.admission.Queued(),
	}
	if pool := s.Sys.Pool; pool != nil {
		ps := pool.Stats()
		serving["pool"] = ps
		serving["pool_busy_vtime_secs"] = ps.BusyTotal.Seconds()
		serving["pool_grant_wait_vtime_secs"] = ps.GrantWaitTotal.Seconds()
		if ps.BatchGrants > 0 {
			serving["pool_batch_saved_vtime_secs"] = ps.BatchSavedVTime.Seconds()
		}
	}
	if sh := s.Sys.Sharding; sh != nil {
		serving["sharding"] = map[string]interface{}{
			"partitioner":    sh.Partitioner().Name(),
			"shards":         sh.N,
			"docs_per_shard": sh.Counts(),
		}
	}
	// Materialized-view state: counter snapshot plus per-column row
	// coverage, and the corpus generation views key against.
	viewsBlock := map[string]interface{}{"enabled": s.Sys.Views != nil}
	if v := s.Sys.Views; v != nil {
		st := v.Stats()
		viewsBlock["stats"] = st
		viewsBlock["hit_rate"] = st.HitRate()
		viewsBlock["columns"] = v.Columns()
		viewsBlock["corpus_generation"] = s.Sys.Store.Generation()
		viewsBlock["corpus_docs"] = s.corpusDocs()
	}
	// Clock domains: serving figures (admission queue waits, uptime) are
	// monotonic wall time; everything derived from query execution (pool
	// vtime, query duration histograms, trace and profile durations) is
	// virtual (simulated) time. Trace DETAIL payloads (/v1/traces/{id})
	// are the one dual-clock surface: span wall_ms is wall time next to
	// each span's vtime_secs.
	serving["clocks"] = map[string]string{
		"uptime_secs":                             "wall_monotonic",
		"admission_queue_wait":                    "wall_monotonic",
		"unify_serve_queue_wait_seconds":          "wall_monotonic",
		"pool_busy_vtime_secs":                    "virtual",
		"pool_grant_wait_vtime_secs":              "virtual",
		"unify_query_vtime_seconds":               "virtual",
		"unify_slot_grant_wait_vtime_seconds":     "virtual",
		"traces.vtime_secs":                       "virtual",
		"traces.span.wall_ms":                     "wall_monotonic",
		"profile.*_vtime_secs":                    "virtual",
		"unify_op_busy_vtime_seconds_total":       "virtual",
		"unify_op_vtime_share_seconds_total":      "virtual",
		"unify_op_grant_wait_vtime_seconds_total": "virtual",
		"slow_query_threshold_vtime_secs":         "virtual",
		"pool_batch_saved_vtime_secs":             "virtual",
		"unify_batch_saved_vtime_seconds":         "virtual",
	}
	// Trace retention and slow-query state, documented next to the rest
	// of the observability surface so operators can see the bounds that
	// govern /v1/traces without reading code.
	tracing := map[string]interface{}{"enabled": s.Sys.Traces != nil}
	if store := s.Sys.Traces; store != nil {
		maxTraces, maxSpans := store.Bounds()
		tracing["max_traces"] = maxTraces
		tracing["max_spans_per_trace"] = maxSpans
		tracing["stored"] = store.Len()
		tracing["evicted"] = store.Evicted()
	}
	tracing["profiled_queries"] = s.Sys.Profiler.Queries()
	if sl := s.Sys.SlowLog; sl != nil {
		tracing["slow_query_threshold_vtime_secs"] = sl.Threshold().Seconds()
		tracing["slow_queries"] = sl.Count()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"uptime_secs": time.Since(s.started).Seconds(),
		"metrics":     snap,
		"cache":       cacheStats,
		"failures":    failures,
		"serving":     serving,
		"tracing":     tracing,
		"views":       viewsBlock,
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, s.nextRequestID(), "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Sys.Metrics.Reg.WritePrometheus(w)
}

func (s *Server) timeout() time.Duration {
	if s.Timeout <= 0 {
		return 5 * time.Minute
	}
	return s.Timeout
}
