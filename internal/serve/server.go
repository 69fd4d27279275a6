package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"autonosql"
)

// maxSubmitBytes caps a POST /api/jobs body. Real submissions are a few
// kilobytes of spec and grid; the cap keeps one request from making the
// daemon buffer an unbounded document.
const maxSubmitBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// RetainWindows bounds the metric windows each job keeps for stream
	// replay; older windows fall off the front (streamers resume from the
	// oldest retained sequence). Zero keeps every window.
	RetainWindows int
}

// Server owns the job registry and the HTTP API. Wire its Handler into an
// http.Server; watch ShutdownRequested to honour POST /api/shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int

	shutdownOnce sync.Once
	shutdown     chan struct{}
}

// NewServer creates a Server with an empty job registry.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*Job),
		shutdown: make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /api/jobs/{id}/start", s.handleLifecycle((*Job).Start))
	s.mux.HandleFunc("POST /api/jobs/{id}/pause", s.handleLifecycle((*Job).Pause))
	s.mux.HandleFunc("POST /api/jobs/{id}/resume", s.handleLifecycle((*Job).Resume))
	s.mux.HandleFunc("POST /api/jobs/{id}/cancel", s.handleLifecycle((*Job).Cancel))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/jobs/{id}/spans", s.handleSpans)
	s.mux.HandleFunc("GET /api/jobs/{id}/audit", s.handleAudit)
	s.mux.HandleFunc("GET /api/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /api/jobs/{id}/report.csv", s.handleReportCSV)
	s.mux.HandleFunc("GET /api/jobs/{id}/tenants.csv", s.handleTenantsCSV)
	s.mux.HandleFunc("GET /api/jobs/{id}/tables", s.handleTables)
	s.mux.HandleFunc("GET /api/jobs/{id}/meta", s.handleMeta)
	s.mux.HandleFunc("POST /api/shutdown", s.handleShutdown)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ShutdownRequested is closed when a client POSTs /api/shutdown.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdown }

// JobRequest is the submission body for POST /api/jobs. Exactly one of
// Scenario or Suite describes the work; Kind is inferred when omitted.
// Scenario and Suite.Base decode onto DefaultScenarioSpec, so a submission
// states only what it overrides. Durations are nanosecond integers
// (time.Duration's JSON form).
type JobRequest struct {
	Kind string `json:"kind,omitempty"` // "scenario" or "suite"
	Name string `json:"name,omitempty"`
	// Scenario overrides DefaultScenarioSpec for a single-run job.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Suite describes a grid job.
	Suite *SuiteRequest `json:"suite,omitempty"`
	// Autostart starts the job on submission.
	Autostart bool `json:"autostart,omitempty"`
}

// SuiteRequest describes a suite job: a base spec (onto defaults) swept by
// a grid. The Traces axis is not submittable — recorded traces have no JSON
// form — and is rejected.
type SuiteRequest struct {
	Base                json.RawMessage `json:"base,omitempty"`
	Grid                json.RawMessage `json:"grid,omitempty"`
	Parallelism         int             `json:"parallelism,omitempty"`
	MaxViolationMinutes float64         `json:"max_violation_minutes,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": n})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decoding job request: %w", err))
		return
	}
	job, err := s.buildJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()
	if req.Autostart {
		if err := job.Start(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, job.Status())
}

// buildJob validates a submission and constructs the job — including the
// full suite expansion, so an invalid variant fails the submission rather
// than the run.
func (s *Server) buildJob(req *JobRequest) (*Job, error) {
	kind := req.Kind
	switch {
	case kind == "" && req.Suite != nil:
		kind = kindSuite
	case kind == "":
		kind = kindScenario
	}
	switch kind {
	case kindScenario:
		if req.Suite != nil {
			return nil, fmt.Errorf("scenario job carries a suite body")
		}
		spec := autonosql.DefaultScenarioSpec()
		if len(req.Scenario) > 0 {
			if err := decodeStrict(req.Scenario, &spec); err != nil {
				return nil, fmt.Errorf("decoding scenario spec: %w", err)
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		j := newJob(s.allocateID(), req.Name, kindScenario, s.opts.RetainWindows)
		j.spec = spec
		j.variants = 1
		return j, nil
	case kindSuite:
		if req.Suite == nil {
			return nil, fmt.Errorf("suite job without a suite body")
		}
		if len(req.Scenario) > 0 {
			return nil, fmt.Errorf("suite job carries a scenario body; put the base spec in suite.base")
		}
		base := autonosql.DefaultScenarioSpec()
		if len(req.Suite.Base) > 0 {
			if err := decodeStrict(req.Suite.Base, &base); err != nil {
				return nil, fmt.Errorf("decoding suite base spec: %w", err)
			}
		}
		var grid autonosql.Grid
		if len(req.Suite.Grid) > 0 {
			if err := decodeStrict(req.Suite.Grid, &grid); err != nil {
				return nil, fmt.Errorf("decoding suite grid: %w", err)
			}
		}
		if len(grid.Traces) > 0 {
			return nil, fmt.Errorf("the traces axis cannot be submitted over JSON: recorded traces are in-process values (record with suiterunner -record-trace and replay locally)")
		}
		if err := resolveNamedEntries(&grid, base.Duration); err != nil {
			return nil, err
		}
		j := newJob(s.allocateID(), req.Name, kindSuite, s.opts.RetainWindows)
		j.maxViolation = req.Suite.MaxViolationMinutes
		variants := autonosql.ExpandGrid(base, grid)
		for i := range variants {
			name := variants[i].Name
			variants[i].Configure = func(sc *autonosql.Scenario) error {
				sc.OnSample(j.observe(name))
				sc.OnSpan(j.publishSpan(name)) // no-op unless Observe.TraceOps
				return nil
			}
		}
		suite, err := autonosql.NewSuite(autonosql.SuiteSpec{
			Variants:    variants,
			Parallelism: req.Suite.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		j.suite = suite
		j.variants = len(variants)
		return j, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want %q or %q)", kind, kindScenario, kindSuite)
	}
}

// resolveNamedEntries replaces every fault-profile, tenant-mix and SLA-tier
// entry that carries only a name with the built-in preset of that name, the
// same presets suiterunner's axis flags select. Without it a bare
// {"Name": "crash"} would decode to an empty plan and run fault-free under a
// faulty-sounding name. An empty-bodied entry with an unknown name is an
// error.
func resolveNamedEntries(grid *autonosql.Grid, d time.Duration) error {
	for i, fp := range grid.Faults {
		if !fp.Plan.Empty() {
			continue
		}
		p, ok := autonosql.LookupFaultProfile(fp.Name, d)
		if !ok {
			return fmt.Errorf("fault profile %q has no plan and names no built-in profile", fp.Name)
		}
		grid.Faults[i] = p
	}
	for i, mix := range grid.TenantMixes {
		if len(mix.Tenants) > 0 {
			continue
		}
		m, ok := autonosql.LookupTenantMix(mix.Name)
		if !ok {
			return fmt.Errorf("tenant mix %q has no tenants and names no built-in mix", mix.Name)
		}
		grid.TenantMixes[i] = m
	}
	for i, tier := range grid.SLATiers {
		if tier.SLA != (autonosql.SLASpec{}) {
			continue
		}
		t, ok := autonosql.LookupSLATier(tier.Name)
		if !ok {
			return fmt.Errorf("SLA tier %q has no SLA and names no built-in tier", tier.Name)
		}
		grid.SLATiers[i] = t
	}
	return nil
}

func (s *Server) allocateID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("job-%04d", s.nextID)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleLifecycle(op func(*Job) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		if err := op(j); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleStream replays the retained metric windows from the requested
// sequence (?from=N, default oldest retained) as JSON lines, then follows
// the live run — one line per closed sample window, flushed as it closes —
// until the job reaches a terminal state or the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from sequence %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first window closes
	}
	enc := json.NewEncoder(w)
	next := from
	for {
		batch, n, terminal, wait := j.snapshotFrom(next)
		next = n
		for _, mw := range batch {
			if err := enc.Encode(mw); err != nil {
				return // client gone
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// One final snapshot raced nothing: terminal was read after the
			// batch, and windows only grow before the terminal transition.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}

// handleSpans replays the retained op-trace spans from the requested
// sequence (?from=N, default oldest retained) as JSON lines, then follows
// the live run until the job finishes or the client disconnects. Jobs
// submitted without Observe.TraceOps stream nothing and close at the
// terminal state.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from sequence %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	next := from
	for {
		batch, n, terminal, wait := j.snapshotSpansFrom(next)
		next = n
		for _, rec := range batch {
			if err := enc.Encode(rec); err != nil {
				return // client gone
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}

// handleAudit serves a finished scenario job's MAPE decision audit trail.
// The trail is part of the report (Observe.Audit), so it follows the same
// results-only-after-terminal contract.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.kind != kindScenario {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s is a %s job; the audit trail is a scenario surface", j.id, j.kind))
		return
	}
	trail, ok := j.audit()
	if !ok {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; the audit trail is available once it finishes", j.id, j.Status().State))
		return
	}
	if trail == nil {
		trail = []autonosql.AuditEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "audit": trail})
}

// handleMetrics serves a Prometheus text exposition of the daemon's state:
// job counts by state, plus per-job window, span and variant counters in
// submission order. Everything here is cheap to collect, so the endpoint is
// safe to scrape frequently.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	byState := map[State]int{}
	snaps := make([]jobMetrics, 0, len(jobs))
	for _, j := range jobs {
		m := j.metrics()
		byState[m.state]++
		snaps = append(snaps, m)
	}

	var b strings.Builder
	b.WriteString("# HELP autonosql_jobs Number of jobs in each lifecycle state.\n")
	b.WriteString("# TYPE autonosql_jobs gauge\n")
	for _, st := range []State{StatePending, StateRunning, StatePaused, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(&b, "autonosql_jobs{state=%q} %d\n", st, byState[st])
	}
	b.WriteString("# HELP autonosql_job_info Per-job kind and state (value is always 1).\n")
	b.WriteString("# TYPE autonosql_job_info gauge\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_info{job=%q,kind=%q,state=%q} 1\n", m.id, m.kind, m.state)
	}
	b.WriteString("# HELP autonosql_job_windows_total Metric windows published by each job.\n")
	b.WriteString("# TYPE autonosql_job_windows_total counter\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_windows_total{job=%q} %d\n", m.id, m.windows)
	}
	b.WriteString("# HELP autonosql_job_spans_total Op-trace spans published by each job.\n")
	b.WriteString("# TYPE autonosql_job_spans_total counter\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_spans_total{job=%q} %d\n", m.id, m.spans)
	}
	b.WriteString("# HELP autonosql_job_variants Scenario variants each job runs.\n")
	b.WriteString("# TYPE autonosql_job_variants gauge\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_variants{job=%q} %d\n", m.id, m.variants)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// finished fetches a job and its results, enforcing the
// results-only-after-terminal contract.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) (*Job, []byte, []byte, []byte, string, bool) {
	j := s.lookup(w, r)
	if j == nil {
		return nil, nil, nil, nil, "", false
	}
	reportJSON, csvB, tenantsB, tables, ok := j.results()
	if !ok {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; results are available once it finishes", j.id, j.Status().State))
		return nil, nil, nil, nil, "", false
	}
	return j, reportJSON, csvB, tenantsB, tables, true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	_, reportJSON, _, _, _, ok := s.finished(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reportJSON)
}

func (s *Server) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	j, _, csvB, _, _, ok := s.finished(w, r)
	if !ok {
		return
	}
	if j.kind != kindSuite {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s is a %s job; CSV export is a suite surface", j.id, j.kind))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(csvB)
}

func (s *Server) handleTenantsCSV(w http.ResponseWriter, r *http.Request) {
	j, _, _, tenantsB, _, ok := s.finished(w, r)
	if !ok {
		return
	}
	if j.kind != kindSuite {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s is a %s job; CSV export is a suite surface", j.id, j.kind))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(tenantsB)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	_, _, _, _, tables, ok := s.finished(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(tables))
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Meta())
	}
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusAccepted, map[string]any{"shutting_down": true})
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

func decodeStrict(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
