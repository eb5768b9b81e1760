// Package serve turns the one-shot reverse-engineering pipeline into a
// long-lived discovery service: an HTTP/JSON API to submit a database
// (DDL plus inline CSV / INSERTs or a named server-side dataset) and a
// program set as an asynchronous job, poll its status and live progress
// (derived from the run's obs trace), answer the expert-oracle dialogue
// over the API instead of stdin, cancel it, and fetch the final report,
// JSON trace and EER output.
//
// API contract (JSON errors as {"error": "..."}):
//
//	POST   /jobs                      submit a JobSpec       → 202 JobStatus
//	GET    /jobs                      list jobs              → 200 [JobStatus]
//	GET    /jobs/{id}                 status + progress      → 200 JobStatus
//	DELETE /jobs/{id}                 cancel                 → 202 JobStatus
//	GET    /jobs/{id}/report          final text report      → 200 text/plain
//	GET    /jobs/{id}/trace           JSON execution trace   → 200 application/json
//	GET    /jobs/{id}/eer             EER schema as DOT      → 200 text/plain
//	GET    /jobs/{id}/questions       expert dialogue so far → 200 [Question]
//	POST   /jobs/{id}/questions/{qid} answer a question      → 200
//	POST   /jobs/{id}/append          append rows, revalidate → 200 AppendStatus
//	GET    /healthz                   liveness + queue stats → 200
//
// Status codes: 400 malformed or invalid submissions and answers, 404
// unknown job/question/artifact, 409 state conflicts (artifact of an
// unfinished job, cancelling or answering a finished one, answering a
// question twice), 413 oversized submissions, 503 full queue or
// shutdown. Artifacts of cancelled/failed jobs answer 409 with the
// job's error.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dbre/internal/obs"
)

// Config sizes the server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Workers is the job-execution pool size: the hard bound on
	// concurrently running pipelines (default 2).
	Workers int
	// QueueDepth bounds the backlog of queued jobs; submissions beyond
	// it are rejected with 503 (default 32).
	QueueDepth int
	// TTL is how long finished jobs (and their artifacts) stay
	// fetchable before eviction (default 1h).
	TTL time.Duration
	// MaxJobBytes is the per-job memory ceiling, checked at ingest
	// against the loaded extension's estimated footprint (default
	// 256 MiB). Specs may lower it per job, never raise it.
	MaxJobBytes int64
	// MaxBodyBytes caps the encoded submission size (default 8 MiB).
	MaxBodyBytes int64
	// DatasetRoot is the directory holding named server-side datasets
	// (one subdirectory of <relation>.csv files each); empty disables
	// dataset jobs.
	DatasetRoot string
	// MaxResidentBytes budgets the resident dataset pool: the total
	// table.ApproxBytes footprint of snapshot-backed datasets kept warm
	// across jobs. Over budget, idle datasets shed their cached
	// statistics and are then LRU-evicted (see pool.go). 0 applies the
	// default (1 GiB); negative disables the pool, reverting snapshot
	// jobs to the cold per-job open path.
	MaxResidentBytes int64
	// AutoAnswerAfter is the default api-expert fallback deadline; 0
	// means questions wait until answered or the job is cancelled.
	AutoAnswerAfter time.Duration
	// Clock injects time for tests (job tracers, TTL eviction);
	// defaults to time.Now.
	Clock func() time.Time
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	if c.MaxJobBytes <= 0 {
		c.MaxJobBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxResidentBytes == 0 {
		c.MaxResidentBytes = 1 << 30
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// limits derives the submission limits from the config.
func (c Config) limits() Limits {
	return Limits{MaxBody: c.MaxBodyBytes, MaxJobBytes: c.MaxJobBytes}
}

// Server is the discovery-as-a-service daemon: an http.Handler plus the
// job queue behind it. Create with New, serve it under any http.Server,
// and Close it to drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	tracer *obs.Tracer // server-wide counters (serve-jobs-*, questions, pool-*)
	// pool keeps snapshot-backed datasets resident across jobs; nil
	// when disabled (no dataset root, or MaxResidentBytes < 0).
	pool *pool

	ctx       context.Context
	cancelAll context.CancelFunc
	queue     chan *job
	wg        sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	seq     int
	closed  bool
	running int
	peak    int
}

// New builds a server and starts its worker pool and TTL janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		tracer:    obs.NewTracerClock("serve", cfg.Clock),
		ctx:       ctx,
		cancelAll: cancel,
		queue:     make(chan *job, cfg.QueueDepth),
		jobs:      make(map[string]*job),
	}
	if cfg.DatasetRoot != "" && cfg.MaxResidentBytes >= 0 {
		s.pool = newPool(cfg.MaxResidentBytes, s.tracer)
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	interval := cfg.TTL / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < time.Second {
		interval = time.Second
	}
	s.wg.Add(1)
	go s.janitor(interval)
	return s
}

// Tracer exposes the server-wide counter tracer, e.g. for expvar
// publication next to the debug mux.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /jobs/{id}/eer", s.handleEER)
	s.mux.HandleFunc("GET /jobs/{id}/questions", s.handleQuestions)
	s.mux.HandleFunc("POST /jobs/{id}/questions/{qid}", s.handleAnswer)
	s.mux.HandleFunc("POST /jobs/{id}/append", s.handleAppend)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// writeErr renders the error contract.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lookup resolves {id}; a miss answers 404 and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "submission exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	spec, err := DecodeJobSpec(body, s.cfg.limits())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Dataset != "" && s.cfg.DatasetRoot == "" {
		writeErr(w, http.StatusBadRequest, "server has no dataset root; submit csv or INSERTs inline")
		return
	}
	if size := spec.approxSize(); size > s.cfg.MaxJobBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"inline payload is %d bytes, per-job ceiling %d", size, s.cfg.MaxJobBytes)
		return
	}
	j, err := s.submit(spec, body)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if st := j.getState(); st.Terminal() {
		writeErr(w, http.StatusConflict, "job %s is already %s", j.id, st)
		return
	}
	wasQueued := j.getState() == StateQueued
	j.cancel()
	if wasQueued {
		// Never started: record the terminal state here; the worker
		// that eventually drains it from the queue finds it finished.
		s.finishJob(j, StateCancelled, "cancelled while queued")
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// artifact guards the report/trace/eer handlers: only a done job has
// artifacts; running/queued answer 409 "not finished", failed and
// cancelled answer 409 with the job's fate.
func (s *Server) artifact(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(w, r)
	if j == nil {
		return nil
	}
	switch st := j.getState(); st {
	case StateDone:
		return j
	case StateFailed, StateCancelled:
		j.mu.Lock()
		msg := j.err
		j.mu.Unlock()
		writeErr(w, http.StatusConflict, "job %s %s: %s", j.id, st, msg)
	default:
		writeErr(w, http.StatusConflict, "job %s is %s; poll GET /jobs/%s until done", j.id, st, j.id)
	}
	return nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.artifact(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	text := j.reportText
	j.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, text) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.artifact(w, r)
	if j == nil {
		return
	}
	trace, err := j.trace()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "rendering trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(trace) //nolint:errcheck
}

func (s *Server) handleEER(w http.ResponseWriter, r *http.Request) {
	j := s.artifact(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	dot := j.eerDOT
	j.mu.Unlock()
	if dot == "" {
		writeErr(w, http.StatusNotFound, "job %s produced no EER schema", j.id)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	io.WriteString(w, dot) //nolint:errcheck
}

func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.questions.list())
	}
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	var ans Answer
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ans); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed answer: %v", err)
		return
	}
	qid := r.PathValue("qid")
	switch err := j.questions.answer(qid, ans); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"job": j.id, "question": qid, "status": questionAnswered})
	case errors.Is(err, errQuestionNotFound):
		writeErr(w, http.StatusNotFound, "job %s has no question %q", j.id, qid)
	case errors.Is(err, errQuestionResolved):
		writeErr(w, http.StatusConflict, "question %s of job %s is already resolved", qid, j.id)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"workers":   s.cfg.Workers,
		"running":   st.Running,
		"submitted": st.Submitted,
		"done":      st.Done,
		"stored":    st.Stored,
	})
}

// handleStats implements GET /stats: the queue counters plus — when the
// resident pool is enabled — its occupancy and effectiveness.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"jobs": s.Stats()}
	if s.pool != nil {
		out["pool"] = s.pool.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}
