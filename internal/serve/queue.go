// The job queue: a bounded worker pool executing discovery jobs under
// per-job contexts, an in-memory job store with TTL eviction of finished
// jobs, and graceful shutdown that cancels everything in flight. The
// bounds are structural — at most Workers pipelines run concurrently
// because only the worker goroutines execute jobs, and at most
// QueueDepth jobs wait because the queue channel's buffer is the
// backlog — so no admission decision ever needs a second lock.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/sql/exec"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/table"
)

// submit validates admission and enqueues a new job. The returned error
// is nil on acceptance; errTooBusy and errClosed map to 503.
var (
	errTooBusy = errors.New("job queue is full")
	errClosed  = errors.New("server is shutting down")
)

func (s *Server) submit(spec *JobSpec, body []byte) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.ctx)
	j := newJob(jobID(s.seq, body), spec, cancel)
	j.ctx = ctx
	// Everything the worker reads is in place before the enqueue makes
	// the job visible to it.
	select {
	case s.queue <- j:
	default:
		s.seq--
		cancel()
		return nil, errTooBusy
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.tracer.Add(obs.CtrJobsSubmitted, 1)
	return j, nil
}

// worker executes jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// noteRunning maintains the running gauge and its high-water mark.
func (s *Server) noteRunning(delta int) {
	s.tracer.Add(obs.CtrJobsRunning, int64(delta))
	s.mu.Lock()
	s.running += delta
	if s.running > s.peak {
		s.peak = s.running
	}
	s.mu.Unlock()
}

// finishJob records a terminal state; the done counter ticks only for
// the call that actually performed the transition, so racing finishers
// (a DELETE against the worker's own completion) count the job once.
func (s *Server) finishJob(j *job, state JobState, msg string) {
	if j.finish(state, msg, s.cfg.Clock()) {
		s.tracer.Add(obs.CtrJobsDone, 1)
	}
}

// runJob executes one job end to end on the calling worker goroutine.
func (s *Server) runJob(j *job) {
	// A job cancelled while queued never starts.
	if j.ctx.Err() != nil || !j.start() {
		s.finishJob(j, StateCancelled, "cancelled while queued")
		return
	}
	s.noteRunning(1)
	defer s.noteRunning(-1)

	tracer := obs.NewTracerClock("dbre", s.cfg.Clock)
	j.mu.Lock()
	j.tracer = tracer
	j.mu.Unlock()
	ctx := obs.NewContext(j.ctx, tracer)

	err := s.executeIsolated(ctx, j, tracer)
	state := StateDone
	msg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, msg = StateCancelled, "cancelled"
	default:
		state, msg = StateFailed, err.Error()
	}
	s.finishJob(j, state, msg)
}

// executeIsolated is execute with a panic turned into the job's error,
// value and stack included, so one job's bug fails that job alone: the
// worker keeps serving, and execute's deferred releases (pool pin,
// mutation lock) have run by the time the error is returned.
func (s *Server) executeIsolated(ctx context.Context, j *job, tracer *obs.Tracer) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("job panicked: %v\n%s", v, debug.Stack())
		}
	}()
	return s.execute(ctx, j, tracer)
}

// execute runs the pipeline for one job: load the database, enforce the
// memory ceiling, build the oracle, reverse-engineer, render the
// artifacts. The rendered report is byte-identical to the one-shot run
// on the same inputs: the same loaders, the same core entry point, the
// same tracer shape.
func (s *Server) execute(ctx context.Context, j *job, tracer *obs.Tracer) error {
	spec := j.spec
	loadSchema := func() (*table.Database, error) {
		db, errs := exec.LoadScript(spec.SchemaSQL)
		if len(errs) > 0 {
			return nil, fmt.Errorf("loading script: %w (and %d more)", errs[0], len(errs)-1)
		}
		return db, nil
	}

	var db *table.Database
	// poolEnt is the resident pool entry backing this job when the
	// dataset is snapshot-backed and the pool is enabled; retain keeps
	// its pin past this call (incremental jobs, whose live state IS the
	// resident database).
	var poolEnt *poolEntry
	retain := false
	defer func() {
		if poolEnt != nil && !retain {
			s.pool.release(poolEnt)
		}
	}()
	violations := 0
	switch {
	case spec.Dataset != "":
		if s.cfg.DatasetRoot == "" {
			return errors.New("server has no dataset root configured")
		}
		dir := filepath.Join(s.cfg.DatasetRoot, spec.Dataset)
		if storage.IsSnapshot(dir) {
			// A snapshot-backed dataset carries its own catalog and boots
			// warm: checksummed sections instead of CSV parsing, columns
			// loaded lazily as discovery phases touch them.
			if strings.TrimSpace(spec.SchemaSQL) != "" {
				return fmt.Errorf("dataset %s is snapshot-backed and carries its own schema; schema_sql must be empty", spec.Dataset)
			}
			if s.pool != nil {
				// Resident pool: the first job opens the snapshot, later
				// jobs share the installed database and statistics cache.
				ent, err := s.pool.acquire(ctx, spec.Dataset, dir)
				if err != nil {
					return fmt.Errorf("opening snapshot dataset %s: %w", spec.Dataset, err)
				}
				poolEnt = ent
				if spec.Incremental {
					// The job mutates the resident database itself, so its
					// initial discovery must not interleave with appends
					// from sibling jobs on the same dataset.
					ent.mutMu.Lock()
					defer ent.mutMu.Unlock()
					db = ent.db
				} else {
					// One-shot jobs read a pinned epoch of the resident
					// database: immutable under concurrent appends, and at
					// the same commit point as the shared cache whenever
					// the dataset is quiescent.
					db = ent.db.PinEpoch()
				}
				break
			}
			// Pool disabled: cold per-job open. Incremental jobs outlive
			// this call and keep reading (and growing) the database, so
			// their columns are materialized up front instead of lazily
			// against the snapshot file.
			warm, info, err := storage.OpenCtx(ctx, dir, storage.Options{Preload: spec.Incremental})
			if err != nil {
				return fmt.Errorf("opening snapshot dataset %s: %w", spec.Dataset, err)
			}
			defer info.Close()
			db = warm
			break
		}
		if strings.TrimSpace(spec.SchemaSQL) == "" {
			return fmt.Errorf("dataset %s holds no snapshot, so schema_sql is required", spec.Dataset)
		}
		var err error
		if db, err = loadSchema(); err != nil {
			return err
		}
		v, err := csvio.LoadDirCtx(ctx, db, dir, false,
			csvio.Options{Parallelism: spec.Parallelism})
		if err != nil {
			return fmt.Errorf("loading dataset %s: %w", spec.Dataset, err)
		}
		violations = v
	case len(spec.CSV) > 0:
		var err error
		if db, err = loadSchema(); err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "dbre-job-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for rel, body := range spec.CSV {
			// rel passed validateName at decode time, so the join cannot
			// escape the scratch directory.
			if err := os.WriteFile(filepath.Join(dir, rel+".csv"), []byte(body), 0o600); err != nil {
				return err
			}
		}
		v, err := csvio.LoadDirCtx(ctx, db, dir, false, csvio.Options{Parallelism: spec.Parallelism})
		if err != nil {
			return fmt.Errorf("loading inline csv: %w", err)
		}
		violations = v
	default:
		var err error
		if db, err = loadSchema(); err != nil {
			return err
		}
	}
	j.mu.Lock()
	j.violations = violations
	j.mu.Unlock()

	// The per-job memory ceiling, checked at ingest: the loaded
	// extension's estimated footprint must fit before any discovery
	// phase (whose own projections are proportional to it) runs.
	ceiling := s.cfg.MaxJobBytes
	if spec.MaxBytes > 0 && spec.MaxBytes < ceiling {
		ceiling = spec.MaxBytes
	}
	if got := db.ApproxBytes(); ceiling > 0 && got > ceiling {
		return fmt.Errorf("extension footprint %d bytes exceeds the job ceiling %d", got, ceiling)
	}

	opts := core.Options{
		Oracle:            s.buildOracle(j),
		TransitiveClosure: !spec.NoClosure,
		InferKeys:         spec.InferKeys,
		Parallelism:       spec.Parallelism,
	}
	if poolEnt != nil {
		// Layered statistics: a job-local cache over the job's view of
		// the database, reading through to the dataset's shared cache
		// whenever both resolve a relation to the same commit point.
		// Job-local mutations (restructuring replacements, stale pins)
		// fall back to the local layer automatically.
		child := stats.NewCache(db)
		child.SetShared(poolEnt.cache)
		opts.Stats = child
		// Q depends only on the programs and the catalog, so the
		// dataset's jobs share one scan per program set.
		opts.Scan = poolEnt.programScan(db.Catalog(), spec.Programs, opts.TransitiveClosure)
	}
	if spec.Incremental {
		// Discovery-only, with the database and warm state retained on
		// the job for POST /jobs/{id}/append.
		inc, err := core.DiscoverIncrementalPrograms(ctx, db, spec.Programs, opts)
		tracer.Finish()
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.reportText = inc.Report().Text()
		j.db = db
		j.inc = inc
		j.epoch = db.Epoch()
		if poolEnt != nil {
			// The retained live state is the resident database itself:
			// keep the entry pinned (eviction never touches pinned
			// datasets) until the sweeper evicts this job.
			ent := poolEnt
			j.pool = ent
			j.poolRelease = func() { s.pool.release(ent) }
			retain = true
		}
		j.mu.Unlock()
		return nil
	}
	rep, err := core.RunContext(ctx, db, spec.Programs, opts)
	tracer.Finish()
	if err != nil {
		return err
	}

	j.mu.Lock()
	j.reportText = rep.Text()
	if rep.EER != nil {
		j.eerDOT = rep.EER.DOT()
	}
	j.mu.Unlock()
	return nil
}

// buildOracle assembles the job's expert: the tuned automatic policy,
// the deny baseline, or the API oracle falling back to the tuned policy.
func (s *Server) buildOracle(j *job) expert.Oracle {
	spec := j.spec
	auto := expert.NewAuto()
	if spec.InclusionSlack != nil {
		auto.InclusionSlack = *spec.InclusionSlack
	}
	if spec.MaxViolationRate != nil {
		auto.MaxViolationRate = *spec.MaxViolationRate
	}
	switch spec.Expert {
	case ExpertDeny:
		return expert.Deny{}
	case ExpertAPI:
		var ask map[string]bool
		if len(spec.Ask) > 0 {
			ask = make(map[string]bool, len(spec.Ask))
			for _, k := range spec.Ask {
				ask[k] = true
			}
		}
		autoAfter := s.cfg.AutoAnswerAfter
		if spec.AutoAnswerAfterMS > 0 {
			autoAfter = time.Duration(spec.AutoAnswerAfterMS) * time.Millisecond
		}
		// The pipeline binds the job context via expert.ContextAware
		// before the first consultation.
		return &apiOracle{
			qq:        j.questions,
			fallback:  auto,
			ask:       ask,
			autoAfter: autoAfter,
			counters:  s.tracer,
		}
	default:
		return auto
	}
}

// sweep evicts finished jobs older than the TTL. The janitor calls it on
// a timer; tests call it directly with a synthetic clock.
func (s *Server) sweep() {
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		evict := j.state.Terminal() && !j.doneAt.IsZero() && now.Sub(j.doneAt) >= s.cfg.TTL
		release := j.poolRelease
		j.mu.Unlock()
		if evict {
			delete(s.jobs, id)
			// Until cancelled, the server context references the job's
			// context. Appends run under it, so it lives until eviction.
			j.cancel()
			if release != nil {
				// Drop the job's pin on its resident dataset; once every
				// pin is gone the pool may evict the entry under memory
				// pressure.
				release()
			}
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// janitor periodically sweeps until the server closes.
func (s *Server) janitor(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep()
		case <-s.ctx.Done():
			return
		}
	}
}

// Close shuts the server down: no new submissions, every queued and
// running job cancelled, workers drained. In-flight pipelines observe
// the cancellation at their next phase or candidate boundary — and any
// question blocked on the API resolves immediately — so Close returns
// promptly with every job in a terminal state.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	close(s.queue)
	s.wg.Wait()
	return nil
}

// Stats is a point-in-time view of the queue, used by monitoring and the
// concurrency tests.
type Stats struct {
	// Submitted / Done are the lifetime counters; Running is the current
	// gauge and PeakRunning its high-water mark, which can never exceed
	// the configured worker count.
	Submitted   int64 `json:"submitted"`
	Done        int64 `json:"done"`
	Running     int   `json:"running"`
	PeakRunning int   `json:"peak_running"`
	// Stored is the number of jobs currently retained in the store.
	Stored int `json:"stored"`
}

// Stats snapshots the queue counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:   s.tracer.Count(obs.CtrJobsSubmitted),
		Done:        s.tracer.Count(obs.CtrJobsDone),
		Running:     s.running,
		PeakRunning: s.peak,
		Stored:      len(s.jobs),
	}
}
