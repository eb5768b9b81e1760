// Concurrency tests of the job queue, written to run under -race: many
// concurrent submissions against a small worker pool, the structural
// concurrency bound, queue-full rejection, clean shutdown with jobs in
// flight, and TTL eviction under a synthetic clock.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbre/internal/obs"
)

// blockingSpec is a job that parks on its NEI question until a client
// answers it — the tool these tests use to hold worker slots open.
func blockingSpec() JobSpec {
	return JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
		Expert:    ExpertAPI,
		Ask:       []string{KindNEI},
	}
}

// answerEverything answers every pending question of every job with
// "ignore" until all jobs are terminal or the deadline passes.
func answerEverything(t *testing.T, c *api, total int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list []JobStatus
		if code := c.do("GET", "/jobs", nil, &list); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		terminal := 0
		for _, st := range list {
			if st.State.Terminal() {
				terminal++
				continue
			}
			if st.PendingQuestions == 0 {
				continue
			}
			var qs []Question
			if code := c.do("GET", "/jobs/"+st.ID+"/questions", nil, &qs); code != http.StatusOK {
				continue
			}
			for _, q := range qs {
				if q.State != questionPending {
					continue
				}
				// A losing race with auto-answer or completion yields
				// 409/404; both are fine — the question got resolved.
				c.do("POST", "/jobs/"+st.ID+"/questions/"+q.ID, Answer{Action: "ignore"}, nil)
			}
		}
		if terminal == total && len(list) == total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs terminal; %+v", terminal, total, list)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentSubmissionsBounded floods a K-worker server with N
// concurrent submissions and checks the bound the obs gauge proves: at
// no point do more than K jobs run, no submission is lost, and every
// accepted job reaches a terminal state.
func TestConcurrentSubmissionsBounded(t *testing.T) {
	const workers, jobs = 3, 12
	s, ts := startServer(t, Config{Workers: workers, QueueDepth: jobs})
	c := &api{t: t, base: ts.URL}

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := blockingSpec()
			// Distinct program names give every submission a distinct
			// body, hence a distinct content digest in its job ID.
			spec.Programs = map[string]string{fmt.Sprintf("query-%02d.sql", i): e2eProgram}
			body, err := json.Marshal(spec)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All workers saturate: exactly `workers` jobs block on their
	// questions while the rest wait in the queue.
	waitFor(t, func() bool { return s.Stats().Running == workers })
	if got := s.tracer.Count(obs.CtrJobsRunning); got != workers {
		t.Errorf("running gauge = %d, want %d", got, workers)
	}

	answerEverything(t, c, jobs)

	st := s.Stats()
	if st.Submitted != jobs || st.Done != jobs {
		t.Errorf("submitted/done = %d/%d, want %d/%d", st.Submitted, st.Done, jobs, jobs)
	}
	if st.PeakRunning > workers {
		t.Errorf("peak running = %d, exceeds the %d-worker bound", st.PeakRunning, workers)
	}
	if st.Running != 0 {
		t.Errorf("running = %d after completion", st.Running)
	}

	// No lost jobs: every submission is listed, every one done, and the
	// deterministic IDs are pairwise distinct.
	var list []JobStatus
	if code := c.do("GET", "/jobs", nil, &list); code != http.StatusOK || len(list) != jobs {
		t.Fatalf("list: status %d, %d jobs", code, len(list))
	}
	ids := make(map[string]bool, jobs)
	for _, j := range list {
		if j.State != StateDone {
			t.Errorf("job %s finished %s (%s)", j.ID, j.State, j.Error)
		}
		if ids[j.ID] {
			t.Errorf("duplicate job id %s", j.ID)
		}
		ids[j.ID] = true
	}
}

// waitFor polls a predicate with a deadline.
func waitFor(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFullRejects pins the 503 backpressure contract: with one
// worker occupied and a one-slot backlog full, the next submission is
// rejected and — crucially — never recorded as a job.
func TestQueueFullRejects(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 1})
	c := &api{t: t, base: ts.URL}

	running := c.submit(blockingSpec())
	c.wait(running.ID, "a pending question", func(st JobStatus) bool { return st.PendingQuestions > 0 })
	queued := c.submit(blockingSpec()) // fills the backlog

	var rejected map[string]string
	if code := c.do("POST", "/jobs", blockingSpec(), &rejected); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", code)
	}
	if !strings.Contains(rejected["error"], "full") {
		t.Errorf("overflow error = %q", rejected["error"])
	}
	if got := s.Stats(); got.Submitted != 2 || got.Stored != 2 {
		t.Errorf("stats after rejection = %+v, want 2 submitted, 2 stored", got)
	}

	// Cancelling the queued job marks it terminal at once, but its
	// backlog slot only frees when a worker drains (and skips) it.
	if code := c.do("DELETE", "/jobs/"+queued.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", code)
	}
	if got := c.waitTerminal(queued.ID); got.State != StateCancelled {
		t.Fatalf("queued job finished %s, want cancelled", got.State)
	}
	if code := c.do("DELETE", "/jobs/"+running.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel running: status %d", code)
	}
	c.waitTerminal(running.ID)

	// With the worker idle again the next submission is admitted —
	// retried briefly, since the worker drains the dead queued job
	// asynchronously — and reuses the sequence number the rejected
	// submission gave back.
	var retry JobStatus
	waitFor(t, func() bool {
		return c.do("POST", "/jobs", blockingSpec(), &retry) == http.StatusAccepted
	})
	if !strings.HasPrefix(retry.ID, "j0003-") {
		t.Errorf("retry id = %q, want the reused sequence number j0003-", retry.ID)
	}
}

// TestCloseCancelsInFlight checks clean shutdown: Close returns promptly
// with running jobs blocked on questions and queued jobs never started,
// every job lands in a terminal state, and later submissions get 503.
func TestCloseCancelsInFlight(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 8, Clock: fixedClock}
	s := New(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &api{t: t, base: ts.URL}

	var submitted []string
	for i := 0; i < 4; i++ {
		submitted = append(submitted, c.submit(blockingSpec()).ID)
	}
	waitFor(t, func() bool { return s.Stats().Running == 2 })

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with jobs in flight")
	}

	for _, id := range submitted {
		var st JobStatus
		if code := c.do("GET", "/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("job %s: status %d after close", id, code)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s left %s after close", id, st.State)
		}
	}
	if got := s.Stats(); got.Running != 0 || got.Done != 4 {
		t.Errorf("stats after close = %+v", got)
	}

	if code := c.do("POST", "/jobs", blockingSpec(), nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after close: status %d, want 503", code)
	}
	// Close is idempotent.
	s.Close()
}

// TestTTLSweep drives eviction with a synthetic clock: finished jobs
// outlive the TTL only until the next sweep, unfinished jobs are never
// evicted.
func TestTTLSweep(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	s, ts := startServer(t, Config{TTL: time.Minute, Clock: clock})
	c := &api{t: t, base: ts.URL}

	finished := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
	})
	c.waitTerminal(finished.ID)
	s.mu.Lock()
	finishedCtx := s.jobs[finished.ID].ctx
	s.mu.Unlock()
	parked := c.submit(blockingSpec())
	c.wait(parked.ID, "a pending question", func(st JobStatus) bool { return st.PendingQuestions > 0 })

	s.sweep() // TTL not reached: both stay
	if got := s.Stats().Stored; got != 2 {
		t.Fatalf("stored = %d after premature sweep, want 2", got)
	}
	if finishedCtx.Err() != nil {
		t.Fatal("a retained finished job's context is cancelled; its appends would fail")
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	s.sweep()
	if code := c.do("GET", "/jobs/"+finished.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("evicted job: status %d, want 404", code)
	}
	// Eviction cancels the job's context, which is what drops the
	// server context's reference to it.
	if finishedCtx.Err() == nil {
		t.Error("evicted job's context still live: the server context retains it")
	}
	var st JobStatus
	if code := c.do("GET", "/jobs/"+parked.ID, nil, &st); code != http.StatusOK || st.State != StateRunning {
		t.Errorf("running job evicted: status %d, %+v", code, st)
	}
	if got := s.Stats().Stored; got != 1 {
		t.Errorf("stored = %d after sweep, want 1", got)
	}
}
