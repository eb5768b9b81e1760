package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dbre"
	"dbre/internal/core"
	"dbre/internal/obs"
	"dbre/internal/workload"
)

// dataset is the name of the served snapshot dataset.
const dataset = "w"

// client drives the job server over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
	job  []byte // the discovery-job submission body
}

// jobResult is one completed served job as the client saw it.
type jobResult struct {
	id      string
	submit  time.Time
	latency time.Duration // submit → report fetched
	report  string
	epoch   uint64
	polls   int
}

// errRefused marks a 503 answer (queue full).
type errRefused struct{ msg string }

func (e errRefused) Error() string { return "refused (503): " + e.msg }

func (c *client) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return errRefused{strings.TrimSpace(string(data))}
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if s, ok := out.(*string); ok {
		*s = string(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

// runJob submits one discovery job, polls it to completion and fetches
// its report.
func (c *client) runJob() (jobResult, error) {
	res := jobResult{submit: time.Now()}
	var st dbre.JobStatus
	if err := c.do("POST", "/jobs", c.job, &st); err != nil {
		return res, err
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return res, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollInterval)
		res.polls++
		if err := c.do("GET", "/jobs/"+st.ID, nil, &st); err != nil {
			return res, err
		}
	}
	if err := c.do("GET", "/jobs/"+st.ID+"/report", nil, &res.report); err != nil {
		return res, err
	}
	res.latency = time.Since(res.submit)
	res.id, res.epoch = st.ID, st.Epoch
	res.report = stripVolatile(res.report)
	return res, nil
}

// trace fetches a job's JSON trace.
func (c *client) trace(id string) (*obs.Trace, error) {
	var raw string
	if err := c.do("GET", "/jobs/"+id+"/trace", nil, &raw); err != nil {
		return nil, err
	}
	return obs.Parse([]byte(raw))
}

// poolCounters is the pool section of GET /stats.
type poolCounters struct {
	Hits      float64 `json:"hits"`
	Misses    float64 `json:"misses"`
	Evictions float64 `json:"evictions"`
}

// poolStats reads the pool section of GET /stats.
func (c *client) poolStats() (poolCounters, error) {
	var st struct {
		Pool poolCounters `json:"pool"`
	}
	err := c.do("GET", "/stats", nil, &st)
	return st.Pool, err
}

// serveState is one set-up of a serve workload: the snapshot dataset, the
// in-process server on a loopback listener, and a prewarmed pool.
type serveState struct {
	root string
	wl   *workload.Workload
	srv  *dbre.Server
	ts   *httptest.Server
	c    *client
}

func (st *serveState) release() {
	st.ts.Close()
	st.srv.Close()
	os.RemoveAll(st.root)
}

// prepareServe snapshots the serving shape as a named dataset, starts the
// server, prewarms the dataset into the resident pool, and runs one job
// so the shared statistics cache is warm.
func prepareServe(r *run) func(rep int) (*serveState, error) {
	return func(rep int) (*serveState, error) {
		wl, err := generate(servingSpec(), r.seed)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(dbre.JobSpec{Dataset: dataset, Programs: wl.Programs, Incremental: true, Parallelism: parallelism})
		if err != nil {
			return nil, err
		}
		st := &serveState{root: filepath.Join(r.dir, fmt.Sprintf("serve-%d", rep)), wl: wl}
		if err := dbre.Snapshot(wl.DB, filepath.Join(st.root, dataset)); err != nil {
			return nil, err
		}
		st.srv = dbre.NewServer(serverConfig(st.root))
		st.ts = httptest.NewServer(st.srv)
		st.c = &client{
			base: st.ts.URL,
			hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
			job:  body,
		}
		if _, err := st.srv.Prewarm(context.Background(), []string{dataset}); err != nil {
			st.release()
			return nil, err
		}
		if _, err := st.c.runJob(); err != nil {
			st.release()
			return nil, err
		}
		return st, nil
	}
}

// waitEvicted stops until the server's TTL sweep has dropped every
// finished job, so the heap reading sees the resident pool and caches but
// not the retention window.
func (st *serveState) waitEvicted() {
	deadline := time.Now().Add(2*serverConfig("").TTL + 3*time.Second)
	for time.Now().Before(deadline) {
		if st.srv.Stats().Stored == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	say("note: jobs still retained when the heap was read")
}

// servedJobs is the traced bookkeeping of served discovery jobs.
type servedJobs struct {
	l       *layers
	refused int
}

// record folds one traced job in: queue wait, run time and client
// overhead from the job trace's root span against the client's clock.
func (s *servedJobs) record(c *client, res jobResult) error {
	tr, err := c.trace(res.id)
	if err != nil {
		return err
	}
	run := time.Duration(tr.Root.DurationUS) * time.Microsecond
	wait := time.UnixMicro(tr.Root.StartUS).Sub(res.submit)
	s.l.add(tr, res.latency, res.latency-run)
	s.l.note("queue_wait_ms", ms(wait))
	s.l.note("run_ms", ms(run))
	s.l.note("client_overhead_ms", ms(res.latency-run-wait))
	s.l.note("polls", float64(res.polls))
	return nil
}

// set reports the serve.* figures; p0 is the pool reading taken when the
// traced phase began.
func (s *servedJobs) set(r *run, c *client, p0 poolCounters) error {
	p, err := c.poolStats()
	if err != nil {
		return err
	}
	s.l.printSelf(r)
	r.setCounters(s.l)
	r.set("serve.queue_wait_ms", median(s.l.extra["queue_wait_ms"]), "ms")
	r.set("serve.run_ms", median(s.l.extra["run_ms"]), "ms")
	r.set("serve.client_overhead_ms", median(s.l.extra["client_overhead_ms"]), "ms")
	r.set("serve.polls_per_job", s.l.mean("polls"), "count")
	r.set("serve.refused", float64(s.refused), "count")
	r.set("serve.pool_hits", p.Hits-p0.Hits, "count")
	r.set("serve.pool_misses", p.Misses-p0.Misses, "count")
	r.set("serve.pool_evictions", p.Evictions-p0.Evictions, "count")
	return nil
}

func runServeWarm(r *run) error {
	st, err := setup(r, prepareServe(r), (*serveState).release)
	if err != nil {
		return err
	}
	defer st.release()
	// The in-process reference: the same discovery-only entry point over
	// the generated database, on the serial exact path.
	inc, err := core.DiscoverIncrementalPrograms(context.Background(), st.wl.DB, st.wl.Programs, referenceOptions())
	if err != nil {
		return fmt.Errorf("reference discovery: %w", err)
	}
	ref := stripVolatile(inc.Report().Text())
	rows := st.wl.DB.TotalRows()
	st.wl, inc = nil, nil
	say("serve-warm: serving shape, %d tuples, %d closed-loop clients submitting incremental discovery jobs", rows, clients)

	jobs := &servedJobs{l: newLayers()}
	var mu sync.Mutex
	op := func(trace bool) func(int) (time.Duration, error) {
		return func(int) (time.Duration, error) {
			res, err := st.c.runJob()
			if err != nil {
				if _, ok := err.(errRefused); ok {
					mu.Lock()
					jobs.refused++
					mu.Unlock()
				}
				return 0, err
			}
			if res.report != ref {
				return 0, fmt.Errorf("served job %s report differs from the in-process discovery", res.id)
			}
			if trace {
				if err := jobs.record(st.c, res); err != nil {
					return 0, err
				}
			}
			return res.latency, nil
		}
	}
	if !r.traced {
		lat, errs, wall := closedLoop(clients, r.seconds, op(false))
		r.account(lat, errs)
		r.setLatency("job", "jobs_per_s", lat, wall)
		st.waitEvicted()
		r.setHeap()
		return nil
	}
	base, errs, _ := closedLoop(clients, r.seconds/2, op(false))
	r.account(base, errs)
	p0, err := st.c.poolStats()
	if err != nil {
		return err
	}
	before, srv0 := readGC(), st.srv.Tracer().CounterSnapshot()
	lat, errs, _ := closedLoop(clients, r.seconds/2, op(true))
	r.account(lat, errs)
	r.setRuntime(before, len(lat))
	jobs.l.addServer(srv0, st.srv.Tracer().CounterSnapshot(), len(lat))
	r.traceOverhead(base, lat)
	return jobs.set(r, st.c, p0)
}
