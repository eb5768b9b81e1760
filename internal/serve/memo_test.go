// Tests of the per-dataset program-scan memo, on-demand trace
// rendering, and per-job panic isolation.
package serve

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbre/internal/core"
	"dbre/internal/obs"
)

// memoPrograms spans the scanner's languages and a parse failure, so
// the summary and every scan-file attribute are exercised.
var memoPrograms = map[string]string{
	"q.sql":   e2eProgram,
	"rpt.c":   `void f(void) { EXEC SQL SELECT ename INTO :n FROM emp e, dept d WHERE e.dno = d.dno; }`,
	"bad.sql": "SELECT FROM WHERE;\n",
	"notes":   "select dname from dept",
}

// scanSpans returns the attributes of the scan phase's scan-file spans,
// failing unless the phase is present with one child per program.
func scanSpans(t *testing.T, raw string) []map[string]string {
	t.Helper()
	tr, err := obs.Parse([]byte(raw))
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	for _, ph := range tr.Root.Children {
		if ph.Name != "scan" {
			continue
		}
		var out []map[string]string
		for _, c := range ph.Children {
			if c.Name != "scan-file" {
				t.Fatalf("scan phase child %q, want scan-file", c.Name)
			}
			out = append(out, c.Attrs)
		}
		return out
	}
	t.Fatal("trace has no scan phase")
	return nil
}

// memoEntry returns the resident entry of dataset "warm" without
// pinning it.
func memoEntry(t *testing.T, s *Server) *poolEntry {
	t.Helper()
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	e := s.pool.entries["warm"]
	if e == nil {
		t.Fatal(`dataset "warm" is not resident`)
	}
	return e
}

// TestScanMemoHitMatchesMiss runs the same job twice on a pooled
// dataset — a memo miss, then a hit — and checks both against the
// unpooled path: byte-identical reports, a trace whose scan phase keeps
// its scan-file spans, and a memoized summary equal to a fresh scan's.
// The jobs are one-shot: an incremental job conceptualizes its NEI
// relations into the resident catalog, which a later job then sees.
func TestScanMemoHitMatchesMiss(t *testing.T) {
	root := snapshotRoot(t)
	spec := JobSpec{Dataset: "warm", Programs: memoPrograms}

	_, tsCold := startServer(t, Config{DatasetRoot: root, MaxResidentBytes: -1})
	cc := &api{t: t, base: tsCold.URL}
	ref := cc.submit(spec).ID
	if st := cc.waitTerminal(ref); st.State != StateDone {
		t.Fatalf("unpooled job finished %s (%s)", st.State, st.Error)
	}
	_, coldTrace := cc.raw("/jobs/" + ref + "/trace")

	s, ts := startServer(t, Config{DatasetRoot: root})
	c := &api{t: t, base: ts.URL}
	var ids []string
	for i := 0; i < 2; i++ {
		id := c.submit(spec).ID
		if st := c.waitTerminal(id); st.State != StateDone {
			t.Fatalf("pooled job %d finished %s (%s)", i, st.State, st.Error)
		}
		ids = append(ids, id)
	}
	miss, hit := c.report(ids[0]), c.report(ids[1])
	if miss != hit {
		t.Fatalf("memo hit report differs from the miss:\nmiss:\n%s\nhit:\n%s", miss, hit)
	}
	if want := cutTrace(cc.report(ref)); cutTrace(hit) != want {
		t.Fatalf("memoized report differs from the unpooled run:\nmemo:\n%s\nunpooled:\n%s", hit, want)
	}
	for _, id := range ids {
		_, raw := c.raw("/jobs/" + id + "/trace")
		if got, want := scanSpans(t, raw), scanSpans(t, coldTrace); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s scan-file spans %v, unpooled %v", id, got, want)
		}
	}

	ent := memoEntry(t, s)
	if len(ent.scans) != 1 {
		t.Fatalf("memo holds %d scans, want 1", len(ent.scans))
	}
	ps := ent.scans[ent.scanOrder[0]]
	fresh := core.ScanPrograms(t.Context(), ent.db.Catalog(), memoPrograms, true)
	if !reflect.DeepEqual(ps.Summary, fresh.Summary) || !reflect.DeepEqual(ps.Files, fresh.Files) {
		t.Errorf("memoized scan %+v, fresh scan %+v", ps, fresh)
	}
	if ps.Summary.ParseFailures == 0 || len(ps.Files) != len(memoPrograms) {
		t.Fatalf("fixture does not exercise the summary: %+v", ps)
	}
}

// TestScanMemoSeparateEntries keys the memo by program content and the
// closure setting: each distinct combination is its own entry, and a
// repeat is a hit.
func TestScanMemoSeparateEntries(t *testing.T) {
	root := snapshotRoot(t)
	s, ts := startServer(t, Config{DatasetRoot: root})
	c := &api{t: t, base: ts.URL}
	other := map[string]string{"q.sql": "SELECT * FROM emp e, dept d WHERE e.eno = d.dno;"}
	for _, spec := range []JobSpec{
		{Dataset: "warm", Programs: memoPrograms},
		{Dataset: "warm", Programs: other},
		{Dataset: "warm", Programs: memoPrograms, NoClosure: true},
		{Dataset: "warm", Programs: memoPrograms},
	} {
		if st := c.waitTerminal(c.submit(spec).ID); st.State != StateDone {
			t.Fatalf("job finished %s (%s)", st.State, st.Error)
		}
	}
	if got := len(memoEntry(t, s).scans); got != 3 {
		t.Fatalf("memo holds %d scans, want 3 (two program sets, one no_closure)", got)
	}
}

// TestScanMemoBound fills one entry past scanMemoCap — the oldest scan
// goes first — and checks that evicting the entry drops its memo.
func TestScanMemoBound(t *testing.T) {
	root := snapshotRoot(t)
	s, _ := startServer(t, Config{DatasetRoot: root, MaxResidentBytes: 1})
	dir := filepath.Join(root, "warm")
	ent, err := s.pool.acquire(t.Context(), "warm", dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := ent.db.Catalog()
	programs := func(i int) map[string]string {
		return map[string]string{fmt.Sprintf("p%d.sql", i): e2eProgram}
	}
	for i := 0; i < scanMemoCap+3; i++ {
		ent.programScan(cat, programs(i), true)
	}
	if len(ent.scans) != scanMemoCap || len(ent.scanOrder) != scanMemoCap {
		t.Fatalf("memo holds %d scans (%d ordered), bound %d", len(ent.scans), len(ent.scanOrder), scanMemoCap)
	}
	if _, ok := ent.scans[newScanKey(cat, programs(0), true)]; ok {
		t.Error("oldest scan survived past the bound")
	}
	last := newScanKey(cat, programs(scanMemoCap+2), true)
	if _, ok := ent.scans[last]; !ok {
		t.Error("newest scan missing")
	}
	if again := ent.programScan(cat, programs(scanMemoCap+2), true); again != ent.scans[last] {
		t.Error("repeat lookup re-scanned instead of hitting")
	}

	// A one-byte budget evicts the entry once it is idle; the reopened
	// dataset starts with an empty memo.
	s.pool.release(ent)
	s.pool.govern(nil)
	ent2, err := s.pool.acquire(t.Context(), "warm", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.release(ent2)
	if ent2 == ent || len(ent2.scans) != 0 {
		t.Fatalf("reopened entry kept the evicted memo (same entry: %v, %d scans)", ent2 == ent, len(ent2.scans))
	}
}

// TestScanMemoConcurrentJobs runs one-shot jobs in parallel over one
// memoized Q; under -race this proves the shared scan is only read.
func TestScanMemoConcurrentJobs(t *testing.T) {
	root := snapshotRoot(t)
	const K = 4
	s, ts := startServer(t, Config{DatasetRoot: root, Workers: K, QueueDepth: 2 * K})
	c := &api{t: t, base: ts.URL}
	spec := JobSpec{Dataset: "warm", Programs: memoPrograms, Parallelism: 2}
	first := c.submit(spec).ID
	if st := c.waitTerminal(first); st.State != StateDone {
		t.Fatalf("priming job finished %s (%s)", st.State, st.Error)
	}
	want := c.report(first)

	ids := make([]string, 2*K)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = c.submit(spec).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if st := c.waitTerminal(id); st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		if got := c.report(id); got != want {
			t.Fatalf("concurrent job %s report differs:\n%s\nwant:\n%s", id, got, want)
		}
	}
	if got := len(memoEntry(t, s).scans); got != 1 {
		t.Fatalf("memo holds %d scans, want 1", got)
	}
}

// TestTraceRenderedOnDemand checks the lazily rendered trace: nothing is
// rendered before the first fetch, repeated fetches return the same
// bytes, and after an append the trace describes the append.
func TestTraceRenderedOnDemand(t *testing.T) {
	s, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}
	id := c.submit(JobSpec{
		SchemaSQL:   e2eSchema,
		Programs:    map[string]string{"query.sql": e2eProgram},
		Incremental: true,
	}).ID
	if st := c.waitTerminal(id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.mu.Lock()
	rendered := j.traceJSON != nil
	j.mu.Unlock()
	if rendered {
		t.Fatal("trace rendered before anyone fetched it")
	}

	fetch := func() (string, *obs.Trace) {
		t.Helper()
		code, raw := c.raw("/jobs/" + id + "/trace")
		if code != 200 {
			t.Fatalf("trace: status %d: %s", code, raw)
		}
		tr, err := obs.Parse([]byte(raw))
		if err != nil {
			t.Fatalf("parsing trace: %v", err)
		}
		return raw, tr
	}
	first, tr := fetch()
	if again, _ := fetch(); again != first {
		t.Fatal("second fetch returned different bytes")
	}
	if tr.Counters["revalidations"] != 0 {
		t.Fatalf("initial trace counts revalidations: %v", tr.Counters)
	}

	if code := c.do("POST", "/jobs/"+id+"/append",
		AppendRequest{Relation: "emp", CSV: appendCSV}, nil); code != 200 {
		t.Fatalf("append: status %d", code)
	}
	after, tr := fetch()
	if after == first {
		t.Fatal("trace after an append is still the initial run's")
	}
	if tr.Counters["revalidations"] != 1 {
		t.Fatalf("append trace counters %v, want one revalidation", tr.Counters)
	}
	if again, _ := fetch(); again != after {
		t.Fatal("second fetch after the append returned different bytes")
	}
}

// calledFrom reports whether fn (a package-qualified function name
// suffix) is on the calling goroutine's stack.
func calledFrom(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestJobPanicIsolated makes the clock panic once inside execute, first
// while the job opens its pooled dataset and then, with the dataset
// resident, inside the pipeline. Each time the job ends failed with the
// panic value and stack, no pin or half-open entry is left behind, and
// the single worker goes on to finish the next job.
func TestJobPanicIsolated(t *testing.T) {
	root := snapshotRoot(t)
	var armed atomic.Bool
	clock := func() time.Time {
		if calledFrom("serve.(*Server).execute") && armed.CompareAndSwap(true, false) {
			panic("clock exploded")
		}
		return fixedClock()
	}
	s, ts := startServer(t, Config{DatasetRoot: root, Workers: 1, Clock: clock})
	c := &api{t: t, base: ts.URL}
	spec := JobSpec{Dataset: "warm", Programs: map[string]string{"q.sql": e2eProgram}}
	failOnce := func(where string, want ...string) {
		t.Helper()
		armed.Store(true)
		st := c.waitTerminal(c.submit(spec).ID)
		if st.State != StateFailed {
			t.Fatalf("job panicking %s finished %s, want failed", where, st.State)
		}
		if armed.Load() {
			t.Fatalf("the clock never panicked %s", where)
		}
		for _, w := range append(want, "clock exploded", "goroutine") {
			if !strings.Contains(st.Error, w) {
				t.Errorf("job panicking %s: error lacks %q:\n%s", where, w, st.Error)
			}
		}
	}

	failOnce("in the pool open", "opening snapshot dataset warm")
	if ps := s.pool.snapshot(); ps.Resident != 0 || len(s.pool.entries) != 0 {
		t.Fatalf("failed open left an entry behind: %+v", ps)
	}

	if _, err := s.Prewarm(t.Context(), []string{"warm"}); err != nil {
		t.Fatal(err)
	}
	failOnce("in the pipeline", "(*Server).execute")
	if ds := s.pool.snapshot().Datasets; len(ds) != 1 || ds[0].Pins != 0 {
		t.Fatalf("pool datasets after the panic: %+v, want one unpinned", ds)
	}

	if st := c.waitTerminal(c.submit(spec).ID); st.State != StateDone {
		t.Fatalf("job after the panics finished %s (%s), want done", st.State, st.Error)
	}
}

// TestAppendPanicIsolated makes the clock panic once inside an append's
// re-validation. The request answers 500 with the panic text instead of
// a dropped connection, the job keeps its last validated report, and a
// second append on the same job succeeds.
func TestAppendPanicIsolated(t *testing.T) {
	var armed atomic.Bool
	clock := func() time.Time {
		if calledFrom("serve.(*Server).handleAppend") && calledFrom("core.(*Incremental).Revalidate") &&
			armed.CompareAndSwap(true, false) {
			panic("clock exploded")
		}
		return fixedClock()
	}
	_, ts := startServer(t, Config{Clock: clock})
	c := &api{t: t, base: ts.URL}
	st := c.submit(JobSpec{SchemaSQL: e2eSchema, Programs: map[string]string{"q.sql": e2eProgram}, Incremental: true})
	if final := c.waitTerminal(st.ID); final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	_, report := c.raw("/jobs/" + st.ID + "/report")

	armed.Store(true)
	var failed map[string]string
	if code := c.do("POST", "/jobs/"+st.ID+"/append",
		AppendRequest{Relation: "emp", CSV: appendCSV}, &failed); code != 500 {
		t.Fatalf("panicking append: status %d (%v), want 500", code, failed)
	}
	if armed.Load() {
		t.Fatal("the clock never panicked in the append")
	}
	if !strings.Contains(failed["error"], "clock exploded") {
		t.Errorf("panicking append: error %q lacks the panic text", failed["error"])
	}
	if _, got := c.raw("/jobs/" + st.ID + "/report"); got != report {
		t.Errorf("the failed append replaced the validated report:\n%s", got)
	}

	var ap AppendStatus
	if code := c.do("POST", "/jobs/"+st.ID+"/append",
		AppendRequest{Relation: "dept", CSV: growDeptCSV}, &ap); code != 200 {
		t.Fatalf("append after the panic: status %d (%+v)", code, ap)
	}
	if ap.AppendedRows != 1 {
		t.Errorf("append after the panic = %+v, want 1 row", ap)
	}
}
