package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dbre"
	"dbre/internal/core"
	"dbre/internal/obs"
	"dbre/internal/paperex"
)

// fixtureDir writes the paper example to disk: schema.sql, data/, programs/.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "schema.sql"), []byte(paperex.DDL), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dbre.StoreCSVDir(paperex.Database(), filepath.Join(dir, "data")); err != nil {
		t.Fatal(err)
	}
	for name, src := range paperex.Programs {
		path := filepath.Join(dir, "programs", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunFullPipeline(t *testing.T) {
	dir := fixtureDir(t)
	var out strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-programs", filepath.Join(dir, "programs"),
		"-expert", "auto",
		"-out-data", filepath.Join(dir, "restructured"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"|Q|=5", "Inclusion dependencies", "EER schema", "Expert decisions"} {
		if !strings.Contains(text, want) {
			t.Errorf("output misses %q", want)
		}
	}
	// Restructured extension written.
	entries, err := os.ReadDir(filepath.Join(dir, "restructured"))
	if err != nil || len(entries) < 5 {
		t.Errorf("restructured CSVs: %v, %v", entries, err)
	}
}

func TestRunDotFormat(t *testing.T) {
	dir := fixtureDir(t)
	var out strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-programs", filepath.Join(dir, "programs"),
		"-format", "dot",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph EER") {
		t.Error("DOT output missing")
	}
}

func TestRunDenyExpertAndNoPrograms(t *testing.T) {
	dir := fixtureDir(t)
	var out strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-expert", "deny",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no -programs directory") {
		t.Error("missing-programs note absent")
	}
}

func TestRunInferKeys(t *testing.T) {
	dir := t.TempDir()
	schema := `CREATE TABLE T (a INTEGER, b INTEGER);
INSERT INTO T VALUES (1, 5); INSERT INTO T VALUES (2, 5);`
	if err := os.WriteFile(filepath.Join(dir, "s.sql"), []byte(schema), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-schema", filepath.Join(dir, "s.sql"), "-infer-keys"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "inferred keys") || !strings.Contains(out.String(), "T.a") {
		t.Errorf("inferred keys missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -schema accepted")
	}
	if err := run([]string{"-schema", "/no/file.sql"}, &out); err == nil {
		t.Error("missing schema file accepted")
	}
	dir := fixtureDir(t)
	if err := run([]string{"-schema", filepath.Join(dir, "schema.sql"), "-expert", "bogus"}, &out); err == nil {
		t.Error("unknown expert accepted")
	}
	if err := run([]string{"-schema", filepath.Join(dir, "schema.sql"), "-format", "bogus"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-schema", filepath.Join(dir, "schema.sql"), "-data", filepath.Join(dir, "no-such-dir")}, &out); err == nil {
		t.Error("missing data dir accepted: it would report over empty relations")
	}
	if err := run([]string{"-schema", filepath.Join(dir, "schema.sql"), "-programs", "/no/dir"}, &out); err == nil {
		t.Error("missing programs dir accepted")
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestSnapshotFlags exercises the persistence path end to end: ingest
// and persist with -snapshot (no pipeline), then boot warm with
// -from-snapshot and check the pipeline output matches a cold run on the
// same extension.
func TestSnapshotFlags(t *testing.T) {
	dir := fixtureDir(t)
	snap := filepath.Join(dir, "snap")

	var save strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-snapshot", snap,
	}, &save)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(save.String(), "snapshot written to "+snap) {
		t.Errorf("snapshot not announced:\n%s", save.String())
	}
	if strings.Contains(save.String(), "Inclusion dependencies") {
		t.Error("-snapshot ran the pipeline; it must ingest, persist and exit")
	}
	if _, err := os.Stat(filepath.Join(snap, "snapshot.dbre")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	var warm, cold strings.Builder
	if err := run([]string{
		"-from-snapshot", snap,
		"-programs", filepath.Join(dir, "programs"),
	}, &warm); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-programs", filepath.Join(dir, "programs"),
	}, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "warm start from "+snap) {
		t.Errorf("warm start not announced:\n%s", warm.String())
	}
	// Same discovery output either way: compare everything between the
	// load/boot preamble (first line differs by design) and the Timings
	// section (wall-clock, nondeterministic).
	trim := func(s string) string {
		if i := strings.Index(s, "programs:"); i >= 0 {
			s = s[i:]
		}
		if i := strings.Index(s, "\nTimings\n"); i >= 0 {
			s = s[:i]
		}
		return s
	}
	if trim(warm.String()) != trim(cold.String()) {
		t.Errorf("warm-start report diverges from cold run:\nwarm:\n%s\ncold:\n%s", warm.String(), cold.String())
	}
	// The expert dialogue (after the Timings block) must match too.
	tail := func(s string) string {
		if i := strings.Index(s, "Expert decisions"); i >= 0 {
			return s[i:]
		}
		return ""
	}
	if tail(warm.String()) == "" || tail(warm.String()) != tail(cold.String()) {
		t.Errorf("expert logs diverge:\nwarm:\n%s\ncold:\n%s", tail(warm.String()), tail(cold.String()))
	}

	// Flag combinations that must be rejected.
	var out strings.Builder
	if err := run([]string{"-from-snapshot", snap, "-schema", "x.sql"}, &out); err == nil {
		t.Error("-from-snapshot with -schema accepted")
	}
	if err := run([]string{"-from-snapshot", snap, "-data", "d"}, &out); err == nil {
		t.Error("-from-snapshot with -data accepted")
	}
	if err := run([]string{"-from-snapshot", filepath.Join(dir, "nosuch")}, &out); err == nil {
		t.Error("missing snapshot dir accepted")
	}
}

// TestTraceFlag runs the full pipeline with -trace and validates the
// emitted JSON: current schema version, a root span covering every
// pipeline phase, and non-zero counters — plus the "Trace" section of the
// text report.
func TestTraceFlag(t *testing.T) {
	dir := fixtureDir(t)
	tracePath := filepath.Join(dir, "out.json")
	var out strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-programs", filepath.Join(dir, "programs"),
		"-trace", tracePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nTrace\n") {
		t.Error("report lacks the Trace section")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := obs.Parse(data)
	if err != nil {
		t.Fatalf("emitted trace does not parse: %v", err)
	}
	if trace.Version != obs.SchemaVersion {
		t.Errorf("trace version = %d, want %d", trace.Version, obs.SchemaVersion)
	}
	names := make(map[string]bool)
	for _, n := range trace.Root.SpanNames() {
		names[n] = true
	}
	for _, phase := range core.PhaseOrder {
		if !names[phase] {
			t.Errorf("trace misses pipeline phase %q (have %v)", phase, trace.Root.SpanNames())
		}
	}
	if trace.Counters["inds-tested"] == 0 || trace.Counters["fd-checks"] == 0 {
		t.Errorf("trace counters empty: %v", trace.Counters)
	}
}

// TestDebugAddrFlag starts the expvar/pprof server on a loopback port
// (the run tears it down on exit) and checks the address is announced and
// the run still completes normally.
func TestDebugAddrFlag(t *testing.T) {
	dir := fixtureDir(t)
	var out strings.Builder
	err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-programs", filepath.Join(dir, "programs"),
		"-debug-addr", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "debug server on http://") {
		t.Errorf("debug server address not announced:\n%s", out.String())
	}
}

// syncWriter is a goroutine-safe output sink the serve smoke test can
// poll while run() is still writing to it.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestServeSmoke drives the CLI's job-server mode end to end: start
// `dbre -serve` on a loopback port, read the announced address, submit a
// job over HTTP, poll it to completion, fetch the report, and shut the
// server down cleanly through the interrupt path.
func TestServeSmoke(t *testing.T) {
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-serve", "127.0.0.1:0", "-serve-workers", "1"}, &out)
	}()

	addrRe := regexp.MustCompile(`listening on (http://[^/\s]+)/jobs`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before announcing its address: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address announced:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	spec := `{
		"schema_sql": "CREATE TABLE emp (eno INTEGER PRIMARY KEY, dno INTEGER); CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR(20)); INSERT INTO emp VALUES (1, 2); INSERT INTO dept VALUES (2, 'sales');",
		"programs": {"q.sql": "SELECT e.eno, d.dname FROM emp e, dept d WHERE e.dno = d.dno;"}
	}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.ID == "" {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, status)
	}

	for status.State != "done" {
		if status.State == "failed" || status.State == "cancelled" {
			t.Fatalf("job finished %s: %s", status.State, status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished; last %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/jobs/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	r, err := http.Get(base + "/jobs/" + status.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d, err %v", r.StatusCode, err)
	}
	if !strings.Contains(string(report), "Timings") {
		t.Errorf("report looks wrong:\n%s", report)
	}

	serveShutdown <- struct{}{}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve mode exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve mode did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("shutdown not announced:\n%s", out.String())
	}
}

// TestServePrewarm boots the server with -prewarm against a dataset root
// holding one snapshot, and checks the per-dataset warm log line and the
// pool occupancy reported by GET /stats.
func TestServePrewarm(t *testing.T) {
	dir := fixtureDir(t)
	root := filepath.Join(dir, "datasets")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	var save strings.Builder
	if err := run([]string{
		"-schema", filepath.Join(dir, "schema.sql"),
		"-data", filepath.Join(dir, "data"),
		"-snapshot", filepath.Join(root, "demo"),
	}, &save); err != nil {
		t.Fatal(err)
	}

	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "127.0.0.1:0",
			"-datasets", root,
			"-prewarm", "all",
		}, &out)
	}()

	addrRe := regexp.MustCompile(`listening on (http://[^/\s]+)/jobs`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before announcing its address: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address announced:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "prewarmed dataset demo:") {
		t.Errorf("prewarm not logged:\n%s", out.String())
	}

	r, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Pool struct {
			Resident int `json:"resident"`
			Misses   int `json:"misses"`
			Datasets []struct {
				Name string `json:"name"`
				Rows int    `json:"rows"`
			} `json:"datasets"`
		} `json:"pool"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Pool.Resident != 1 || len(st.Pool.Datasets) != 1 ||
		st.Pool.Datasets[0].Name != "demo" || st.Pool.Datasets[0].Rows == 0 {
		t.Errorf("pool stats after prewarm: %+v", st.Pool)
	}
	if st.Pool.Misses != 1 {
		t.Errorf("prewarm counted %d pool misses, want 1", st.Pool.Misses)
	}

	serveShutdown <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("serve mode exited with error: %v", err)
	}
}

// TestServePrewarmRejectsUnknown pins the failure mode: naming a dataset
// that is not snapshot-backed aborts the boot with a clear error.
func TestServePrewarmRejectsUnknown(t *testing.T) {
	root := t.TempDir()
	var out syncWriter
	err := run([]string{
		"-serve", "127.0.0.1:0",
		"-datasets", root,
		"-prewarm", "nosuch",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("prewarm of a missing dataset: err = %v", err)
	}
}
