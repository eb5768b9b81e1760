// End-to-end tests of the job server over real HTTP (httptest): the
// submit → poll → report happy path, the acceptance criterion that a
// served run's report is byte-identical to the equivalent one-shot run,
// the expert dialogue answered over the API, cancellation of a running
// job, and the HTTP error contract.
package serve

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
	"testing"
	"time"

	"dbre/internal/core"
	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/sql/exec"
	"dbre/internal/storage"
)

// e2eSchema is a two-relation workload whose single equi-join is a
// textbook NEI: emp[dno] = {1,2,3} and dept[dno] = {2,3,4} overlap in
// {2,3} but neither includes the other, so IND-Discovery escalates
// exactly one question to the expert.
const e2eSchema = `
CREATE TABLE emp (
    eno   INTEGER PRIMARY KEY,
    dno   INTEGER,
    ename VARCHAR(20)
);
CREATE TABLE dept (
    dno   INTEGER PRIMARY KEY,
    dname VARCHAR(20)
);
INSERT INTO emp VALUES (1, 1, 'ann');
INSERT INTO emp VALUES (2, 2, 'bob');
INSERT INTO emp VALUES (3, 3, 'cid');
INSERT INTO dept VALUES (2, 'sales');
INSERT INTO dept VALUES (3, 'eng');
INSERT INTO dept VALUES (4, 'hr');
`

// e2eProgram carries the emp[dno] ⋈ dept[dno] equi-join into Q.
const e2eProgram = `
SELECT e.ename, d.dname
FROM emp e, dept d
WHERE e.dno = d.dno;
`

// fixedClock freezes job tracers so every rendered duration is 0s and
// the report becomes a pure function of the inputs and the answers.
func fixedClock() time.Time { return time.Unix(1700000000, 0) }

// startServer builds a Server on the config, wraps it in httptest, and
// tears both down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = fixedClock
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// api is a tiny typed client for the test assertions.
type api struct {
	t    *testing.T
	base string
}

// do performs one request and decodes the JSON body into out (when out
// is non-nil), returning the status code.
func (a *api) do(method, path string, body any, out any) int {
	a.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			a.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			a.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

// raw fetches a non-JSON artifact.
func (a *api) raw(path string) (int, string) {
	a.t.Helper()
	resp, err := http.Get(a.base + path)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// submit posts a spec and fails the test unless it is accepted.
func (a *api) submit(spec JobSpec) JobStatus {
	a.t.Helper()
	var st JobStatus
	if code := a.do("POST", "/jobs", spec, &st); code != http.StatusAccepted {
		a.t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.State == "" {
		a.t.Fatalf("submit: incomplete status %+v", st)
	}
	return st
}

// wait polls a job until pred holds or the deadline passes.
func (a *api) wait(id string, what string, pred func(JobStatus) bool) JobStatus {
	a.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		if code := a.do("GET", "/jobs/"+id, nil, &st); code != http.StatusOK {
			a.t.Fatalf("poll %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			a.t.Fatalf("job %s never reached %s; last %+v", id, what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (a *api) waitTerminal(id string) JobStatus {
	return a.wait(id, "a terminal state", func(st JobStatus) bool { return st.State.Terminal() })
}

// TestE2EHappyPath submits an auto-expert job over HTTP, polls it to
// completion, and fetches all three artifacts.
func TestE2EHappyPath(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}

	st := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
	})
	if !strings.HasPrefix(st.ID, "j0001-") {
		t.Errorf("job id = %q, want deterministic j0001-<digest>", st.ID)
	}

	final := c.waitTerminal(st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Progress == nil || !final.Progress.Finished {
		t.Errorf("done job progress = %+v, want finished", final.Progress)
	}

	code, report := c.raw("/jobs/" + st.ID + "/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	for _, want := range []string{"Equi-joins Q", "Inclusion dependencies", "EER schema", "Timings", "Trace"} {
		if !strings.Contains(report, want) {
			t.Errorf("report misses %q", want)
		}
	}

	code, trace := c.raw("/jobs/" + st.ID + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(trace), &decoded); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}

	code, dot := c.raw("/jobs/" + st.ID + "/eer")
	if code != http.StatusOK || !strings.Contains(dot, "digraph") {
		t.Errorf("eer: status %d, body %q", code, dot)
	}

	// The job shows up in the listing.
	var list []JobStatus
	if code := c.do("GET", "/jobs", nil, &list); code != http.StatusOK || len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list: status %d, %+v", code, list)
	}
}

// TestE2EExplicitZeroParallelismIsSerial: an explicit "parallelism": 0
// is admitted under a MaxParallelism of 1, and the job it submits runs
// its counting phases on one worker, as the field documents, instead of
// stats.ForEach's GOMAXPROCS, which would escape the limit.
func TestE2EExplicitZeroParallelismIsSerial(t *testing.T) {
	body := []byte(`{"schema_sql": ` + jsonString(e2eSchema) + `, "programs": {"query.sql": ` + jsonString(e2eProgram) + `}, "parallelism": 0}`)
	spec, err := DecodeJobSpec(body, Limits{MaxParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Parallelism != 0 {
		t.Fatalf("decoded Parallelism = %d, want the explicit 0", spec.Parallelism)
	}

	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}
	var st JobStatus
	if code := c.do("POST", "/jobs", json.RawMessage(body), &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if final := c.waitTerminal(st.ID); final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	code, raw := c.raw("/jobs/" + st.ID + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	tr, err := obs.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, phase := range tr.Root.Children {
		for _, sp := range phase.Children {
			if sp.Name == "count" || sp.Name == "check" {
				seen++
				if w := sp.Attrs["workers"]; w != "1" {
					t.Errorf("%s/%s ran on %s workers, want 1", phase.Name, sp.Name, w)
				}
			}
		}
	}
	if seen != 2 {
		t.Fatalf("trace has %d count/check spans, want 2", seen)
	}
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestE2ESnapshotDataset boots a job warm from a snapshot-backed named
// dataset and checks its report is byte-identical to the same job run
// from the inline DDL — the snapshot replaces both schema_sql and the
// CSV extension. Also pins the admission rules around snapshot datasets.
func TestE2ESnapshotDataset(t *testing.T) {
	root := t.TempDir()
	db, errs := exec.LoadScript(e2eSchema)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if err := storage.Snapshot(db, filepath.Join(root, "warm")); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Config{DatasetRoot: root})
	c := &api{t: t, base: ts.URL}

	warm := c.submit(JobSpec{
		Dataset:  "warm",
		Programs: map[string]string{"query.sql": e2eProgram},
	})
	cold := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
	})
	if st := c.waitTerminal(warm.ID); st.State != StateDone {
		t.Fatalf("warm job finished %s (%s), want done", st.State, st.Error)
	}
	if st := c.waitTerminal(cold.ID); st.State != StateDone {
		t.Fatalf("cold job finished %s (%s), want done", st.State, st.Error)
	}
	codeW, repWarm := c.raw("/jobs/" + warm.ID + "/report")
	codeC, repCold := c.raw("/jobs/" + cold.ID + "/report")
	if codeW != http.StatusOK || codeC != http.StatusOK {
		t.Fatalf("report statuses %d / %d", codeW, codeC)
	}
	// Every discovery artifact must be byte-identical; only the Trace
	// section differs, by exactly the warm boot's open-snapshot span.
	cut := func(s string) string {
		if i := strings.Index(s, "\nTrace\n"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if cut(repWarm) != cut(repCold) {
		t.Errorf("warm-boot report diverges from inline run:\nwarm:\n%s\ncold:\n%s", repWarm, repCold)
	}
	// With the resident pool the snapshot opens once, under the server
	// tracer, so no job trace carries an open-snapshot span.
	if strings.Contains(repWarm, "open-snapshot") {
		t.Error("pooled warm run's trace carries the open-snapshot span; the open belongs to the pool")
	}
	if strings.Contains(repCold, "open-snapshot") {
		t.Error("cold run's trace has an open-snapshot span")
	}

	// A snapshot dataset carries its own schema: submitting schema_sql
	// alongside it must fail the job with a clear message.
	both := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Dataset:   "warm",
	})
	if st := c.waitTerminal(both.ID); st.State != StateFailed || !strings.Contains(st.Error, "snapshot-backed") {
		t.Errorf("schema_sql + snapshot dataset: %s (%q), want failed/snapshot-backed", st.State, st.Error)
	}
	// And a schema-less submission against a non-snapshot dataset fails.
	if err := os.MkdirAll(filepath.Join(root, "csvonly"), 0o755); err != nil {
		t.Fatal(err)
	}
	noSchema := c.submit(JobSpec{Dataset: "csvonly"})
	if st := c.waitTerminal(noSchema.ID); st.State != StateFailed || !strings.Contains(st.Error, "schema_sql is required") {
		t.Errorf("schema-less CSV dataset: %s (%q), want failed/schema_sql required", st.State, st.Error)
	}
}

// TestE2EOracleOverAPIMatchesOneShot is the acceptance criterion: a
// served session — submit with the api expert, answer the one NEI
// question over HTTP, fetch the report — must produce a report
// byte-identical to the equivalent one-shot core.RunContext call with
// the same answer scripted. Both sides run under the same frozen clock,
// so every timing renders 0s and the comparison is exact.
func TestE2EOracleOverAPIMatchesOneShot(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}

	st := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
		Expert:    ExpertAPI,
		Ask:       []string{KindNEI},
	})

	// The run blocks on its single NEI question.
	c.wait(st.ID, "a pending question", func(s JobStatus) bool { return s.PendingQuestions == 1 })
	var questions []Question
	if code := c.do("GET", "/jobs/"+st.ID+"/questions", nil, &questions); code != http.StatusOK {
		t.Fatalf("questions: status %d", code)
	}
	if len(questions) != 1 {
		t.Fatalf("questions = %+v, want exactly one", questions)
	}
	q := questions[0]
	if q.Kind != KindNEI || q.State != questionPending || len(q.Choices) != 4 {
		t.Fatalf("question = %+v", q)
	}
	if q.Subject != "dept[dno] |><| emp[dno]" {
		t.Errorf("subject = %q", q.Subject)
	}
	if q.Detail["nk"] != "3" || q.Detail["nl"] != "3" || q.Detail["nkl"] != "2" {
		t.Errorf("detail = %v, want nk=3 nl=3 nkl=2", q.Detail)
	}

	answer := Answer{Action: "new-relation", Name: "Workforce"}
	if code := c.do("POST", "/jobs/"+st.ID+"/questions/"+q.ID, answer, nil); code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}

	final := c.waitTerminal(st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.PendingQuestions != 0 {
		t.Errorf("pending questions = %d after completion", final.PendingQuestions)
	}
	code, served := c.raw("/jobs/" + st.ID + "/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if !strings.Contains(served, "Workforce") {
		t.Errorf("served report misses the answered relation name")
	}

	// The equivalent one-shot run: same loader, same pipeline entry
	// point, same frozen clock, the API answer scripted instead.
	db, errs := exec.LoadScript(e2eSchema)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	tr := obs.NewTracerClock("dbre", fixedClock)
	ctx := obs.NewContext(context.Background(), tr)
	sc := expert.NewScripted()
	join := deps.NewEquiJoin(deps.NewSide("emp", "dno"), deps.NewSide("dept", "dno"))
	sc.NEI[join.Key()] = expert.NEIDecision{Action: expert.NEINewRelation, Name: "Workforce"}
	sc.Default = expert.NewAuto()
	// The submission omitted parallelism, so the server applied its
	// default; the one-shot mirror must run at the same fan-out for the
	// traces to line up (the discovery artifacts are identical either way).
	rep, err := core.RunContext(ctx, db, map[string]string{"query.sql": e2eProgram},
		core.Options{Oracle: sc, TransitiveClosure: true, Parallelism: defaultParallelism(Limits{})})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	oneShot := rep.Text()

	if served != oneShot {
		t.Fatalf("served report differs from the one-shot run:\n--- served ---\n%s\n--- one-shot ---\n%s", served, oneShot)
	}

	// The resolved question is echoed in the log.
	if code := c.do("GET", "/jobs/"+st.ID+"/questions", nil, &questions); code != http.StatusOK {
		t.Fatal("questions after completion")
	}
	if questions[0].State != questionAnswered || questions[0].Answer == nil ||
		questions[0].Answer.Action != "new-relation" {
		t.Errorf("resolved question = %+v", questions[0])
	}
}

// TestE2ECancelRunningJob checks the cancellation acceptance criterion:
// DELETE on a job blocked mid-run (on an expert question, the worst
// case) reaches the cancelled state within 2 seconds and frees its
// worker slot for the next job.
func TestE2ECancelRunningJob(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	c := &api{t: t, base: ts.URL}

	blocked := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
		Expert:    ExpertAPI, // no auto-answer: the job parks on its question
	})
	c.wait(blocked.ID, "a pending question", func(s JobStatus) bool { return s.PendingQuestions > 0 })

	start := time.Now()
	var st JobStatus
	if code := c.do("DELETE", "/jobs/"+blocked.ID, nil, &st); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}
	final := c.waitTerminal(blocked.ID)
	if got := time.Since(start); got > 2*time.Second {
		t.Errorf("cancellation took %v, want under 2s", got)
	}
	if final.State != StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", final.State, final.Error)
	}

	// The single worker is free again: a fresh auto job completes.
	next := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
	})
	if got := c.waitTerminal(next.ID); got.State != StateDone {
		t.Fatalf("post-cancel job finished %s (%s), want done", got.State, got.Error)
	}

	// Artifacts of the cancelled job answer 409 with its fate.
	if code, _ := c.raw("/jobs/" + blocked.ID + "/report"); code != http.StatusConflict {
		t.Errorf("report of cancelled job: status %d, want 409", code)
	}
}

// TestE2EErrorContract pins the HTTP status codes of every failure mode
// a client can provoke.
func TestE2EErrorContract(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	c := &api{t: t, base: ts.URL}

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode
	}

	// 400: malformed and invalid submissions.
	for name, body := range map[string]string{
		"not json":       "{",
		"unknown field":  `{"schema_sql": "CREATE TABLE t (a INTEGER);", "bogus": 1}`,
		"trailing data":  `{"schema_sql": "CREATE TABLE t (a INTEGER);"} extra`,
		"missing schema": `{"programs": {"p": "SELECT 1;"}}`,
		"path traversal": `{"schema_sql": "CREATE TABLE t (a INTEGER);", "dataset": "../../etc"}`,
		"dotted csv":     `{"schema_sql": "CREATE TABLE t (a INTEGER);", "csv": {".hidden": "a\n1\n"}}`,
		"bad expert":     `{"schema_sql": "CREATE TABLE t (a INTEGER);", "expert": "psychic"}`,
		"bad kind":       `{"schema_sql": "CREATE TABLE t (a INTEGER);", "expert": "api", "ask": ["tarot"]}`,
		"bad rate":       `{"schema_sql": "CREATE TABLE t (a INTEGER);", "inclusion_slack": 1.5}`,
		"no dataset dir": `{"schema_sql": "CREATE TABLE t (a INTEGER);", "dataset": "demo"}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}

	// 404: unknown job, every route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/report", "/jobs/nope/trace", "/jobs/nope/eer", "/jobs/nope/questions"} {
		if code := c.do("GET", path, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	if code := c.do("DELETE", "/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown: status %d, want 404", code)
	}

	// A finished job: 409 on cancel, 404 on unknown question, 409 on
	// re-answering a resolved one.
	st := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
		Expert:    ExpertAPI,
		Ask:       []string{KindNEI},
	})
	c.wait(st.ID, "a pending question", func(s JobStatus) bool { return s.PendingQuestions == 1 })

	// 409: artifact of an unfinished job.
	if code, _ := c.raw("/jobs/" + st.ID + "/report"); code != http.StatusConflict {
		t.Errorf("report of running job: status %d, want 409", code)
	}
	// 400: answer that does not fit the question.
	if code := c.do("POST", "/jobs/"+st.ID+"/questions/q1", Answer{Action: "abdicate"}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid answer: status %d, want 400", code)
	}
	// 404: unknown question.
	if code := c.do("POST", "/jobs/"+st.ID+"/questions/q99", Answer{Action: "ignore"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown question: status %d, want 404", code)
	}
	if code := c.do("POST", "/jobs/"+st.ID+"/questions/q1", Answer{Action: "ignore"}, nil); code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}
	// 409: answering twice.
	if code := c.do("POST", "/jobs/"+st.ID+"/questions/q1", Answer{Action: "ignore"}, nil); code != http.StatusConflict {
		t.Errorf("double answer: status %d, want 409", code)
	}
	if got := c.waitTerminal(st.ID); got.State != StateDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}
	// 409: cancelling a finished job.
	if code := c.do("DELETE", "/jobs/"+st.ID, nil, nil); code != http.StatusConflict {
		t.Errorf("cancel finished: status %d, want 409", code)
	}
}

// TestE2EBodyLimit pins 413 for oversized submissions.
func TestE2EBodyLimit(t *testing.T) {
	_, ts := startServer(t, Config{MaxBodyBytes: 512})
	body, _ := json.Marshal(JobSpec{SchemaSQL: "CREATE TABLE t (a INTEGER);" + strings.Repeat("-- pad\n", 200)})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestE2EMemoryCeiling checks the per-job memory ceiling: a spec whose
// loaded extension exceeds its own max_bytes fails with a footprint
// error instead of running discovery.
func TestE2EMemoryCeiling(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}
	st := c.submit(JobSpec{
		SchemaSQL: e2eSchema,
		Programs:  map[string]string{"query.sql": e2eProgram},
		MaxBytes:  1, // nothing fits in one byte
	})
	final := c.waitTerminal(st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "ceiling") {
		t.Fatalf("job = %s (%q), want failed with a ceiling error", final.State, final.Error)
	}
}

// TestE2EAutoAnswerFallback checks the configurable fallback: with a
// deadline set, an unattended question resolves with its default and
// the job completes as if the auto expert had run.
func TestE2EAutoAnswerFallback(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}
	st := c.submit(JobSpec{
		SchemaSQL:         e2eSchema,
		Programs:          map[string]string{"query.sql": e2eProgram},
		Expert:            ExpertAPI,
		Ask:               []string{KindNEI},
		AutoAnswerAfterMS: 50,
	})
	final := c.waitTerminal(st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	var questions []Question
	if code := c.do("GET", "/jobs/"+st.ID+"/questions", nil, &questions); code != http.StatusOK || len(questions) != 1 {
		t.Fatalf("questions: %+v", questions)
	}
	if questions[0].State != questionAuto || questions[0].Answer == nil {
		t.Errorf("question = %+v, want auto-answered with the default echoed", questions[0])
	}
	if fmt.Sprintf("%s", questions[0].Answer.Action) != questions[0].Default.Action {
		t.Errorf("auto answer %+v differs from default %+v", questions[0].Answer, questions[0].Default)
	}
}
