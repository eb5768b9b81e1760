// End-to-end tests of the incremental job path: submit with
// "incremental": true, append rows over the API, and check that the
// re-validated artifacts match a direct warm run on the same inputs —
// and that the epoch surfaces and advances with every commit.
package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/sql/exec"
	"dbre/internal/table"
)

// appendCSV adds a fourth employee with a fresh dno: dno founds a new
// group, so every previously-clean emp FD stays provably clean from the
// delta alone.
const appendCSV = "eno,dno,ename\n4,6,dan\n"

// growDeptCSV grows dept with a fresh dno, moving the emp⋈dept join's
// evidence so the re-validation has to re-count it.
const growDeptCSV = "dno,dname\n5,ops\n"

// loadCSVInto appends CSV rows to one relation directly, mirroring what
// the append endpoint does server-side.
func loadCSVInto(t *testing.T, db *table.Database, rel, csv string) {
	t.Helper()
	if _, err := csvio.LoadCtx(context.Background(), db.MustTable(rel), strings.NewReader(csv), false, csvio.Options{}); err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
}

func TestE2EIncrementalAppend(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}

	st := c.submit(JobSpec{
		SchemaSQL:   e2eSchema,
		Programs:    map[string]string{"query.sql": e2eProgram},
		Incremental: true,
	})
	final := c.waitTerminal(st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if !final.Incremental || final.Epoch == 0 {
		t.Fatalf("status = %+v, want incremental with a non-zero epoch", final)
	}

	// Discovery-only artifacts: a report without restructuring or EER,
	// and no EER endpoint content.
	code, report := c.raw("/jobs/" + st.ID + "/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if !strings.Contains(report, "Inclusion dependencies") {
		t.Errorf("report misses discovery sections:\n%s", report)
	}
	if strings.Contains(report, "EER schema") || strings.Contains(report, "Restructured schema") {
		t.Errorf("incremental report contains restructuring sections:\n%s", report)
	}
	if code, _ := c.raw("/jobs/" + st.ID + "/eer"); code != http.StatusNotFound {
		t.Errorf("eer of a discovery-only job: status %d, want 404", code)
	}

	// Append one clean row and re-validate synchronously.
	var ap AppendStatus
	if code := c.do("POST", "/jobs/"+st.ID+"/append",
		AppendRequest{Relation: "emp", CSV: appendCSV}, &ap); code != http.StatusOK {
		t.Fatalf("append: status %d (%+v)", code, ap)
	}
	if ap.AppendedRows != 1 || ap.Epoch <= final.Epoch {
		t.Errorf("append = %+v, want 1 row and an advanced epoch", ap)
	}
	if ap.FD.Reused+ap.FD.DeltaChecked == 0 {
		t.Errorf("no FD reuse on a clean delta: %+v", ap)
	}
	after := c.wait(st.ID, "epoch advance", func(s JobStatus) bool { return s.Epoch == ap.Epoch })
	if after.State != StateDone {
		t.Errorf("job left done after append: %+v", after)
	}

	// A second append over the other relation keeps the epoch monotone.
	var ap2 AppendStatus
	if code := c.do("POST", "/jobs/"+st.ID+"/append",
		AppendRequest{Relation: "dept", CSV: growDeptCSV}, &ap2); code != http.StatusOK {
		t.Fatalf("second append: status %d", code)
	}
	if ap2.Epoch <= ap.Epoch {
		t.Errorf("epoch did not advance: %d then %d", ap.Epoch, ap2.Epoch)
	}

	// The served report equals a direct warm run over the same inputs
	// (same clock, so timings render identically). Only the Trace section
	// is excluded: the server starts a fresh tracer per append, while the
	// direct run accumulates one across the whole sequence.
	_, finalReport := c.raw("/jobs/" + st.ID + "/report")
	db, errs := exec.LoadScript(e2eSchema)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	ctx := obs.NewContext(context.Background(), obs.NewTracerClock("dbre", fixedClock))
	inc, err := core.DiscoverIncrementalPrograms(ctx, db,
		map[string]string{"query.sql": e2eProgram}, core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	loadCSVInto(t, db, "emp", appendCSV)
	if _, err := inc.Revalidate(ctx); err != nil {
		t.Fatal(err)
	}
	loadCSVInto(t, db, "dept", growDeptCSV)
	if _, err := inc.Revalidate(ctx); err != nil {
		t.Fatal(err)
	}
	trimTrace := func(s string) string {
		if i := strings.Index(s, "\nTrace\n"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if got, want := trimTrace(finalReport), trimTrace(inc.Report().Text()); got != want {
		t.Errorf("served incremental report diverges from direct run:\n--- served\n%s\n--- direct\n%s", got, want)
	}
}

func TestE2EAppendErrorContract(t *testing.T) {
	_, ts := startServer(t, Config{})
	c := &api{t: t, base: ts.URL}

	// Appending to a non-incremental job is a conflict.
	plain := c.submit(JobSpec{SchemaSQL: e2eSchema})
	c.waitTerminal(plain.ID)
	if code := c.do("POST", "/jobs/"+plain.ID+"/append",
		AppendRequest{Relation: "emp", CSV: appendCSV}, nil); code != http.StatusConflict {
		t.Errorf("append to non-incremental job: status %d, want 409", code)
	}

	job := c.submit(JobSpec{SchemaSQL: e2eSchema, Incremental: true})
	if st := c.waitTerminal(job.ID); st.State != StateDone {
		t.Fatalf("incremental job finished %s", st.State)
	}
	// Unknown relation, missing CSV, malformed body, unknown job.
	if code := c.do("POST", "/jobs/"+job.ID+"/append",
		AppendRequest{Relation: "nowhere", CSV: appendCSV}, nil); code != http.StatusNotFound {
		t.Errorf("unknown relation: status %d, want 404", code)
	}
	if code := c.do("POST", "/jobs/"+job.ID+"/append",
		AppendRequest{Relation: "emp"}, nil); code != http.StatusBadRequest {
		t.Errorf("missing csv: status %d, want 400", code)
	}
	if code := c.do("POST", "/jobs/"+job.ID+"/append",
		map[string]any{"relation": "emp", "csv": appendCSV, "bogus": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	if code := c.do("POST", "/jobs/zzzz/append",
		AppendRequest{Relation: "emp", CSV: appendCSV}, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	// A bad header (unknown column) is a load error, reported as 400.
	if code := c.do("POST", "/jobs/"+job.ID+"/append",
		AppendRequest{Relation: "emp", CSV: "bogus\n1\n"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad csv header: status %d, want 400", code)
	}
}
