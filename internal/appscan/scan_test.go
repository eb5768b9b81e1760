package appscan

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbre/internal/sql/ast"
)

func TestDetectLanguage(t *testing.T) {
	cases := []struct {
		name, content string
		want          Language
	}{
		{"report.sql", "", LangSQL},
		{"payroll.cob", "", LangCOBOL},
		{"payroll.CBL", "", LangCOBOL},
		{"app.c", "", LangC},
		{"app.pc", "", LangC},
		{"x.dat", "IDENTIFICATION DIVISION.", LangCOBOL},
		{"x.dat", "#include <stdio.h>", LangC},
		{"x.dat", "SELECT a FROM t", LangSQL},
		{"x.dat", "nothing here", LangUnknown},
	}
	for _, c := range cases {
		if got := DetectLanguage(c.name, c.content); got != c.want {
			t.Errorf("DetectLanguage(%q) = %v, want %v", c.name, got, c.want)
		}
	}
	for l, want := range map[Language]string{LangSQL: "SQL", LangCOBOL: "COBOL", LangC: "C", LangUnknown: "unknown"} {
		if l.String() != want {
			t.Errorf("String(%d) = %q", l, l.String())
		}
	}
}

func TestScanSQLSource(t *testing.T) {
	src := `
-- monthly report
SELECT p.name FROM Person p, HEmployee h WHERE h.no = p.id;
INSERT INTO Log VALUES (1);
BOGUS garbage;
SELECT 1 FROM Dual;
`
	var rep Report
	sn := ScanSource("report.sql", src, &rep)
	if len(sn) != 3 {
		t.Fatalf("snippets = %d: %v", len(sn), rep)
	}
	if rep.ParseFailures != 0 { // BOGUS filtered by looksLikeSQL, never tried
		t.Errorf("failures = %d", rep.ParseFailures)
	}
	// The leading comment stays attached to the piece, so the reported
	// line is the comment's (2); the statement itself is on line 3.
	if sn[0].Line != 2 {
		t.Errorf("line = %d, want 2", sn[0].Line)
	}
}

func TestScanCOBOLSource(t *testing.T) {
	src := `000100 IDENTIFICATION DIVISION.
000200 PROGRAM-ID. PAYROLL.
000300* THIS COMMENT MENTIONS EXEC SQL BUT IS DEAD END-EXEC
000400 PROCEDURE DIVISION.
000500     EXEC SQL
000600         SELECT salary INTO :ws-sal
000700         FROM HEmployee, Person
000800         WHERE no = id AND no = :ws-no
000900     END-EXEC.
001000     EXEC SQL DECLARE C1 CURSOR FOR
001100         SELECT emp FROM Department WHERE dep = :ws-dep
001200     END-EXEC.
`
	var rep Report
	sn := ScanSource("payroll.cob", src, &rep)
	if len(sn) != 2 { // SELECT..INTO block and the cursor declaration
		t.Fatalf("snippets = %d, report %+v samples %v", len(sn), rep, rep.FailureSamples)
	}
	first := sn[0].Stmt.(*ast.Select)
	if len(first.From) != 2 {
		t.Errorf("INTO select = %v", first)
	}
	second := sn[1].Stmt.(*ast.Select)
	if second.From[0].Name != "Department" {
		t.Errorf("cursor select = %v", second)
	}
	if rep.ParseFailures != 0 {
		t.Errorf("failures = %d: %v", rep.ParseFailures, rep.FailureSamples)
	}
}

func TestScanCSource(t *testing.T) {
	src := `
#include <stdio.h>
/* a SQL-free comment with SELECT inside */
// SELECT also here
int main(void) {
	char q[] = "SELECT d.emp FROM Department d "
	           "WHERE d.dep = 42";
	exec_query(q);
	EXEC SQL SELECT proj FROM Assignment WHERE emp = :h AND dep = :g;
	char c = '"';
	printf("not sql %s\n", q);
	return 0;
}
`
	var rep Report
	sn := ScanSource("app.c", src, &rep)
	if len(sn) != 2 {
		t.Fatalf("snippets = %d (%+v, %v)", len(sn), rep, rep.FailureSamples)
	}
	first := sn[0].Stmt.(*ast.Select)
	if first.From[0].Name != "Department" {
		t.Errorf("concatenated string select = %v", first)
	}
	second := sn[1].Stmt.(*ast.Select)
	if second.From[0].Name != "Assignment" {
		t.Errorf("EXEC SQL select = %v", second)
	}
}

func TestStripCursorDecl(t *testing.T) {
	got := stripCursorDecl("DECLARE C1 CURSOR FOR SELECT a FROM t")
	if got != "SELECT a FROM t" {
		t.Errorf("got %q", got)
	}
	keep := "SELECT a FROM t"
	if stripCursorDecl(keep) != keep {
		t.Error("non-cursor text modified")
	}
	if stripCursorDecl("DECLARE x y z") != "DECLARE x y z" {
		t.Error("short declare modified")
	}
}

func TestLooksLikeSQL(t *testing.T) {
	yes := []string{"SELECT 1", "select a from b", "  INSERT INTO x VALUES (1)",
		"update t set a = 1", "DELETE FROM t", "CREATE TABLE t (a INT)",
		"-- note\nSELECT 1"}
	no := []string{"", "GRANT ALL", "int main", "-- only comment", "selection of"}
	for _, s := range yes {
		if !looksLikeSQL(s) {
			t.Errorf("looksLikeSQL(%q) = false", s)
		}
	}
	for _, s := range no {
		if looksLikeSQL(s) {
			t.Errorf("looksLikeSQL(%q) = true", s)
		}
	}
}

func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.sql":     "SELECT id FROM Person;",
		"b.cob":     "       EXEC SQL SELECT no FROM HEmployee END-EXEC.",
		"sub/c.c":   `char *q = "SELECT dep FROM Department";`,
		"ignore.go": "package main // SELECT nothing",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var rep Report
	sn, err := ScanDirCtx(context.Background(), dir, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sn) != 3 {
		t.Fatalf("snippets = %d", len(sn))
	}
	if rep.FilesScanned != 3 {
		t.Errorf("files scanned = %d", rep.FilesScanned)
	}
	// Deterministic order by file then line.
	if !strings.HasSuffix(sn[0].File, "a.sql") {
		t.Errorf("order = %v", []string{sn[0].File, sn[1].File, sn[2].File})
	}
}

func TestScanFileMissing(t *testing.T) {
	if _, err := ScanFileCtx(context.Background(), "/does/not/exist.sql", nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCStringEscapes(t *testing.T) {
	got := cStringLiterals(`x = "SELECT a FROM \"T\" WHERE b = 'x\n'";`)
	if len(got) != 1 {
		t.Fatalf("candidates = %v", got)
	}
	if !strings.Contains(got[0].text, `"T"`) || !strings.Contains(got[0].text, "\n") {
		t.Errorf("unescaped = %q", got[0].text)
	}
	// Unterminated string.
	got2 := cStringLiterals(`"SELECT unfinished`)
	if len(got2) != 1 {
		t.Errorf("unterminated = %v", got2)
	}
}

func TestFormatReport(t *testing.T) {
	r := &Report{FilesScanned: 2, StatementsFound: 3}
	if !strings.Contains(FormatReport(r), "files=2") {
		t.Errorf("FormatReport = %q", FormatReport(r))
	}
}

func TestReportFailureSamplesCapped(t *testing.T) {
	var r Report
	for i := 0; i < 10; i++ {
		r.addFailure(strings.Repeat("SELECT x y z bogus ", 10))
	}
	if len(r.FailureSamples) != 5 || r.ParseFailures != 10 {
		t.Errorf("samples=%d failures=%d", len(r.FailureSamples), r.ParseFailures)
	}
	if len(r.FailureSamples[0]) > 90 {
		t.Error("sample not truncated")
	}
}
