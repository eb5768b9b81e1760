package main

import (
	"strings"
	"testing"

	"dbre/internal/fd"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// TestEExperimentsPass runs every exact-reproduction experiment through the
// harness entry points; each errors out when its artifact diverges from
// the paper.
func TestEExperimentsPass(t *testing.T) {
	for _, e := range registry() {
		if !strings.HasPrefix(e.id, "E") {
			continue
		}
		var out strings.Builder
		if err := e.run(&out); err != nil {
			t.Errorf("%s: %v\n%s", e.id, err, out.String())
		}
		if !strings.Contains(out.String(), "[PASS]") {
			t.Errorf("%s produced no PASS verdict", e.id)
		}
	}
}

// TestQuantitativeExperimentsSmoke runs the cheap quantitative experiments
// end to end (the expensive sweeps are exercised by `go test -bench`).
func TestQuantitativeExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quantitative sweeps in short mode")
	}
	for _, e := range registry() {
		switch e.id {
		case "B3", "B5", "B8", "A1", "A3":
			var out strings.Builder
			if err := e.run(&out); err != nil {
				t.Errorf("%s: %v", e.id, err)
			}
			if out.Len() == 0 {
				t.Errorf("%s produced no output", e.id)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	var out strings.Builder
	if err := compare(&out, "x", []string{"b", "a"}, []string{"a", "b"}); err != nil {
		t.Errorf("order-insensitive compare failed: %v", err)
	}
	if err := compare(&out, "x", []string{"a"}, []string{"b"}); err == nil {
		t.Error("mismatch not detected")
	}
	if err := compare(&out, "x", []string{"a"}, []string{"a", "b"}); err == nil {
		t.Error("length mismatch not detected")
	}
	if !strings.Contains(out.String(), "[FAIL]") || !strings.Contains(out.String(), "expected:") {
		t.Errorf("FAIL rendering wrong: %s", out.String())
	}
}

func TestPrintTable(t *testing.T) {
	var out strings.Builder
	printTable(&out, []string{"col", "c2"}, [][]string{{"a", "bbbb"}, {"cc", "d"}})
	text := out.String()
	if !strings.Contains(text, "col  c2") || !strings.Contains(text, "---") {
		t.Errorf("table rendering: %q", text)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range registry() {
		if ids[e.id] {
			t.Errorf("duplicate experiment id %s", e.id)
		}
		ids[e.id] = true
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.id)
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7",
		"B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B11", "A1", "A2", "A3"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

// fdDatabase builds R(a,b,c) from integer rows (−1 means NULL).
func fdDatabase(rows [][3]int64) *table.Database {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	for _, r := range rows {
		row := make(table.Row, 3)
		for i, v := range r {
			row[i] = value.NewInt(v)
			if v == -1 {
				row[i] = value.Null
			}
		}
		db.MustTable("R").MustInsert(row)
	}
	return db
}

// TestCheckNaiveAgreesWithCheck: B3's quadratic baseline agrees with
// fd.CheckStats on holds/fails and the row count across data shapes.
func TestCheckNaiveAgreesWithCheck(t *testing.T) {
	cases := [][][3]int64{
		{{1, 10, 0}, {1, 10, 1}, {2, 20, 2}}, // holds
		{{1, 10, 0}, {1, 30, 1}},             // fails
		{{-1, 10, 0}, {1, 10, 1}},            // NULL LHS skipped
		{{1, -1, 0}, {1, -1, 1}},             // NULL RHS equal
		{{1, -1, 0}, {1, 10, 1}},             // NULL vs value fails
		{},                                   // empty
	}
	for i, rows := range cases {
		db := fdDatabase(rows)
		a, err := fd.CheckStats(stats.NewCache(db), "R", []string{"a"}, "b")
		if err != nil {
			t.Fatal(err)
		}
		b, err := checkNaive(db.MustTable("R"), []string{"a"}, "b")
		if err != nil {
			t.Fatal(err)
		}
		if a.Holds() != b.Holds() || a.Rows != b.Rows {
			t.Errorf("case %d: CheckStats=%+v checkNaive=%+v", i, a, b)
		}
	}
	// Errors propagate.
	tab := fdDatabase(nil).MustTable("R")
	if _, err := checkNaive(tab, []string{"zz"}, "b"); err == nil {
		t.Error("unknown LHS accepted")
	}
	if _, err := checkNaive(tab, []string{"a"}, "zz"); err == nil {
		t.Error("unknown RHS accepted")
	}
}
