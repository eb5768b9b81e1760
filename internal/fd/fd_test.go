package fd

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// build makes a table R(a,b,c) with the given integer rows (−1 means NULL).
func build(t *testing.T, rows [][3]int64) *table.Table {
	return buildDB(t, rows).MustTable("R")
}

// buildDB is build inside a one-relation database, for CheckStats.
func buildDB(t *testing.T, rows [][3]int64) *table.Database {
	t.Helper()
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	for _, r := range rows {
		row := make(table.Row, 3)
		for i, v := range r {
			if v == -1 {
				row[i] = value.Null
			} else {
				row[i] = value.NewInt(v)
			}
		}
		tab.MustInsert(row)
	}
	return db
}

// checkR runs CheckStats on relation R of db through a fresh cache.
func checkR(db *table.Database, lhs []string, rhs string) (expert.FDSupport, error) {
	return CheckStats(stats.NewCache(db), "R", lhs, rhs)
}

func TestCheckHolds(t *testing.T) {
	db := buildDB(t, [][3]int64{{1, 10, 0}, {1, 10, 1}, {2, 20, 2}})
	s, err := checkR(db, []string{"a"}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds() || s.Rows != 3 {
		t.Errorf("support = %+v", s)
	}
	s, err = checkR(db, []string{"a"}, "b")
	if err != nil || !s.Holds() {
		t.Errorf("Holds = %v, %v", s.Holds(), err)
	}
}

func TestCheckViolations(t *testing.T) {
	// a=1 maps to b∈{10,10,30}: one violating tuple.
	db := buildDB(t, [][3]int64{{1, 10, 0}, {1, 10, 1}, {1, 30, 2}, {2, 20, 3}})
	s, err := checkR(db, []string{"a"}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if s.Holds() || s.Violations != 1 || s.Rows != 4 {
		t.Errorf("support = %+v", s)
	}
}

func TestCheckNullHandling(t *testing.T) {
	// NULL LHS rows skipped; NULL RHS is a value.
	db := buildDB(t, [][3]int64{{-1, 10, 0}, {1, -1, 1}, {1, -1, 2}})
	s, err := checkR(db, []string{"a"}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 2 || !s.Holds() {
		t.Errorf("support = %+v", s)
	}
	// Mixed NULL / value in RHS violates.
	db2 := buildDB(t, [][3]int64{{1, -1, 0}, {1, 10, 1}})
	s2, _ := checkR(db2, []string{"a"}, "b")
	if s2.Holds() {
		t.Error("NULL vs 10 not a violation")
	}
}

func TestCheckComposite(t *testing.T) {
	db := buildDB(t, [][3]int64{{1, 10, 5}, {1, 20, 6}, {1, 10, 5}})
	s, err := checkR(db, []string{"a", "b"}, "c")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds() {
		t.Errorf("composite FD should hold: %+v", s)
	}
}

func TestCheckErrors(t *testing.T) {
	db := buildDB(t, nil)
	if _, err := checkR(db, []string{"zz"}, "b"); err == nil {
		t.Error("unknown LHS accepted")
	}
	if _, err := checkR(db, []string{"a"}, "zz"); err == nil {
		t.Error("unknown RHS accepted")
	}
}

// TestBaselinePartitionCases runs the TANE baseline's partition cases:
// a dependency holds iff refining π_X by its right-hand side keeps the
// group count, with NULL a regular value on either side.
func TestBaselinePartitionCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][3]int64
		want string
	}{
		// π_a = {0,1}{2,3}{4}: b splits {0,1}, c splits both groups.
		{"refine", [][3]int64{{1, 10, 0}, {1, 20, 1}, {2, 30, 2}, {2, 30, 3}, {3, 40, 4}},
			"[R: b -> a R: c -> a R: c -> b]"},
		// NULL in the left-hand side groups like a value: a → b holds
		// with both NULL rows agreeing on b, and fails once they differ.
		{"null-lhs-agrees", [][3]int64{{-1, 10, 0}, {-1, 10, 1}, {2, 20, 2}}, "[R: a -> b R: b -> a R: c -> a R: c -> b]"},
		{"null-lhs-differs", [][3]int64{{-1, 10, 0}, {-1, 20, 1}, {2, 20, 2}}, "[R: c -> a R: c -> b]"},
		// NULL in the right-hand side is one value: {NULL, NULL} agree,
		// {NULL, 10} do not.
		{"null-rhs", [][3]int64{{1, -1, 0}, {1, -1, 1}, {2, -1, 2}, {2, 10, 3}}, "[R: c -> a R: c -> b]"},
		{"empty", nil, "[R: a -> b R: a -> c R: b -> a R: b -> c R: c -> a R: c -> b]"},
	} {
		res, err := DiscoverBaseline(build(t, tc.rows), BaselineOptions{MaxLHS: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.FDs); got != tc.want {
			t.Errorf("%s: FDs %s, want %s", tc.name, got, tc.want)
		}
		if res.CandidatesTested+res.CandidatesPruned != 6 {
			t.Errorf("%s: %d tested + %d pruned, want 6 candidates", tc.name, res.CandidatesTested, res.CandidatesPruned)
		}
	}
}

func TestDiscoverRHSBasics(t *testing.T) {
	// R(a,b,c), key {c}: candidate a with T = {b}; a → b holds.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindInt},
	}, relation.NewAttrSet("c"))
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(10), value.NewInt(100)})
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(10), value.NewInt(101)})
	tab.MustInsert(table.Row{value.NewInt(2), value.NewInt(20), value.NewInt(102)})

	res, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{relation.NewRef("R", "a")}, nil, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 1 || res.FDs[0].String() != "R: a -> b" {
		t.Fatalf("FDs = %v", res.FDs)
	}
	if len(res.Hidden) != 0 {
		t.Errorf("H = %v", res.Hidden)
	}
	if res.ExtensionChecks != 1 {
		t.Errorf("checks = %d", res.ExtensionChecks)
	}
	if len(res.Traces) != 1 || res.Traces[0].Outcome != "fd" {
		t.Errorf("traces = %v", res.Traces)
	}
}

func TestDiscoverRHSNotNullPruning(t *testing.T) {
	// Candidate a (nullable): NOT NULL attribute nn must leave T.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "nn", Type: value.KindInt, NotNull: true},
		{Name: "k", Type: value.KindInt},
	}, relation.NewAttrSet("k"))
	db := table.NewDatabase(relation.MustCatalog(s))
	db.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(1), value.NewInt(1), value.NewInt(1)})
	res, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{relation.NewRef("R", "a")}, nil, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Traces[0].Pruned.Equal(relation.NewAttrSet("b")) {
		t.Errorf("T = %v, want {b}", res.Traces[0].Pruned)
	}
	// A not-null candidate keeps not-null attributes in T.
	s2 := relation.MustSchema("R2", []relation.Attribute{
		{Name: "a", Type: value.KindInt, NotNull: true},
		{Name: "b", Type: value.KindInt},
		{Name: "nn", Type: value.KindInt, NotNull: true},
		{Name: "k", Type: value.KindInt},
	}, relation.NewAttrSet("k"))
	db2 := table.NewDatabase(relation.MustCatalog(s2))
	db2.MustTable("R2").MustInsert(table.Row{value.NewInt(1), value.NewInt(1), value.NewInt(1), value.NewInt(1)})
	res2, err := DiscoverRHSCtx(context.Background(), db2, []relation.Ref{relation.NewRef("R2", "a")}, nil, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Traces[0].Pruned.Equal(relation.NewAttrSet("b", "nn")) {
		t.Errorf("T = %v, want {b, nn}", res2.Traces[0].Pruned)
	}
}

func TestDiscoverRHSHiddenObject(t *testing.T) {
	// Candidate with empty accepted RHS: expert decides.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(20)})

	ref := relation.NewRef("R", "a")
	sc := expert.NewScripted()
	sc.Hidden[ref.Key()] = true
	res, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{ref}, nil, sc, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hidden) != 1 || res.Hidden[0].Compare(ref) != 0 {
		t.Errorf("H = %v", res.Hidden)
	}
	if res.Traces[0].Outcome != "hidden-object" {
		t.Errorf("trace = %v", res.Traces[0])
	}
	// Refusing keeps it out.
	res2, _ := DiscoverRHSCtx(context.Background(), db, []relation.Ref{ref}, nil, expert.Deny{}, Opts{})
	if len(res2.Hidden) != 0 || res2.Traces[0].Outcome != "given-up" {
		t.Errorf("H = %v, trace = %v", res2.Hidden, res2.Traces[0])
	}
}

func TestDiscoverRHSSeededHiddenResolved(t *testing.T) {
	// A seed of H whose RHS turns out non-empty moves into F.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	db.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	ref := relation.NewRef("R", "a")
	res, err := DiscoverRHSCtx(context.Background(), db, nil, []relation.Ref{ref}, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 1 || len(res.Hidden) != 0 {
		t.Errorf("FDs = %v, H = %v", res.FDs, res.Hidden)
	}
	// A seed whose RHS stays empty survives in H.
	db2 := table.NewDatabase(relation.MustCatalog(s.Clone()))
	db2.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	db2.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(20)})
	res2, err := DiscoverRHSCtx(context.Background(), db2, nil, []relation.Ref{ref}, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Hidden) != 1 || res2.Traces[0].Outcome != "stays-hidden" {
		t.Errorf("H = %v, trace = %v", res2.Hidden, res2.Traces)
	}
}

func TestDiscoverRHSEnforce(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	for i := 0; i < 99; i++ {
		tab.MustInsert(table.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	tab.MustInsert(table.Row{value.NewInt(0), value.NewInt(99)}) // one dirty tuple
	auto := expert.NewAuto()
	auto.MaxViolationRate = 0.05
	ref := relation.NewRef("R", "a")
	res, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{ref}, nil, auto, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 1 {
		t.Fatalf("FDs = %v", res.FDs)
	}
	if !res.Traces[0].Enforced.Contains("b") {
		t.Errorf("trace = %+v", res.Traces[0])
	}
}

func TestDiscoverRHSValidationRejected(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	db.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	sc := expert.NewScripted()
	fd := deps.NewFD("R", relation.NewAttrSet("a"), relation.NewAttrSet("b"))
	sc.AcceptFD[fd.String()] = false
	res, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{relation.NewRef("R", "a")}, nil, sc, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 0 || res.Traces[0].Outcome != "fd-rejected" {
		t.Errorf("FDs = %v, trace = %v", res.FDs, res.Traces[0])
	}
}

func TestDiscoverRHSUnknownRelation(t *testing.T) {
	db := table.NewDatabase(relation.MustCatalog())
	if _, err := DiscoverRHSCtx(context.Background(), db, []relation.Ref{relation.NewRef("Ghost", "x")}, nil, nil, Opts{}); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestE5_PaperFDs reproduces the Section 6.2.2 result: F and the final H
// (experiment E5). LHS and H seeds are the paper's Section 6.2.1 sets.
func TestE5_PaperFDs(t *testing.T) {
	db := paperex.Database()
	lhs := []relation.Ref{
		relation.NewRef("HEmployee", "no"),
		relation.NewRef("Department", "emp"),
		relation.NewRef("Assignment", "emp"),
		relation.NewRef("Assignment", "proj"),
		relation.NewRef("Department", "proj"),
	}
	hidden := []relation.Ref{relation.NewRef("Assignment", "dep")}
	res, err := DiscoverRHSCtx(context.Background(), db, lhs, hidden, paperex.Oracle(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var fds []string
	for _, f := range res.FDs {
		fds = append(fds, f.String())
	}
	wantF := paperex.ExpectedFDs()
	if strings.Join(fds, "|") != strings.Join(wantF, "|") {
		t.Errorf("F = %v, want %v", fds, wantF)
	}
	var hs []string
	for _, h := range res.Hidden {
		hs = append(hs, h.String())
	}
	wantH := paperex.ExpectedHFinal()
	if strings.Join(hs, "|") != strings.Join(wantH, "|") {
		t.Errorf("H = %v, want %v", hs, wantH)
	}
	// The paper walks Department.emp's pruning: T = {skill, proj}.
	for _, tr := range res.Traces {
		if tr.Candidate.Compare(relation.NewRef("Department", "emp")) == 0 {
			if !tr.Pruned.Equal(relation.NewAttrSet("proj", "skill")) {
				t.Errorf("Department.emp T = %v", tr.Pruned)
			}
		}
		if tr.Candidate.Compare(relation.NewRef("HEmployee", "no")) == 0 {
			if !tr.Pruned.Equal(relation.NewAttrSet("salary")) {
				t.Errorf("HEmployee.no T = %v", tr.Pruned)
			}
			if tr.Outcome != "hidden-object" {
				t.Errorf("HEmployee.no outcome = %s", tr.Outcome)
			}
		}
	}
}

func TestBaselineSmall(t *testing.T) {
	// R(a,b,c): a → b planted; c free.
	tab := build(t, [][3]int64{
		{1, 10, 1}, {1, 10, 2}, {2, 20, 1}, {2, 20, 3}, {3, 20, 2},
	})
	res, err := DiscoverBaseline(tab, BaselineOptions{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := deps.NewFD("R", relation.NewAttrSet("a"), relation.NewAttrSet("b"))
	found := false
	for _, f := range res.FDs {
		if f.Equal(want) {
			found = true
		}
		if f.LHS.Contains("a") && f.LHS.Len() > 1 && f.RHS.Contains("b") {
			t.Errorf("non-minimal FD kept: %v", f)
		}
	}
	if !found {
		t.Errorf("missing %v in %v", want, res.FDs)
	}
	if res.CandidatesTested == 0 {
		t.Error("nothing tested")
	}
}

func TestBaselineMinimalityPruning(t *testing.T) {
	tab := build(t, [][3]int64{{1, 10, 5}, {2, 20, 6}})
	// Tiny table: a → b, a → c, b → ... many hold; supersets pruned.
	res, err := DiscoverBaseline(tab, BaselineOptions{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesPruned == 0 {
		t.Error("no pruning happened")
	}
	for _, f := range res.FDs {
		if f.LHS.Len() != 1 {
			t.Errorf("non-minimal survived: %v", f)
		}
	}
}

func TestBaselineSkipKeys(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "k", Type: value.KindInt},
		{Name: "a", Type: value.KindInt},
	}, relation.NewAttrSet("k"))
	tab := table.New(s)
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(1)})
	tab.MustInsert(table.Row{value.NewInt(2), value.NewInt(1)})
	res, err := DiscoverBaseline(tab, BaselineOptions{MaxLHS: 1, SkipKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.FDs {
		if f.LHS.Contains("k") {
			t.Errorf("key attribute in LHS: %v", f)
		}
	}
}

func TestBaselineAgreesWithCheck(t *testing.T) {
	db := buildDB(t, [][3]int64{
		{1, 10, 7}, {1, 10, 8}, {2, 10, 7}, {3, 30, 9}, {3, 30, 9},
	})
	res, err := DiscoverBaseline(db.MustTable("R"), BaselineOptions{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.FDs {
		for _, b := range f.RHS.Names() {
			// NULL-free data: partition semantics and CheckStats agree.
			s, err := checkR(db, f.LHS.Names(), b)
			if err != nil || !s.Holds() {
				t.Errorf("baseline FD %v refuted by CheckStats (%v)", f, err)
			}
		}
	}
}

func TestDiscoverBaselineAll(t *testing.T) {
	db := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "x", Type: value.KindInt}, {Name: "y", Type: value.KindInt},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "u", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
		}),
	))
	db.MustTable("A").MustInsert(table.Row{value.NewInt(1), value.NewInt(2)})
	db.MustTable("B").MustInsert(table.Row{value.NewInt(1), value.NewInt(2)})
	res, err := DiscoverBaselineAll(db, BaselineOptions{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]bool{}
	for _, f := range res.FDs {
		rels[f.Rel] = true
	}
	if !rels["A"] || !rels["B"] {
		t.Errorf("FDs = %v", res.FDs)
	}
}

func TestCandidateTraceString(t *testing.T) {
	tr := CandidateTrace{
		Candidate: relation.NewRef("R", "a"),
		Pruned:    relation.NewAttrSet("b"),
		Accepted:  relation.NewAttrSet("b"),
		Outcome:   "fd",
	}
	if got := tr.String(); got != "R.a: T=b B=b -> fd" {
		t.Errorf("String = %q", got)
	}
}

// TestRevalidateWithoutCallerCache: re-validation needs only Opts.Prev.
// A caller that passes no cache still takes the delta path (through the
// run's private cache) after an append, and lands on the cold result.
func TestRevalidateWithoutCallerCache(t *testing.T) {
	db := buildDB(t, [][3]int64{{1, 10, 0}, {1, 10, 1}, {2, 20, 2}, {3, 30, 3}})
	lhs := []relation.Ref{relation.NewRef("R", "a")}
	ctx := context.Background()
	first, err := DiscoverRHSCtx(ctx, db, lhs, nil, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.MustTable("R")
	base := map[string]int{"R": tab.Len()}
	tab.MustInsert(table.Row{value.NewInt(2), value.NewInt(20), value.NewInt(4)})

	warm, err := DiscoverRHSCtx(ctx, db, lhs, nil, expert.Deny{}, Opts{Prev: first.Supports, BaseRows: base})
	if err != nil {
		t.Fatal(err)
	}
	if d := warm.Delta; d.Reused+d.DeltaChecked == 0 {
		t.Errorf("re-validation without a caller cache ran cold: %+v", d)
	}
	cold, err := DiscoverRHSCtx(ctx, db, lhs, nil, expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(warm.FDs, warm.Traces) != fmt.Sprint(cold.FDs, cold.Traces) {
		t.Errorf("re-validation diverged from the cold run:\nwarm %v %v\ncold %v %v", warm.FDs, warm.Traces, cold.FDs, cold.Traces)
	}
}
