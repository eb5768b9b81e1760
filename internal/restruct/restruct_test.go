package restruct

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// paperINDs reruns IND-Discovery on the paper fixture and returns the
// database (with Ass-Dept) and the IND set.
func paperINDs(t *testing.T) (*table.Database, *ind.Result) {
	t.Helper()
	db := paperex.Database()
	res, err := ind.DiscoverCtx(context.Background(), db, paperex.Q(), paperex.Oracle(), ind.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return db, res
}

func refStrings(refs []relation.Ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

// TestE4_PaperLHS reproduces Section 6.2.1: the sets LHS and H
// (experiment E4).
func TestE4_PaperLHS(t *testing.T) {
	db, indRes := paperINDs(t)
	inS := map[string]bool{}
	for _, n := range indRes.NewRelations {
		inS[n] = true
	}
	res, err := DiscoverLHS(db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(refStrings(res.LHS), "|"), strings.Join(paperex.ExpectedLHS(), "|"); got != want {
		t.Errorf("LHS = %v, want %v", got, want)
	}
	if got, want := strings.Join(refStrings(res.Hidden), "|"), strings.Join(paperex.ExpectedHAfterLHS(), "|"); got != want {
		t.Errorf("H = %v, want %v", got, want)
	}
}

func TestDiscoverLHSBranches(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "x", Type: value.KindInt}, {Name: "k", Type: value.KindInt},
		}, relation.NewAttrSet("k")),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "y", Type: value.KindInt},
		}, relation.NewAttrSet("y")),
		relation.MustSchema("S1", []relation.Attribute{
			{Name: "x", Type: value.KindInt},
		}, relation.NewAttrSet("x")),
	)
	inds := deps.NewINDSet(
		// Non-key left, key right: only left enters LHS.
		deps.NewIND(deps.NewSide("A", "x"), deps.NewSide("B", "y")),
		// Key left: nothing from the left side.
		deps.NewIND(deps.NewSide("A", "k"), deps.NewSide("B", "y")),
		// S relation on the left, non-key right: right enters H.
		deps.NewIND(deps.NewSide("S1", "x"), deps.NewSide("A", "x")),
		// S relation on the left, key right: nothing.
		deps.NewIND(deps.NewSide("S1", "x"), deps.NewSide("B", "y")),
	)
	res, err := DiscoverLHS(cat, inds, func(n string) bool { return n == "S1" })
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(refStrings(res.LHS), "|"); got != "A.x" {
		t.Errorf("LHS = %q", got)
	}
	if got := strings.Join(refStrings(res.Hidden), "|"); got != "A.x" {
		t.Errorf("H = %q", got)
	}
}

func TestDiscoverLHSUnknownRelation(t *testing.T) {
	cat := relation.MustCatalog()
	inds := deps.NewINDSet(deps.NewIND(deps.NewSide("X", "a"), deps.NewSide("Y", "b")))
	if _, err := DiscoverLHS(cat, inds, nil); err == nil {
		t.Error("unknown relation accepted")
	}
}

// runPaperPipeline drives IND→LHS→RHS→Restruct on the paper fixture.
func runPaperPipeline(t *testing.T) (*table.Database, *Result) {
	t.Helper()
	db, indRes := paperINDs(t)
	inS := map[string]bool{}
	for _, n := range indRes.NewRelations {
		inS[n] = true
	}
	lhsRes, err := DiscoverLHS(db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
	if err != nil {
		t.Fatal(err)
	}
	rhsRes, err := fd.DiscoverRHSCtx(context.Background(), db, lhsRes.LHS, lhsRes.Hidden, paperex.Oracle(), fd.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), db, rhsRes.FDs, rhsRes.Hidden, indRes.INDs, Opts{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}
	return db, res
}

// TestE6_PaperRestruct reproduces Section 7: the restructured 3NF schema,
// the key set and the ten referential integrity constraints (experiment E6).
func TestE6_PaperRestruct(t *testing.T) {
	db, res := runPaperPipeline(t)

	// Restructured schemas.
	var schemas []string
	for _, s := range db.Catalog().Schemas() {
		schemas = append(schemas, s.String())
	}
	want := paperex.ExpectedSchemas()
	got := append([]string{}, schemas...)
	if len(got) != len(want) {
		t.Fatalf("schemas:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	sortStrings(got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("schema[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// RIC set.
	var ric []string
	for _, d := range res.RIC {
		ric = append(ric, d.String())
	}
	wantRIC := paperex.ExpectedRIC()
	if len(ric) != len(wantRIC) {
		t.Fatalf("RIC:\n%s\nwant:\n%s", strings.Join(ric, "\n"), strings.Join(wantRIC, "\n"))
	}
	for i := range wantRIC {
		if ric[i] != wantRIC[i] {
			t.Errorf("RIC[%d] = %q, want %q", i, ric[i], wantRIC[i])
		}
	}
	// In the example every rewritten IND is key-based.
	if res.INDs.Len() != len(res.RIC) {
		t.Errorf("IND has %d, RIC has %d", res.INDs.Len(), len(res.RIC))
	}
	// New relations: two hidden objects then two FD splits.
	if strings.Join(res.NewRelations, ",") != "Other-Dept,Employee,Project,Manager" {
		t.Errorf("new relations = %v", res.NewRelations)
	}
	if res.ConflictRows != 0 {
		t.Errorf("conflicts = %d", res.ConflictRows)
	}
}

// TestE6_RICsHoldOnData verifies every emitted referential integrity
// constraint against the migrated extension.
func TestE6_RICsHoldOnData(t *testing.T) {
	db, res := runPaperPipeline(t)
	for _, d := range res.RIC {
		l := db.MustTable(d.Left.Rel)
		r := db.MustTable(d.Right.Rel)
		if !holdsIND(t, l, d.Left.Attrs, r, d.Right.Attrs) {
			t.Errorf("RIC %s violated by the restructured extension", d)
		}
	}
	// Spot-check migrated extensions.
	if n := db.MustTable("Employee").Len(); n != paperex.NumEmployees {
		t.Errorf("Employee rows = %d", n)
	}
	if n := db.MustTable("Project").Len(); n != paperex.NumAssignProjs {
		t.Errorf("Project rows = %d", n)
	}
	if n := db.MustTable("Manager").Len(); n != paperex.NumManagers {
		t.Errorf("Manager rows = %d", n)
	}
	if n := db.MustTable("Other-Dept").Len(); n != paperex.NumAssignDeps {
		t.Errorf("Other-Dept rows = %d", n)
	}
}

// TestE6_Lossless verifies the decomposition is lossless for the FD
// splits: joining the split relation back recovers the removed attributes.
func TestE6_Lossless(t *testing.T) {
	db, _ := runPaperPipeline(t)
	orig := paperex.Database()

	// Department ⋈ Manager on emp must recover (dep, skill, proj) for
	// every managed department.
	dept := db.MustTable("Department")
	mgr := db.MustTable("Manager")
	recovered := make(map[string]string) // dep → skill|proj
	depCol, _ := dept.ColIndex("dep")
	dEmpCol, _ := dept.ColIndex("emp")
	mEmpCol, _ := mgr.ColIndex("emp")
	skillCol, _ := mgr.ColIndex("skill")
	projCol, _ := mgr.ColIndex("proj")
	managers := make(map[string][]int) // emp → Manager rows
	for j := 0; j < mgr.Len(); j++ {
		if emp := mgr.Row(j)[mEmpCol]; !emp.IsNull() {
			managers[emp.Key()] = append(managers[emp.Key()], j)
		}
	}
	for i := 0; i < dept.Len(); i++ {
		emp := dept.Row(i)[dEmpCol]
		if emp.IsNull() {
			continue
		}
		for _, j := range managers[emp.Key()] {
			recovered[dept.Row(i)[depCol].Key()] =
				mgr.Row(j)[skillCol].Key() + "|" + mgr.Row(j)[projCol].Key()
		}
	}
	origDept := orig.MustTable("Department")
	oDep, _ := origDept.ColIndex("dep")
	oEmp, _ := origDept.ColIndex("emp")
	oSkill, _ := origDept.ColIndex("skill")
	oProj, _ := origDept.ColIndex("proj")
	for i := 0; i < origDept.Len(); i++ {
		row := origDept.Row(i)
		if row[oEmp].IsNull() {
			continue
		}
		want := row[oSkill].Key() + "|" + row[oProj].Key()
		if got := recovered[row[oDep].Key()]; got != want {
			t.Errorf("department %s: recovered %q, want %q", row[oDep], got, want)
		}
	}
}

func TestRunNameCollisions(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "k", Type: value.KindInt},
		}, relation.NewAttrSet("k")),
	)
	db := table.NewDatabase(cat)
	db.MustTable("R").MustInsert(table.Row{value.NewInt(1), value.NewInt(2), value.NewInt(3)})
	// The oracle suggests "R" (collides) for the hidden object.
	sc := expert.NewScripted()
	sc.Names[relation.NewRef("R", "a").Key()] = "R"
	res, err := RunCtx(context.Background(), db, nil, []relation.Ref{relation.NewRef("R", "a")}, deps.NewINDSet(), Opts{Oracle: sc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewRelations) != 1 || res.NewRelations[0] == "R" {
		t.Errorf("collision not resolved: %v", res.NewRelations)
	}
}

func TestRunDirtyFDConflicts(t *testing.T) {
	// An enforced FD with a dirty extension: the split keeps the first
	// value and counts the conflict.
	cat := relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "k", Type: value.KindInt},
		}, relation.NewAttrSet("k")),
	)
	db := table.NewDatabase(cat)
	tab := db.MustTable("R")
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(10), value.NewInt(1)})
	tab.MustInsert(table.Row{value.NewInt(1), value.NewInt(20), value.NewInt(2)}) // violates a → b
	fds := []deps.FD{deps.NewFD("R", relation.NewAttrSet("a"), relation.NewAttrSet("b"))}
	res, err := RunCtx(context.Background(), db, fds, nil, deps.NewINDSet(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConflictRows != 1 {
		t.Errorf("conflicts = %d", res.ConflictRows)
	}
	split := db.MustTable(res.NewRelations[0])
	if split.Len() != 1 {
		t.Errorf("split rows = %d", split.Len())
	}
}

func TestRunErrors(t *testing.T) {
	db := table.NewDatabase(relation.MustCatalog())
	if _, err := RunCtx(context.Background(), db, nil, []relation.Ref{relation.NewRef("Ghost", "x")}, deps.NewINDSet(), Opts{}); err == nil {
		t.Error("unknown hidden relation accepted")
	}
	cat := relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{{Name: "a", Type: value.KindInt}}),
	)
	db2 := table.NewDatabase(cat)
	fds := []deps.FD{deps.NewFD("R", relation.NewAttrSet("a"), relation.NewAttrSet("ghost"))}
	if _, err := RunCtx(context.Background(), db2, fds, nil, deps.NewINDSet(), Opts{}); err == nil {
		t.Error("FD over unknown attribute accepted")
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// holdsIND reports whether the NULL-free value combinations of
// l[la] are all among those of r[ra], by plain maps over Row(i).
func holdsIND(t *testing.T, l *table.Table, la []string, r *table.Table, ra []string) bool {
	t.Helper()
	keys := func(tab *table.Table, attrs []string) map[string]bool {
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			c, ok := tab.ColIndex(a)
			if !ok {
				t.Fatalf("relation %s has no attribute %q", tab.Schema().Name, a)
			}
			cols[i] = c
		}
		set := make(map[string]bool)
	rows:
		for i := 0; i < tab.Len(); i++ {
			key := ""
			for _, c := range cols {
				v := tab.Row(i)[c]
				if v.IsNull() {
					continue rows
				}
				key += strconv.Itoa(len(v.Key())) + ":" + v.Key()
			}
			set[key] = true
		}
		return set
	}
	right := keys(r, ra)
	for k := range keys(l, la) {
		if !right[k] {
			return false
		}
	}
	return true
}
