package ind

import (
	"context"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// pairCatalog declares the two single-attribute relations used by the
// small-database tests and properties.
func pairCatalog() *relation.Catalog {
	return relation.MustCatalog(
		relation.MustSchema("L", []relation.Attribute{{Name: "x", Type: value.KindInt}}),
		relation.MustSchema("R", []relation.Attribute{{Name: "y", Type: value.KindInt}}),
	)
}

func intVal(v int64) value.Value { return value.NewInt(v) }

// smallDB builds two single-attribute relations with the given value sets.
func smallDB(t *testing.T, left, right []int64) *table.Database {
	t.Helper()
	return buildPair(left, right)
}

func q1() *deps.JoinSet {
	return deps.NewJoinSet(deps.NewEquiJoin(deps.NewSide("L", "x"), deps.NewSide("R", "y")))
}

func TestDiscoverInclusion(t *testing.T) {
	db := smallDB(t, []int64{1, 2, 3}, []int64{1, 2, 3, 4, 5})
	res, err := DiscoverCtx(context.Background(), db, q1(), expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.INDs.Len() != 1 {
		t.Fatalf("INDs = %s", res.INDs)
	}
	want := deps.NewIND(deps.NewSide("L", "x"), deps.NewSide("R", "y"))
	if !res.INDs.Contains(want) {
		t.Errorf("missing %s in %s", want, res.INDs)
	}
	if res.Outcomes[0].Case != CaseInclusion {
		t.Errorf("case = %v", res.Outcomes[0].Case)
	}
	if res.ExtensionQueries != 3 {
		t.Errorf("queries = %d", res.ExtensionQueries)
	}
}

func TestDiscoverEqualSetsBothDirections(t *testing.T) {
	db := smallDB(t, []int64{1, 2}, []int64{1, 2})
	res, err := DiscoverCtx(context.Background(), db, q1(), expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.INDs.Len() != 2 {
		t.Errorf("INDs = %s", res.INDs)
	}
}

func TestDiscoverEmptyIntersection(t *testing.T) {
	db := smallDB(t, []int64{1, 2}, []int64{8, 9})
	res, err := DiscoverCtx(context.Background(), db, q1(), expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.INDs.Len() != 0 || res.Outcomes[0].Case != CaseEmpty {
		t.Errorf("outcome = %v", res.Outcomes[0])
	}
}

func TestDiscoverNEIIgnored(t *testing.T) {
	db := smallDB(t, []int64{1, 2, 3}, []int64{2, 3, 4})
	res, err := DiscoverCtx(context.Background(), db, q1(), expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.INDs.Len() != 0 || res.Outcomes[0].Case != CaseNEIIgnored {
		t.Errorf("outcome = %v", res.Outcomes[0])
	}
}

func TestDiscoverNEIForced(t *testing.T) {
	for _, action := range []expert.NEIAction{expert.NEIForceLeft, expert.NEIForceRight} {
		db := smallDB(t, []int64{1, 2, 3}, []int64{2, 3, 4})
		s := expert.NewScripted()
		j := deps.NewEquiJoin(deps.NewSide("L", "x"), deps.NewSide("R", "y"))
		s.NEI[j.Key()] = expert.NEIDecision{Action: action}
		res, err := DiscoverCtx(context.Background(), db, q1(), s, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.INDs.Len() != 1 || res.Outcomes[0].Case != CaseNEIForced {
			t.Fatalf("action %v: %v", action, res.Outcomes[0])
		}
		got := res.INDs.All()[0]
		if action == expert.NEIForceLeft && got.Left.Rel != "L" {
			t.Errorf("ForceLeft gave %s", got)
		}
		if action == expert.NEIForceRight && got.Left.Rel != "R" {
			t.Errorf("ForceRight gave %s", got)
		}
		// Forced INDs do not hold on the extension; Verify must say so.
		bad, err := Verify(db, res.INDs)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 1 {
			t.Errorf("Verify found %v", bad)
		}
	}
}

func TestDiscoverNEINewRelation(t *testing.T) {
	db := smallDB(t, []int64{1, 2, 3}, []int64{2, 3, 4})
	s := expert.NewScripted()
	j := deps.NewEquiJoin(deps.NewSide("L", "x"), deps.NewSide("R", "y"))
	s.NEI[j.Key()] = expert.NEIDecision{Action: expert.NEINewRelation, Name: "Shared"}
	res, err := DiscoverCtx(context.Background(), db, q1(), s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewRelations) != 1 || res.NewRelations[0] != "Shared" {
		t.Fatalf("new relations = %v", res.NewRelations)
	}
	if res.INDs.Len() != 2 {
		t.Fatalf("INDs = %s", res.INDs)
	}
	// The new relation holds the intersection {2,3} and is keyed.
	tab, ok := db.Table("Shared")
	if !ok {
		t.Fatal("Shared not created")
	}
	if tab.Len() != 2 {
		t.Errorf("Shared has %d rows", tab.Len())
	}
	if pk, ok := tab.Schema().PrimaryKey(); !ok || !pk.Equal(relation.NewAttrSet("x")) {
		t.Errorf("Shared key = %v %v", pk, ok)
	}
	// Both INDs hold on the extension.
	bad, err := Verify(db, res.INDs)
	if err != nil || len(bad) != 0 {
		t.Errorf("Verify = %v, %v", bad, err)
	}
}

func TestDiscoverNameCollision(t *testing.T) {
	db := smallDB(t, []int64{1, 2, 3}, []int64{2, 3, 4})
	s := expert.NewScripted()
	j := deps.NewEquiJoin(deps.NewSide("L", "x"), deps.NewSide("R", "y"))
	s.NEI[j.Key()] = expert.NEIDecision{Action: expert.NEINewRelation, Name: "L"} // clashes
	res, err := DiscoverCtx(context.Background(), db, q1(), s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewRelations) != 1 || res.NewRelations[0] == "L" {
		t.Errorf("collision not renamed: %v", res.NewRelations)
	}
}

func TestDiscoverUnknownRelation(t *testing.T) {
	db := smallDB(t, nil, nil)
	q := deps.NewJoinSet(deps.NewEquiJoin(deps.NewSide("Ghost", "x"), deps.NewSide("R", "y")))
	res, err := DiscoverCtx(context.Background(), db, q, nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Case != CaseError || res.Outcomes[0].Err == nil {
		t.Errorf("outcome = %v", res.Outcomes[0])
	}
	q2 := deps.NewJoinSet(deps.NewEquiJoin(deps.NewSide("L", "ghost"), deps.NewSide("R", "y")))
	res2, _ := DiscoverCtx(context.Background(), db, q2, nil, Opts{})
	if res2.Outcomes[0].Case != CaseError {
		t.Errorf("outcome = %v", res2.Outcomes[0])
	}
}

func TestOutcomeAndCaseStrings(t *testing.T) {
	o := Outcome{
		Join: deps.NewEquiJoin(deps.NewSide("L", "x"), deps.NewSide("R", "y")),
		NK:   3, NL: 4, NKL: 2, Case: CaseNEINewRelation, NewRelation: "S",
	}
	if !strings.Contains(o.String(), "nei-new-relation S") {
		t.Errorf("String = %q", o.String())
	}
	for c, want := range map[Case]string{
		CaseEmpty: "empty-intersection", CaseInclusion: "inclusion",
		CaseNEINewRelation: "nei-new-relation", CaseNEIForced: "nei-forced",
		CaseNEIIgnored: "nei-ignored", CaseError: "error", Case(99): "?",
	} {
		if c.String() != want {
			t.Errorf("Case(%d) = %q", c, c.String())
		}
	}
}

// TestE3_PaperINDs reproduces the Section 6.1 outcome on the paper fixture:
// the six inclusion dependencies including the conceptualized Ass-Dept
// (experiment E3).
func TestE3_PaperINDs(t *testing.T) {
	db := paperex.Database()
	rec := expert.NewRecording(paperex.Oracle())
	res, err := DiscoverCtx(context.Background(), db, paperex.Q(), rec, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range res.INDs.Sorted() {
		got = append(got, d.String())
	}
	want := paperex.ExpectedINDs()
	if len(got) != len(want) {
		t.Fatalf("IND =\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IND[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(res.NewRelations) != 1 || res.NewRelations[0] != "Ass-Dept" {
		t.Errorf("S = %v", res.NewRelations)
	}
	// The worked counts of the paper appear in the trace.
	var neis []Outcome
	for _, o := range res.Outcomes {
		if o.Case == CaseNEINewRelation {
			neis = append(neis, o)
		}
	}
	if len(neis) != 1 || neis[0].NK != 150 || neis[0].NL != 125 || neis[0].NKL != 100 {
		t.Errorf("NEI trace = %v", neis)
	}
	// Exactly one expert consultation (the NEI) was needed.
	if len(rec.Log) != 1 {
		t.Errorf("expert consulted %d times: %v", len(rec.Log), rec.Log)
	}
	// Everything discovered verifies against the extension.
	bad, err := Verify(db, res.INDs)
	if err != nil || len(bad) != 0 {
		t.Errorf("Verify = %v, %v", bad, err)
	}
	// Ass-Dept's extension is the 100 shared departments.
	if n := db.MustTable("Ass-Dept").Len(); n != 100 {
		t.Errorf("Ass-Dept rows = %d", n)
	}
}
