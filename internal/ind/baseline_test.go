package ind

import (
	"context"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

func TestBaselineUnary(t *testing.T) {
	db := smallDB(t, []int64{1, 2, 3}, []int64{1, 2, 3, 4})
	res, err := DiscoverBaseline(db, DefaultBaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := deps.NewIND(deps.NewSide("L", "x"), deps.NewSide("R", "y"))
	if res.INDs.Len() != 1 || !res.INDs.Contains(want) {
		t.Errorf("INDs = %s", res.INDs)
	}
	if res.CandidatesTested == 0 {
		t.Error("no candidates tested")
	}
}

func TestBaselineTypePruning(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "i", Type: value.KindInt},
			{Name: "s", Type: value.KindString},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "j", Type: value.KindInt},
		}),
	)
	db := table.NewDatabase(cat)
	db.MustTable("A").MustInsert(table.Row{value.NewInt(1), value.NewString("x")})
	db.MustTable("B").MustInsert(table.Row{value.NewInt(1)})
	res, err := DiscoverBaseline(db, BaselineOptions{MaxArity: 1, TypePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	// i ⊆ j and j ⊆ i; s pruned against both int attributes.
	if res.INDs.Len() != 2 {
		t.Errorf("INDs = %s", res.INDs)
	}
	if res.CandidatesPruned == 0 {
		t.Error("nothing pruned")
	}
	// Without type pruning more candidates get tested.
	res2, _ := DiscoverBaseline(db, BaselineOptions{MaxArity: 1})
	if res2.CandidatesTested <= res.CandidatesTested {
		t.Errorf("tested %d vs %d", res2.CandidatesTested, res.CandidatesTested)
	}
}

func TestBaselineKeysOnlyRHS(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{{Name: "x", Type: value.KindInt}}),
		relation.MustSchema("B", []relation.Attribute{{Name: "y", Type: value.KindInt}},
			relation.NewAttrSet("y")),
	)
	db := table.NewDatabase(cat)
	db.MustTable("A").MustInsert(table.Row{value.NewInt(1)})
	db.MustTable("B").MustInsert(table.Row{value.NewInt(1)})
	res, err := DiscoverBaseline(db, BaselineOptions{MaxArity: 1, TypePruning: true, KeysOnlyRHS: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only A[x] << B[y] remains; B[y] << A[x] dropped (x is not a key).
	if res.INDs.Len() != 1 || res.INDs.All()[0].Right.Rel != "B" {
		t.Errorf("INDs = %s", res.INDs)
	}
}

func TestBaselineBinary(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "x", Type: value.KindInt}, {Name: "y", Type: value.KindInt},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "u", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
		}),
	)
	db := table.NewDatabase(cat)
	// A ⊆ B attribute-wise AND pair-wise.
	db.MustTable("B").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	db.MustTable("B").MustInsert(table.Row{value.NewInt(2), value.NewInt(20)})
	db.MustTable("A").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	res, err := DiscoverBaseline(db, BaselineOptions{MaxArity: 2, TypePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	want := deps.NewIND(deps.NewSide("A", "x", "y"), deps.NewSide("B", "u", "v"))
	if !res.INDs.Contains(want) {
		t.Errorf("missing %s in\n%s", want, res.INDs)
	}
	// Attribute-wise containment without pair-wise containment must NOT
	// produce a binary IND.
	db2 := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "x", Type: value.KindInt}, {Name: "y", Type: value.KindInt},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "u", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
		}),
	))
	db2.MustTable("B").MustInsert(table.Row{value.NewInt(1), value.NewInt(20)})
	db2.MustTable("B").MustInsert(table.Row{value.NewInt(2), value.NewInt(10)})
	db2.MustTable("A").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	res2, err := DiscoverBaseline(db2, BaselineOptions{MaxArity: 2, TypePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res2.INDs.All() {
		if d.Arity() == 2 {
			t.Errorf("false binary IND %s", d)
		}
	}
}

// TestBaselineFindsPlantedINDsOnPaperDB checks the exhaustive baseline
// recovers every IND the query-guided method finds — at a much larger
// candidate cost (the B2 claim).
func TestBaselineFindsPlantedINDsOnPaperDB(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size extension in short mode")
	}
	db := paperex.Database()
	base, err := DiscoverBaseline(db, DefaultBaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	guided, err := DiscoverCtx(context.Background(), paperex.Database(), paperex.Q(), expert.Deny{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range guided.INDs.All() {
		if !base.INDs.Contains(d) {
			t.Errorf("baseline missed %s", d)
		}
	}
	// The efficiency gap: 5 joins × 3 queries vs hundreds of candidates.
	if base.CandidatesTested <= guided.ExtensionQueries {
		t.Errorf("no efficiency gap: %d vs %d", base.CandidatesTested, guided.ExtensionQueries)
	}
	if CandidateSpace(db) < base.CandidatesTested {
		t.Errorf("candidate space %d < tested %d", CandidateSpace(db), base.CandidatesTested)
	}
}
