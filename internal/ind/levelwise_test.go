package ind

import (
	"testing"

	"dbre/internal/deps"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

func TestCandidateSpace(t *testing.T) {
	// The pair catalog has two attributes: 2·1 ordered pairs.
	if got := CandidateSpace(buildPair(nil, nil)); got != 2 {
		t.Errorf("pair catalog: CandidateSpace = %d, want 2", got)
	}
	// 2 + 3 + 1 attributes across three relations: 6·5 ordered pairs.
	db := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "a1", Type: value.KindInt}, {Name: "a2", Type: value.KindString},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "b1", Type: value.KindInt}, {Name: "b2", Type: value.KindInt},
			{Name: "b3", Type: value.KindFloat},
		}),
		relation.MustSchema("C", []relation.Attribute{{Name: "c1", Type: value.KindInt}}),
	))
	if got := CandidateSpace(db); got != 30 {
		t.Errorf("CandidateSpace = %d, want 30", got)
	}
	// A single attribute pairs with nothing.
	one := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("O", []relation.Attribute{{Name: "x", Type: value.KindInt}}),
	))
	if got := CandidateSpace(one); got != 0 {
		t.Errorf("single attribute: CandidateSpace = %d, want 0", got)
	}
}

// levelwiseDB builds A(x,y) ⊆ B(u,v) pair-wise, with only B.u declared a
// key and a string relation C alongside, so the MaxArity=2 level-wise
// step can be exercised under every pruning-option combination.
func levelwiseDB() *table.Database {
	db := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "x", Type: value.KindInt}, {Name: "y", Type: value.KindInt},
		}),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "u", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
		}, relation.NewAttrSet("u")),
		relation.MustSchema("C", []relation.Attribute{{Name: "s", Type: value.KindString}}),
	))
	db.MustTable("B").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	db.MustTable("B").MustInsert(table.Row{value.NewInt(2), value.NewInt(20)})
	db.MustTable("A").MustInsert(table.Row{value.NewInt(1), value.NewInt(10)})
	db.MustTable("C").MustInsert(table.Row{value.NewString("a")})
	return db
}

func TestBaselineLevelwisePruningCombos(t *testing.T) {
	binary := deps.NewIND(deps.NewSide("A", "x", "y"), deps.NewSide("B", "u", "v"))

	// Type pruning on: the binary IND is composed from the two valid
	// unary ones, and the string column never pairs with the ints.
	typed, err := DiscoverBaseline(levelwiseDB(), BaselineOptions{MaxArity: 2, TypePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !typed.INDs.Contains(binary) {
		t.Errorf("type-pruned level-wise step missed %s in %s", binary, typed.INDs)
	}
	for _, d := range typed.INDs.All() {
		if d.Left.Rel == "C" || d.Right.Rel == "C" {
			t.Errorf("string column crossed the type barrier: %s", d)
		}
	}
	if typed.CandidatesPruned == 0 {
		t.Error("type pruning reported no pruned candidates")
	}

	// Type pruning off: identical INDs (kind-mismatched containments are
	// empty anyway), strictly more candidates tested.
	untyped, err := DiscoverBaseline(levelwiseDB(), BaselineOptions{MaxArity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if untyped.INDs.String() != typed.INDs.String() {
		t.Errorf("type pruning changed the result:\n%s\nvs\n%s", untyped.INDs, typed.INDs)
	}
	if untyped.CandidatesTested <= typed.CandidatesTested {
		t.Errorf("tested %d without type pruning vs %d with", untyped.CandidatesTested, typed.CandidatesTested)
	}

	// Keys-only right-hand sides: the unary y ⊆ v is dropped (v is no
	// key), so the level-wise step has only one valid unary component
	// and must not compose the binary IND.
	keyed, err := DiscoverBaseline(levelwiseDB(), BaselineOptions{MaxArity: 2, TypePruning: true, KeysOnlyRHS: true})
	if err != nil {
		t.Fatal(err)
	}
	wantUnary := deps.NewIND(deps.NewSide("A", "x"), deps.NewSide("B", "u"))
	if keyed.INDs.Len() != 1 || !keyed.INDs.Contains(wantUnary) {
		t.Errorf("keys-only INDs = %s, want exactly %s", keyed.INDs, wantUnary)
	}
	for _, d := range keyed.INDs.All() {
		if d.Arity() == 2 {
			t.Errorf("level-wise step composed %s from a pruned unary component", d)
		}
	}
}
