package ind

import (
	"context"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
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

// diffSpec is the adversarial differential workload: small enough for a
// unit test, with far-miss (certainly prunable) and near-miss (must
// escalate) columns alongside the genuine foreign-key inclusions.
func diffSpec(seed int64) workload.Spec {
	return workload.Spec{
		Seed: seed, Dimensions: 3, Facts: 2, FKsPerFact: 2,
		AttrsPerDimension: 2, DimensionRows: 50, FactRows: 300,
		EmbedProb: 0.5, DropProb: 0.3, Corruption: 0.01, ProgramsPerJoin: 1,
		FarMissAttrs: 3, NearMissAttrs: 2, NearMissNoise: 0.05,
	}
}

func TestBaselineSketchDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		wl, err := workload.Generate(diffSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := DiscoverBaseline(wl.DB, BaselineOptions{MaxArity: 1, TypePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		triaged, err := DiscoverBaseline(wl.DB, BaselineOptions{MaxArity: 1, TypePruning: true, Sketch: true})
		if err != nil {
			t.Fatal(err)
		}
		if exact.INDs.String() != triaged.INDs.String() {
			t.Errorf("seed %d: sketch triage changed the INDs:\n%s\nvs\n%s",
				seed, exact.INDs, triaged.INDs)
		}
		if got := triaged.SketchPruned + triaged.SketchEscalated; got != exact.CandidatesTested {
			t.Errorf("seed %d: triage split %d+%d, exact run tested %d",
				seed, triaged.SketchPruned, triaged.SketchEscalated, exact.CandidatesTested)
		}
		if triaged.SketchPruned == 0 {
			t.Errorf("seed %d: far-miss columns produced no certain prunes", seed)
		}
		if triaged.SketchEscalated == 0 {
			t.Errorf("seed %d: nothing escalated", seed)
		}
	}
}

func TestBaselineSketchRowEngineEscalatesAll(t *testing.T) {
	spec := diffSpec(1)
	spec.RowEngine = true
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := DiscoverBaseline(wl.DB, BaselineOptions{MaxArity: 1, TypePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	triaged, err := DiscoverBaseline(wl.DB, BaselineOptions{MaxArity: 1, TypePruning: true, Sketch: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.INDs.String() != triaged.INDs.String() {
		t.Errorf("row engine: sketch mode changed the INDs")
	}
	if triaged.SketchPruned != 0 {
		t.Errorf("row engine has no sketches, yet %d candidates were pruned", triaged.SketchPruned)
	}
	if triaged.SketchEscalated != exact.CandidatesTested {
		t.Errorf("row engine: escalated %d of %d", triaged.SketchEscalated, exact.CandidatesTested)
	}
}

func TestDiscoverSketchDifferential(t *testing.T) {
	cases := []struct {
		name       string
		a, b       []int64
		wantPrunes int64
	}{
		// Two small complete disjoint signatures: the only sound guided
		// prune (N_kl = 0 with certainty) fires.
		{"disjoint", []int64{1, 2, 3}, []int64{10, 11}, 1},
		{"subset", []int64{1, 2}, []int64{1, 2, 3}, 0},
		{"near-miss", []int64{1, 2, 3, 99}, []int64{1, 2, 3, 4, 5}, 0},
		{"equal", []int64{7, 8}, []int64{7, 8}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := DiscoverCtx(context.Background(), buildPair(tc.a, tc.b), q1(), expert.Deny{},
				Opts{Stats: stats.NewCache(buildPair(tc.a, tc.b))})
			if err != nil {
				t.Fatal(err)
			}
			db := buildPair(tc.a, tc.b)
			tr := obs.NewTracer("t")
			triaged, err := DiscoverCtx(obs.NewContext(context.Background(), tr),
				db, q1(), expert.Deny{}, Opts{Stats: stats.NewCache(db), Sketch: true})
			if err != nil {
				t.Fatal(err)
			}
			if exact.INDs.String() != triaged.INDs.String() {
				t.Errorf("INDs diverged: %s vs %s", exact.INDs, triaged.INDs)
			}
			if len(exact.Outcomes) != len(triaged.Outcomes) {
				t.Fatalf("outcome counts diverged: %d vs %d", len(exact.Outcomes), len(triaged.Outcomes))
			}
			for i := range exact.Outcomes {
				if exact.Outcomes[i].String() != triaged.Outcomes[i].String() {
					t.Errorf("outcome %d diverged: %s vs %s",
						i, exact.Outcomes[i], triaged.Outcomes[i])
				}
			}
			if got := tr.Count(obs.CtrSketchPrunes); got != tc.wantPrunes {
				t.Errorf("sketch-prunes = %d, want %d", got, tc.wantPrunes)
			}
			// A pruned join skips exactly its one intersection query.
			wantQueries := exact.ExtensionQueries - int(tc.wantPrunes)
			if triaged.ExtensionQueries != wantQueries {
				t.Errorf("ExtensionQueries = %d, want %d", triaged.ExtensionQueries, wantQueries)
			}
		})
	}
}

// TestDiscoverSketchDifferentialWorkload runs the guided algorithm over
// the adversarial workloads with the full program-derived join set and a
// conceptualizing expert, sketch-on vs sketch-off.
func TestDiscoverSketchDifferentialWorkload(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		build := func() (*table.Database, *deps.JoinSet) {
			wl, err := workload.Generate(diffSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			q := deps.NewJoinSet()
			for _, l := range wl.Truth.Links {
				if l.Dropped {
					continue
				}
				for i, fk := range l.FKs {
					q.Add(deps.NewEquiJoin(
						deps.NewSide(l.Fact, fk), deps.NewSide(l.Dim, l.DimKeys[i])))
				}
			}
			return wl.DB, q
		}
		dbE, qE := build()
		exact, err := DiscoverCtx(context.Background(), dbE, qE, expert.NewAuto(), Opts{Stats: stats.NewCache(dbE)})
		if err != nil {
			t.Fatal(err)
		}
		dbS, qS := build()
		triaged, err := DiscoverCtx(context.Background(), dbS, qS, expert.NewAuto(), Opts{Stats: stats.NewCache(dbS), Sketch: true})
		if err != nil {
			t.Fatal(err)
		}
		if exact.INDs.String() != triaged.INDs.String() {
			t.Errorf("seed %d: INDs diverged", seed)
		}
		if len(exact.Outcomes) != len(triaged.Outcomes) {
			t.Fatalf("seed %d: outcome counts diverged", seed)
		}
		for i := range exact.Outcomes {
			if exact.Outcomes[i].String() != triaged.Outcomes[i].String() {
				t.Errorf("seed %d: outcome %d diverged: %s vs %s",
					seed, i, exact.Outcomes[i], triaged.Outcomes[i])
			}
		}
	}
}
