package fd

import (
	"context"
	"fmt"
	"testing"

	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// sketchCheckDB builds R(a,b,c) with n rows: a is unique, b = i%5,
// c = i%3 — so b → c is heavily violated.
func sketchCheckDB(n int) *table.Database {
	db := table.NewDatabase(relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "c", Type: value.KindInt},
		}),
	))
	tab := db.MustTable("R")
	for i := 0; i < n; i++ {
		tab.MustInsert(table.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 5)),
			value.NewInt(int64(i % 3)),
		})
	}
	return db
}

func TestCheckStatsSketchSampleRefutation(t *testing.T) {
	db := sketchCheckDB(200)

	// Without sample refutation nothing is pruned.
	got, pruned, err := CheckStatsSketch(stats.NewCache(db), "R", []string{"b"}, "c", false)
	if err != nil {
		t.Fatal(err)
	}
	if pruned {
		t.Fatalf("sampling is off, yet pruned with %+v", got)
	}

	// With it, the heavily-violated b → c is certainly refuted, and the
	// reported violation count is a lower bound on the exact one.
	got, pruned, err = CheckStatsSketch(stats.NewCache(db), "R", []string{"b"}, "c", true)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned {
		t.Fatal("sample refutation missed a dependency violated in most groups")
	}
	if got.Holds() {
		t.Errorf("refuted support claims to hold: %+v", got)
	}
	exact, err := CheckStats(stats.NewCache(db), "R", []string{"b"}, "c")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Holds() {
		t.Fatalf("test premise broken: b → c holds exactly")
	}
	if got.Violations > exact.Violations {
		t.Errorf("sampled violations %d exceed the exact %d — not a lower bound",
			got.Violations, exact.Violations)
	}

	// A dependency that actually holds must never be refuted: fall
	// through to the exact kernel instead, with the exact support.
	got, pruned, err = CheckStatsSketch(stats.NewCache(db), "R", []string{"a", "b"}, "c", true)
	if err != nil {
		t.Fatal(err)
	}
	if pruned || !got.Holds() || got.Rows != 200 {
		t.Errorf("holding dependency: support %+v pruned %v, want the exact 200 rows, 0 violations", got, pruned)
	}
}

// rhsDiffWorkload builds the adversarial workload plus the candidate lhs
// list the RHS-Discovery differential legs run over.
func rhsDiffWorkload(t *testing.T, seed int64) (*table.Database, []relation.Ref) {
	t.Helper()
	wl, err := workload.Generate(workload.Spec{
		Seed: seed, Dimensions: 3, Facts: 2, FKsPerFact: 2,
		AttrsPerDimension: 2, DimensionRows: 50, FactRows: 300,
		EmbedProb: 0.7, DropProb: 0.3, Corruption: 0.01, ProgramsPerJoin: 1,
		FarMissAttrs: 2, NearMissAttrs: 1, NearMissNoise: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	return wl.DB, lhs
}

// TestDiscoverRHSSketchDifferential pins the triage tier's contract on
// RHS-Discovery: FDs, hidden objects, traces, check counts — and for a
// recording expert the full decision log — are identical sketch-on vs
// sketch-off, for support-insensitive and support-sensitive oracles
// alike.
func TestDiscoverRHSSketchDifferential(t *testing.T) {
	tolerant := func() expert.Oracle {
		a := expert.NewAuto()
		a.MaxViolationRate = 0.2 // support-sensitive: sampling must stay off
		return a
	}
	oracles := []struct {
		name string
		mk   func() expert.Oracle
	}{
		{"deny", func() expert.Oracle { return expert.Deny{} }},
		{"tolerant-auto", tolerant},
		{"recording", func() expert.Oracle { return expert.NewRecording(expert.Deny{}) }},
	}
	for _, oc := range oracles {
		t.Run(oc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				db, lhs := rhsDiffWorkload(t, seed)
				exOracle := oc.mk()
				exact, err := DiscoverRHSCtx(context.Background(), db, lhs, nil, exOracle, Opts{Stats: stats.NewCache(db)})
				if err != nil {
					t.Fatal(err)
				}
				skOracle := oc.mk()
				triaged, err := DiscoverRHSCtx(context.Background(), db, lhs, nil, skOracle,
					Opts{Stats: stats.NewCache(db), Sketch: true})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(exact.FDs) != fmt.Sprint(triaged.FDs) {
					t.Errorf("seed %d: FDs diverged:\n%v\nvs\n%v", seed, exact.FDs, triaged.FDs)
				}
				if fmt.Sprint(exact.Hidden) != fmt.Sprint(triaged.Hidden) {
					t.Errorf("seed %d: hidden objects diverged", seed)
				}
				if fmt.Sprint(exact.Traces) != fmt.Sprint(triaged.Traces) {
					t.Errorf("seed %d: traces diverged", seed)
				}
				if exact.ExtensionChecks != triaged.ExtensionChecks {
					t.Errorf("seed %d: ExtensionChecks %d vs %d",
						seed, exact.ExtensionChecks, triaged.ExtensionChecks)
				}
				if rec, ok := exOracle.(*expert.Recording); ok {
					skRec := skOracle.(*expert.Recording)
					if fmt.Sprint(rec.Log) != fmt.Sprint(skRec.Log) {
						t.Errorf("seed %d: expert dialogue diverged:\n%v\nvs\n%v",
							seed, rec.Log, skRec.Log)
					}
				}
			}
		})
	}
}
