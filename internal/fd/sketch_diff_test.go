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

// TestCheckStatsSketchSampleRefutation pins the triage tier of the
// per-check dispatch: only a cold run with Opts.Sketch and a
// support-insensitive policy takes the row sample; it refutes a
// dependency violated in most groups with a lower bound on the exact
// violations, and leaves a holding one to the exact check.
func TestCheckStatsSketchSampleRefutation(t *testing.T) {
	db := sketchCheckDB(200)
	exact, err := CheckStats(stats.NewCache(db), "R", []string{"b"}, "c")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Holds() {
		t.Fatalf("test premise broken: b → c holds exactly")
	}
	check := func(o Opts, lhs []string, insensitive bool) (expert.FDSupport, checkKind) {
		t.Helper()
		o.Stats = stats.NewCache(db)
		got, kind, err := o.check(db, relation.NewRef("R", lhs...), "c", insensitive)
		if err != nil {
			t.Fatal(err)
		}
		return got, kind
	}

	// Without the triage, or under a support-sensitive policy, the exact
	// check runs.
	for _, tc := range []struct {
		sketch, insensitive bool
	}{{false, true}, {true, false}} {
		if got, kind := check(Opts{Sketch: tc.sketch}, []string{"b"}, tc.insensitive); kind != checkFull || got != exact {
			t.Errorf("sketch %v, insensitive %v: %+v (kind %d), want the exact %+v", tc.sketch, tc.insensitive, got, kind, exact)
		}
	}

	// With it, the heavily-violated b → c is certainly refuted, and the
	// reported violation count is a lower bound on the exact one.
	got, kind := check(Opts{Sketch: true}, []string{"b"}, true)
	if kind != checkSampled {
		t.Fatal("sample refutation missed a dependency violated in most groups")
	}
	if got.Holds() || got.Violations > exact.Violations {
		t.Errorf("sampled support %+v is not a refuting lower bound on the exact %+v", got, exact)
	}

	// A dependency that actually holds must never be refuted: fall
	// through to the exact check instead, with the exact support.
	got, kind = check(Opts{Sketch: true}, []string{"a", "b"}, true)
	if kind != checkFull || !got.Holds() || got.Rows != 200 {
		t.Errorf("holding dependency: support %+v kind %d, want the exact 200 rows, 0 violations", got, kind)
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
// alike. For the deny and recording oracles a triaged pass then feeds
// its supports — sample-refuted ones are only lower bounds — into two
// re-validations, after a clean batch and after a breaking one, and
// each must equal a cold exact run over the grown database
// (revalidateAfterTriage).
func TestDiscoverRHSSketchDifferential(t *testing.T) {
	tolerant := func() expert.Oracle {
		a := expert.NewAuto()
		a.MaxViolationRate = 0.2 // support-sensitive: sampling must stay off
		return a
	}
	oracles := []struct {
		name       string
		mk         func() expert.Oracle
		revalidate bool
	}{
		{"deny", func() expert.Oracle { return expert.Deny{} }, true},
		{"tolerant-auto", tolerant, false},
		{"recording", func() expert.Oracle { return expert.NewRecording(expert.Deny{}) }, true},
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
				if oc.revalidate {
					revalidateAfterTriage(t, db, lhs, oc.mk, triaged)
				}
			}
		})
	}
}

// revalidateAfterTriage re-validates a triaged run's supports over db
// twice: after a clean batch of duplicate tuples on every candidate
// relation, then after a batch breaking one clean dependency. Each
// re-validation must decide exactly as a cold exact run over the grown
// database, with the same expert dialogue. Under a support-insensitive
// oracle every previously-violated check — the sample-refuted ones among
// them — is replayed as Refuted; a support-sensitive one replays none.
func revalidateAfterTriage(t *testing.T, db *table.Database, lhs []relation.Ref, mk func() expert.Oracle, triaged *Result) {
	t.Helper()
	ctx := context.Background()
	insensitive := expert.IsSupportInsensitive(mk())
	if sampled := triaged.Delta.Sampled; (sampled > 0) != insensitive {
		t.Fatalf("triaged pass sample-refuted %d checks, insensitive %v", sampled, insensitive)
	}
	prev := triaged
	for _, breaking := range []bool{false, true} {
		base := make(map[string]int)
		for _, name := range db.Catalog().Names() {
			base[name] = db.MustTable(name).Len()
		}
		if breaking {
			breakOneFD(t, db, lhs, prev.Supports)
		} else {
			for _, ref := range lhs {
				tab := db.MustTable(ref.Rel)
				for i := 0; i < 5; i++ {
					tab.InsertUnchecked(tab.Row(i))
				}
			}
		}
		warmOracle, coldOracle := mk(), mk()
		warm, err := DiscoverRHSCtx(ctx, db, lhs, nil, warmOracle, Opts{Stats: stats.NewCache(db), Prev: prev.Supports, BaseRows: base})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := DiscoverRHSCtx(ctx, db, lhs, nil, coldOracle, Opts{Stats: stats.NewCache(db)})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("breaking %v", breaking)
		if fmt.Sprint(warm.FDs, warm.Hidden, warm.Traces) != fmt.Sprint(cold.FDs, cold.Hidden, cold.Traces) {
			t.Errorf("%s: re-validation diverged from the cold run:\n%v %v %v\nvs\n%v %v %v",
				label, warm.FDs, warm.Hidden, warm.Traces, cold.FDs, cold.Hidden, cold.Traces)
		}
		if rec, ok := coldOracle.(*expert.Recording); ok && fmt.Sprint(warmOracle.(*expert.Recording).Log) != fmt.Sprint(rec.Log) {
			t.Errorf("%s: expert dialogue diverged from the cold run", label)
		}
		// The violated checks whose relation grew are the ones to replay.
		violated, seen := 0, make(map[string]bool)
		for _, ref := range lhs {
			if seen[ref.Key()] || db.MustTable(ref.Rel).Len() == base[ref.Rel] {
				continue
			}
			seen[ref.Key()] = true
			for _, b := range db.MustTable(ref.Rel).Schema().AttrSet().Names() {
				if s, ok := prev.Supports[[2]string{ref.Key(), b}]; ok && !s.Holds() {
					violated++
				}
			}
		}
		want := 0
		if insensitive {
			want = violated
		}
		if d := warm.Delta; d.Refuted != want || (d.Broken > 0) != breaking {
			t.Errorf("%s: %+v, want %d refuted of %d violated, broken only when breaking", label, d, want, violated)
		}
		prev = warm
	}
}

// breakOneFD appends one tuple breaking the first clean dependency of
// supports with a non-NULL left-hand side on one of lhs's relations: a
// clone of a row in the dependency's left-hand-side group carrying
// another row's right-hand-side value.
func breakOneFD(t *testing.T, db *table.Database, lhs []relation.Ref, supports SupportMap) {
	t.Helper()
	for _, ref := range lhs {
		tab := db.MustTable(ref.Rel)
		for _, b := range tab.Schema().AttrSet().Names() {
			if s, ok := supports[[2]string{ref.Key(), b}]; !ok || !s.Holds() {
				continue
			}
			bc, _ := tab.ColIndex(b)
			for i := 0; i < tab.Len(); i++ {
				row := tab.Row(i)
				if hasNull(tab, row, ref.Attrs.Names()) {
					continue
				}
				for j := 0; j < tab.Len(); j++ {
					if other := tab.Value(j, bc); other.Key() != row[bc].Key() {
						row[bc] = other
						tab.InsertUnchecked(row)
						return
					}
				}
			}
		}
	}
	t.Fatal("no clean dependency to break")
}

// hasNull reports whether row is NULL on any of attrs.
func hasNull(tab *table.Table, row table.Row, attrs []string) bool {
	for _, a := range attrs {
		if c, _ := tab.ColIndex(a); row[c].IsNull() {
			return true
		}
	}
	return false
}
