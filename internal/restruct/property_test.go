package restruct

import (
	"context"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/workload"
)

// drive runs IND→LHS→RHS→Restruct on a workload database, Restruct on
// the given number of workers.
func drive(t *testing.T, db *table.Database, q *deps.JoinSet, oracle expert.Oracle, workers int) *Result {
	t.Helper()
	indRes, err := ind.DiscoverCtx(context.Background(), db, q, oracle, ind.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	inS := map[string]bool{}
	for _, n := range indRes.NewRelations {
		inS[n] = true
	}
	lhsRes, err := DiscoverLHS(db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
	if err != nil {
		t.Fatal(err)
	}
	rhsRes, err := fd.DiscoverRHSCtx(context.Background(), db, lhsRes.LHS, lhsRes.Hidden, oracle, fd.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), db, rhsRes.FDs, rhsRes.Hidden, indRes.INDs, Opts{Oracle: oracle, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProperty3NFAcrossSeeds: for many generated workloads, the
// restructured catalog is always in 3NF with respect to the elicited
// dependencies — the paper's stated goal for Restruct.
func TestProperty3NFAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		spec := workload.DefaultSpec(seed)
		spec.FactRows = 400
		spec.DimensionRows = 60
		spec.EmbedProb = 0.7
		w, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := drive(t, w.DB, w.Joins, expert.NewAuto(), 2)
		if v := Verify3NF(w.DB.Catalog(), res.MappedFDs); v != nil {
			t.Errorf("seed %d: 3NF violations: %v", seed, v)
		}
	}
}

// TestPropertyRICsHoldAcrossSeeds: every emitted referential integrity
// constraint holds on the migrated extension (clean workloads; no forced
// decisions).
func TestPropertyRICsHoldAcrossSeeds(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		spec := workload.DefaultSpec(seed)
		spec.FactRows = 300
		spec.DimensionRows = 50
		w, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		auto := expert.NewAuto()
		auto.ConceptualizeNEI = false
		res := drive(t, w.DB, w.Joins, auto, 2)
		for _, d := range res.RIC {
			l := w.DB.MustTable(d.Left.Rel)
			r := w.DB.MustTable(d.Right.Rel)
			if !holdsIND(t, l, d.Left.Attrs, r, d.Right.Attrs) {
				t.Errorf("seed %d: RIC %s violated by migrated extension", seed, d)
			}
		}
	}
}

// TestPropertyRowConservation: restructuring never loses rows of the
// original relations (splits only remove columns) and new relations hold
// exactly their distinct projections.
func TestPropertyRowConservation(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		spec := workload.DefaultSpec(seed)
		spec.FactRows = 250
		spec.DimensionRows = 40
		w, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		before := map[string]int{}
		for _, name := range w.DB.Catalog().Names() {
			before[name] = w.DB.MustTable(name).Len()
		}
		auto := expert.NewAuto()
		auto.ConceptualizeNEI = false
		res := drive(t, w.DB, w.Joins, auto, 2)
		for name, n := range before {
			if got := w.DB.MustTable(name).Len(); got != n {
				t.Errorf("seed %d: relation %s rows %d -> %d", seed, name, n, got)
			}
		}
		if res.ConflictRows != 0 {
			t.Errorf("seed %d: %d conflicts on clean data", seed, res.ConflictRows)
		}
	}
}

// TestVerify3NFDetectsViolation ensures the checker itself is not vacuous.
func TestVerify3NFDetectsViolation(t *testing.T) {
	w, err := workload.Generate(workload.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Claim an FD that makes some fact relation non-3NF: a non-key
	// attribute determining another.
	var planted []deps.FD
	for _, l := range w.Truth.Links {
		if l.Embedded {
			planted = append(planted, deps.NewFD(l.Fact,
				relation.NewAttrSet(l.FK),
				relation.NewAttrSet(l.EmbeddedAttrs[0])))
			break
		}
	}
	if len(planted) == 0 {
		t.Skip("no embedded link in this seed")
	}
	if v := Verify3NF(w.DB.Catalog(), planted); len(v) == 0 {
		t.Error("denormalized schema passed the 3NF check")
	}
}
