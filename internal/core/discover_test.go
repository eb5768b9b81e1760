package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/paperex"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// phaseSignature renders every discovery artifact a report carries — K,
// N, the inferred keys, the IND-Discovery outcome log, IND and S, the
// LHS-Discovery candidates and seeds, and the RHS-Discovery traces, F
// and H — one item per line.
func phaseSignature(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "K=%v\nN=%v\ninferred=%v\n", rep.K, rep.N, rep.InferredKeys)
	for _, o := range rep.IND.Outcomes {
		fmt.Fprintf(&b, "outcome %s\n", o)
	}
	fmt.Fprintf(&b, "IND=%s\nS=%v\n", rep.IND.INDs, rep.IND.NewRelations)
	fmt.Fprintf(&b, "LHS=%v\nseeds=%v\n", rep.LHS.LHS, rep.LHS.Hidden)
	for _, tr := range rep.RHS.Traces {
		fmt.Fprintf(&b, "trace %s\n", tr)
	}
	fmt.Fprintf(&b, "F=%v\nH=%v\nchecks=%d\n", rep.RHS.FDs, rep.RHS.Hidden, rep.RHS.ExtensionChecks)
	return b.String()
}

// keylessPaperDatabase is the paper example with every UNIQUE declaration
// stripped, so key inference has work to do.
func keylessPaperDatabase(t *testing.T) *table.Database {
	t.Helper()
	db := paperex.Database()
	bare := db.Catalog().Clone()
	for _, s := range bare.Schemas() {
		s.Uniques = nil
	}
	out, err := rebuild(db, bare)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOneShotEqualsIncrementalInitialPass ties the two drivers together:
// the one-shot pipeline and the cold pass of DiscoverIncremental run the
// same discovery phases, so on the same input they must agree on every
// discovery artifact. The root package's oracle harness certifies the
// one-shot counts against the definitions.
func TestOneShotEqualsIncrementalInitialPass(t *testing.T) {
	spec := workload.DefaultSpec(5)
	spec.Corruption = 0.05 // dangling keys drive NEI escalations
	inputs := []struct {
		name   string
		build  func(t *testing.T) (*table.Database, *deps.JoinSet)
		oracle func() expert.Oracle
		// keyless inputs need InferKeys: Restruct requires keys.
		keyless bool
	}{
		{"paper", func(*testing.T) (*table.Database, *deps.JoinSet) { return paperex.Database(), paperex.Q() },
			func() expert.Oracle { return paperex.Oracle() }, false},
		{"paper-keyless", func(t *testing.T) (*table.Database, *deps.JoinSet) { return keylessPaperDatabase(t), paperex.Q() },
			func() expert.Oracle { return paperex.Oracle() }, true},
		{"workload", func(t *testing.T) (*table.Database, *deps.JoinSet) {
			w, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			return w.DB, w.Joins
		}, func() expert.Oracle { return expert.NewAuto() }, false},
	}
	ctx := context.Background()
	for _, in := range inputs {
		for _, inferKeys := range []bool{false, true} {
			if in.keyless && !inferKeys {
				continue
			}
			for _, par := range []int{0, 2} {
				for _, sketch := range []bool{false, true} {
					name := fmt.Sprintf("%s/infer=%v/par=%d/sketch=%v", in.name, inferKeys, par, sketch)
					t.Run(name, func(t *testing.T) {
						opts := func() Options {
							return Options{Oracle: in.oracle(), InferKeys: inferKeys, Parallelism: par, Sketch: sketch}
						}
						db, q := in.build(t)
						inc, err := DiscoverIncremental(ctx, db, q, opts())
						if err != nil {
							t.Fatal(err)
						}
						want := phaseSignature(inc.Report())

						db, q = in.build(t)
						one, err := RunWithQ(db, q, opts(), nil)
						if err != nil {
							t.Fatal(err)
						}
						if got := phaseSignature(one); got != want {
							t.Errorf("one-shot diverges from the incremental pass:\n--- one-shot\n%s\n--- incremental\n%s", got, want)
						}
						if got, want := one.IND.ExtensionQueries, inc.Report().IND.ExtensionQueries; got != want {
							t.Errorf("extension queries: one-shot %d, incremental %d", got, want)
						}

					})
				}
			}
		}
	}
}

// childNames lists the names of the direct children of the top-level span
// called phase.
func childNames(t *testing.T, tr *obs.Tracer, phase string) []string {
	t.Helper()
	for _, sp := range tr.Root().Children() {
		if sp.Name() != phase {
			continue
		}
		var names []string
		for _, c := range sp.Children() {
			names = append(names, c.Name())
		}
		return names
	}
	t.Fatalf("no %q span in the trace", phase)
	return nil
}

// breakingDepartmentRow violates the accepted FD emp → skill of
// Department and adds a department code, moving the evidence of the
// Assignment–Department join (the paper's NEI, conceptualized as
// Ass-Dept).
func breakingDepartmentRow() []table.Row {
	return []table.Row{{
		value.NewInt(9999), value.NewInt(1), value.NewString("skill-off"), value.NewString("location-off"), value.NewInt(1),
	}}
}

// TestDiscoverySpanContract pins the span names and re-escalation counter
// of both discovery modes; the per-layer breakdown of the end-to-end
// benchmark attributes time by exactly these names.
func TestDiscoverySpanContract(t *testing.T) {
	db := paperex.Database()
	cold := obs.NewTracer("cold")
	inc, err := DiscoverIncremental(obs.NewContext(context.Background(), cold), db, paperex.Q(), Options{Oracle: paperex.Oracle(), Sketch: true})
	if err != nil {
		t.Fatal(err)
	}
	cold.Finish()
	if got := fmt.Sprint(childNames(t, cold, "ind-discovery")); got != "[count decide]" {
		t.Errorf("cold ind-discovery spans = %s", got)
	}
	if got := fmt.Sprint(childNames(t, cold, "rhs-discovery")); got != "[plan check decide]" {
		t.Errorf("cold rhs-discovery spans = %s", got)
	}
	if n := cold.Count(obs.CtrReescalations); n != 0 {
		t.Errorf("cold pass published %d re-escalations", n)
	}

	appendRows(t, db, "Department", breakingDepartmentRow())
	delta := obs.NewTracer("delta")
	if _, err := inc.Revalidate(obs.NewContext(context.Background(), delta)); err != nil {
		t.Fatal(err)
	}
	delta.Finish()
	if got := fmt.Sprint(childNames(t, delta, "ind-discovery")); got != "[count-delta decide-delta]" {
		t.Errorf("delta ind-discovery spans = %s", got)
	}
	if got := fmt.Sprint(childNames(t, delta, "rhs-discovery")); got != "[plan-delta check-delta decide-delta]" {
		t.Errorf("delta rhs-discovery spans = %s", got)
	}
	if n := delta.Count(obs.CtrReescalations); n == 0 {
		t.Error("breaking append published no re-escalations")
	}
}

// TestRevalidateCountsNEIEscalations: a re-validation publishes
// nei-escalated for the joins it sends back to the expert as non-empty
// intersections, and only for those — replayed and recounted-unchanged
// joins do not reach the expert.
func TestRevalidateCountsNEIEscalations(t *testing.T) {
	db := paperex.Database()
	inc, err := DiscoverIncremental(context.Background(), db, paperex.Q(), Options{Oracle: paperex.Oracle()})
	if err != nil {
		t.Fatal(err)
	}

	appendRows(t, db, "Assignment", cleanAssignmentRows(20, 0))
	clean := obs.NewTracer("clean")
	dr, err := inc.Revalidate(obs.NewContext(context.Background(), clean))
	if err != nil {
		t.Fatal(err)
	}
	if dr.IND.Redecided != 0 {
		t.Fatalf("precondition: clean append re-decided joins: %+v", dr.IND)
	}
	if n := clean.Count(obs.CtrNEIEscalated); n != 0 {
		t.Errorf("clean append published %d NEI escalations; nothing reached the expert", n)
	}

	appendRows(t, db, "Department", breakingDepartmentRow())
	moved := obs.NewTracer("moved")
	dr, err = inc.Revalidate(obs.NewContext(context.Background(), moved))
	if err != nil {
		t.Fatal(err)
	}
	if dr.IND.Redecided == 0 {
		t.Fatalf("precondition: moved NEI join not re-decided: %+v", dr.IND)
	}
	if n := moved.Count(obs.CtrNEIEscalated); n == 0 {
		t.Error("re-decided NEI join published no nei-escalated")
	}
}
