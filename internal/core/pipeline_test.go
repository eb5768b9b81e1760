package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dbre/internal/deps"

	"dbre/internal/expert"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/workload"
)

// TestPaperEndToEnd drives the whole pipeline — programs in, EER out — on
// the paper's running example and checks every intermediate artifact
// (experiments E1–E7 through the integrated path).
func TestPaperEndToEnd(t *testing.T) {
	db := paperex.Database()
	opts := Options{Oracle: paperex.Oracle(), TransitiveClosure: true}
	rep, err := Run(db, paperex.Programs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// E1: K has 4 keys, N has 8 attributes.
	if len(rep.K) != 4 || len(rep.N) != 8 {
		t.Errorf("K=%d N=%d", len(rep.K), len(rep.N))
	}
	// E2: Q has the paper's 5 equi-joins.
	if rep.Q.Len() != 5 {
		t.Fatalf("Q = %s", rep.Q)
	}
	for _, q := range paperex.Q().Sorted() {
		if !rep.Q.Contains(q) {
			t.Errorf("Q missing %s", q)
		}
	}
	// E3: 6 INDs and S = {Ass-Dept}.
	var inds []string
	for _, d := range rep.IND.INDs.Sorted() {
		inds = append(inds, d.String())
	}
	if strings.Join(inds, "|") != strings.Join(paperex.ExpectedINDs(), "|") {
		t.Errorf("IND = %v", inds)
	}
	// E4: LHS and H.
	var lhs []string
	for _, l := range rep.LHS.LHS {
		lhs = append(lhs, l.String())
	}
	if strings.Join(lhs, "|") != strings.Join(paperex.ExpectedLHS(), "|") {
		t.Errorf("LHS = %v", lhs)
	}
	// E5: F and final H.
	var fds []string
	for _, f := range rep.RHS.FDs {
		fds = append(fds, f.String())
	}
	if strings.Join(fds, "|") != strings.Join(paperex.ExpectedFDs(), "|") {
		t.Errorf("F = %v", fds)
	}
	// E6: RIC.
	var ric []string
	for _, d := range rep.Restruct.RIC {
		ric = append(ric, d.String())
	}
	if strings.Join(ric, "|") != strings.Join(paperex.ExpectedRIC(), "|") {
		t.Errorf("RIC = %v", ric)
	}
	// E7: EER shape.
	if rep.EER == nil {
		t.Fatal("EER missing")
	}
	if len(rep.EER.Entities) != 8 || len(rep.EER.Relationships) != 3 || len(rep.EER.ISA) != 4 {
		t.Errorf("EER = %d entities, %d relationships, %d isa",
			len(rep.EER.Entities), len(rep.EER.Relationships), len(rep.EER.ISA))
	}
	// Report rendering mentions each phase.
	text := rep.Text()
	for _, want := range []string{
		"Constraint sets", "Equi-joins Q", "Inclusion dependencies",
		"Candidate FD left-hand sides", "Functional dependencies",
		"Restructured schema", "EER schema", "Timings",
		"Ass-Dept", "Department: emp -> proj, skill", // spot content
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report misses %q", want)
		}
	}
}

func TestRunWithQSkipTranslate(t *testing.T) {
	db := paperex.Database()
	opts := Options{Oracle: paperex.Oracle(), SkipTranslate: true}
	rep, err := RunWithQ(db, paperex.Q(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EER != nil {
		t.Error("EER built despite SkipTranslate")
	}
	if rep.Restruct == nil {
		t.Error("Restruct missing")
	}
	if !strings.Contains(rep.Text(), "Restructured schema") {
		t.Error("report misses restruct section")
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.Oracle == nil || !opts.TransitiveClosure {
		t.Errorf("DefaultOptions = %+v", opts)
	}
}

// TestWorkloadPerfectRecovery runs the pipeline on a clean generated
// workload and checks precision/recall of 1.0 (benchmark B6's claim).
func TestWorkloadPerfectRecovery(t *testing.T) {
	spec := workload.DefaultSpec(7)
	spec.Corruption = 0
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	auto := expert.NewAuto()
	auto.ConceptualizeNEI = false // NEIs on clean data are coincidences
	rep, err := Run(w.DB, w.Programs, Options{Oracle: auto, TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	score := Evaluate(rep, w.Truth)
	if score.INDRecall != 1 {
		t.Errorf("IND recall = %v", score)
	}
	if score.FDRecall != 1 {
		t.Errorf("FD recall = %v\nF=%v\nwant=%v", score, rep.RHS.FDs, w.Truth.ExpectedFDs)
	}
	if score.HiddenRecall != 1 {
		t.Errorf("hidden recall = %v", score)
	}
	if score.FDPrecision < 0.5 {
		t.Errorf("FD precision collapsed: %v", score)
	}
}

// TestWorkloadCorruption checks that dangling foreign keys surface as NEIs
// (expert consultations) and dent recall when the expert refuses to force
// dependencies (benchmark B7's claim).
func TestWorkloadCorruption(t *testing.T) {
	spec := workload.DefaultSpec(11)
	spec.Corruption = 0.05
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(w.DB, w.Programs, Options{Oracle: expert.Deny{}, TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	score := Evaluate(rep, w.Truth)
	if score.ExpertConsultations == 0 {
		t.Errorf("no NEI escalations despite corruption: %v", score)
	}
	if score.INDRecall == 1 {
		t.Errorf("corruption should dent strict IND recall: %v", score)
	}
	// A tolerant expert (forcing near-inclusions) restores recall.
	w2, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	auto := expert.NewAuto()
	auto.InclusionSlack = 0.90
	auto.ConceptualizeNEI = false
	rep2, err := Run(w2.DB, w2.Programs, Options{Oracle: auto, TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	score2 := Evaluate(rep2, w2.Truth)
	if score2.INDRecall <= score.INDRecall {
		t.Errorf("tolerant expert did not improve recall: %v vs %v", score2, score)
	}
	if s := score2.String(); !strings.Contains(s, "IND P=") {
		t.Errorf("Score.String = %q", s)
	}
}

// TestInferKeysOption strips the declared keys from a paper-like schema
// and checks that inference restores enough of K for the pipeline to work.
func TestInferKeysOption(t *testing.T) {
	db := paperex.Database()
	// Re-register schemas without their UNIQUE declarations, keeping the
	// extensions (simulating a dictionary with no key support).
	bare := db.Catalog().Clone()
	stripped := 0
	for _, s := range bare.Schemas() {
		if len(s.Uniques) > 0 {
			s.Uniques = nil
			stripped++
		}
	}
	// Rebuild a database over the bare catalog with the same rows.
	db2, err := rebuild(db, bare)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Oracle: paperex.Oracle(), InferKeys: true}
	rep, err := RunWithQ(db2, paperex.Q(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.InferredKeys) != stripped {
		t.Fatalf("inferred %v, stripped %d relations", rep.InferredKeys, stripped)
	}
	// Person.id must come back; HEmployee gets {no,date} (or smaller if
	// data-supported); K is non-empty everywhere.
	if len(rep.K) != stripped {
		t.Errorf("K = %v", rep.K)
	}
	found := false
	for _, k := range rep.K {
		if k.Rel == "Person" && k.Attrs.Contains("id") && k.Attrs.Len() == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("Person.id not re-inferred: %v", rep.K)
	}
	if !strings.Contains(rep.Text(), "inferred keys") {
		t.Error("report misses inferred keys section")
	}
}

// rebuild copies the rows of src into a fresh database over cat (which
// must have the same relations and attribute layouts).
func rebuild(src *table.Database, cat *relation.Catalog) (*table.Database, error) {
	out := table.NewDatabase(cat)
	for _, name := range cat.Names() {
		from := src.MustTable(name)
		to := out.MustTable(name)
		for i := 0; i < from.Len(); i++ {
			if err := to.Insert(from.Row(i)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func TestRunErrorPropagation(t *testing.T) {
	// A program referencing an unknown relation is simply no evidence;
	// the pipeline must still succeed.
	db := paperex.Database()
	programs := map[string]string{"bad.sql": "SELECT x FROM Nowhere, NowhereElse WHERE a = b;"}
	rep, err := Run(db, programs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Q.Len() != 0 {
		t.Errorf("Q = %s", rep.Q)
	}
}

// TestParallelismIdentical ensures the parallel IND phase leaves every
// pipeline artifact identical to the serial run.
func TestParallelismIdentical(t *testing.T) {
	serialDB := paperex.Database()
	serial, err := RunWithQ(serialDB, paperex.Q(), Options{Oracle: paperex.Oracle()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parDB := paperex.Database()
	par, err := RunWithQ(parDB, paperex.Q(), Options{Oracle: paperex.Oracle(), Parallelism: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.IND.INDs.String() != par.IND.INDs.String() {
		t.Error("IND sets differ")
	}
	if len(serial.Restruct.RIC) != len(par.Restruct.RIC) {
		t.Error("RIC differ")
	}
	if serial.EER.Text() != par.EER.Text() {
		t.Error("EER schemas differ")
	}
}

// TestCompositeKeyWorkloadRecovery: composite (two-attribute) dimension
// keys flow through the full pipeline — binary equi-joins, binary
// inclusion dependencies, full recall on clean data.
func TestCompositeKeyWorkloadRecovery(t *testing.T) {
	spec := workload.DefaultSpec(13)
	spec.CompositeDims = 2
	spec.DropProb = 0
	w, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	binaryExpected := 0
	for _, d := range w.Truth.ExpectedINDs {
		if len(d.Left.Attrs) == 2 {
			binaryExpected++
		}
	}
	if binaryExpected == 0 {
		t.Skip("seed produced no composite links")
	}
	auto := expert.NewAuto()
	auto.ConceptualizeNEI = false
	rep, err := Run(w.DB, w.Programs, Options{Oracle: auto, TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	score := Evaluate(rep, w.Truth)
	if score.INDRecall != 1 {
		t.Errorf("IND recall with composite keys = %v", score)
	}
	binaryFound := 0
	for _, d := range rep.IND.INDs.All() {
		if len(d.Left.Attrs) == 2 {
			binaryFound++
		}
	}
	if binaryFound < binaryExpected {
		t.Errorf("binary INDs: found %d of %d", binaryFound, binaryExpected)
	}
}

// TestRunContextCancelled proves the pipeline observes context
// cancellation: a pre-cancelled context returns context.Canceled without
// running any discovery phase, and a context cancelled mid-run (from the
// expert dialogue, where an API-backed oracle would block) aborts
// promptly instead of completing the remaining phases.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := paperex.Database()
	rep, err := RunContext(ctx, db, paperex.Programs, Options{Oracle: paperex.Oracle(), TransitiveClosure: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	if rep.IND != nil || rep.RHS != nil {
		t.Error("pre-cancelled run still produced discovery results")
	}

	// Cancel from inside the first expert consultation (the paper
	// example escalates one NEI): IND-Discovery must stop and later
	// phases must never start.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	db2 := paperex.Database()
	oracle := &cancellingOracle{inner: paperex.Oracle(), cancel: cancel2}
	rep2, err := RunContext(ctx2, db2, paperex.Programs, Options{Oracle: oracle, TransitiveClosure: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if rep2.Restruct != nil || rep2.EER != nil {
		t.Error("cancelled run still restructured")
	}
}

// cancellingOracle cancels the run from its first NEI consultation, then
// delegates — the shape of a server-side cancellation arriving while the
// expert dialogue is pending.
type cancellingOracle struct {
	inner  expert.Oracle
	cancel func()
}

func (o *cancellingOracle) DecideNEI(ctx expert.NEIContext) expert.NEIDecision {
	o.cancel()
	return o.inner.DecideNEI(ctx)
}
func (o *cancellingOracle) ValidateFD(fd deps.FD, s expert.FDSupport) bool {
	return o.inner.ValidateFD(fd, s)
}
func (o *cancellingOracle) EnforceFD(rel string, lhs relation.AttrSet, attr string, s expert.FDSupport) bool {
	return o.inner.EnforceFD(rel, lhs, attr, s)
}
func (o *cancellingOracle) ConceptualizeHidden(ref relation.Ref) bool {
	return o.inner.ConceptualizeHidden(ref)
}
func (o *cancellingOracle) NameRelation(k expert.NameKind, base relation.Ref, s string) string {
	return o.inner.NameRelation(k, base, s)
}
