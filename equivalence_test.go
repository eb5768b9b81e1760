package dbre

import (
	"fmt"
	"math/rand"
	"testing"

	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// harnessConfig is one sampled execution configuration of the pipeline
// plus the share of nullable values the input has replaced by NULL.
type harnessConfig struct {
	parallelism int
	sketch      bool
	inferKeys   bool
	// preOverhaul forces the pre-overhaul refinement kernels: map-only
	// remapping (dense budget 0) and no prefix-partition reuse.
	preOverhaul bool
	nullRate    float64
}

func (c harnessConfig) String() string {
	return fmt.Sprintf("par=%d sketch=%v infer=%v pre-overhaul=%v nulls=%.3f",
		c.parallelism, c.sketch, c.inferKeys, c.preOverhaul, c.nullRate)
}

// settings names the sides of every sampled setting and whether c
// takes them; the harness requires each to be taken by some workload.
func (c harnessConfig) settings() map[string]bool {
	return map[string]bool{
		"parallel": c.parallelism > 1, "serial": c.parallelism <= 1,
		"sketch": c.sketch, "infer keys": c.inferKeys, "pre-overhaul": c.preOverhaul,
		"nulls": c.nullRate > 0, "no nulls": c.nullRate == 0,
	}
}

// sampleConfig draws a configuration; every setting is sampled
// independently so the run population covers their combinations.
func sampleConfig(rng *rand.Rand) harnessConfig {
	c := harnessConfig{
		sketch:      rng.Intn(2) == 0,
		inferKeys:   rng.Intn(3) == 0,
		preOverhaul: rng.Intn(3) == 0,
	}
	if rng.Intn(4) != 0 {
		c.parallelism = 2 + rng.Intn(7)
	}
	if rng.Intn(2) == 0 {
		c.nullRate = 0.02 + rng.Float64()*0.1
	}
	return c
}

// harnessSpec draws a small random workload. Everything downstream is
// deterministic in the spec (workload.Generate seeds its own rand from
// Spec.Seed), so one spec always yields byte-identical databases.
func harnessSpec(rng *rand.Rand, seed int64) workload.Spec {
	dims := 2 + rng.Intn(4)
	spec := workload.Spec{
		Seed:              seed,
		Dimensions:        dims,
		Facts:             1 + rng.Intn(3),
		FKsPerFact:        1 + rng.Intn(dims),
		AttrsPerDimension: 1 + rng.Intn(3),
		DimensionRows:     20 + rng.Intn(40),
		FactRows:          50 + rng.Intn(250),
		EmbedProb:         rng.Float64(),
		DropProb:          rng.Float64() * 0.5,
		ProgramsPerJoin:   1 + rng.Intn(2),
	}
	if rng.Intn(3) == 0 {
		spec.Corruption = rng.Float64() * 0.1 // dangling keys drive NEIs
	}
	if rng.Intn(4) == 0 {
		spec.CompositeDims = 1 + rng.Intn(dims)
	}
	return spec
}

// TestReverseEquivalenceCachedParallel is the pipeline harness. Random
// workloads run through Reverse itself — program scanning included —
// twice: once in the reference configuration (the default: serial, exact
// counting, the pipeline's private cache) and once in a sampled
// configuration (Parallelism, Sketch, InferKeys, pre-overhaul kernels)
// with a caller-owned cache. The reports must match byte for byte
// (timings aside), and so must the complete audit log of expert
// consultations: the worker pool, the triage tier and the kernels may
// reorganize the counting, but never what the expert is asked, in what
// order, or what the method concludes.
//
// Both reports are then certified against the definition-level oracle
// (oracle_test.go) on an untouched copy of the input: every join's
// N_k/N_l/N_kl, the set of A → b checks, and every check's support. The
// sampled run's caller-owned cache must have been hit whenever
// IND-Discovery counted, and after Restruct's splits and migrations it
// must still agree with the oracle on every column of the restructured
// extension — a missed invalidation would show here.
func TestReverseEquivalenceCachedParallel(t *testing.T) {
	runs := 100
	if testing.Short() {
		runs = 20
	}
	rng := rand.New(rand.NewSource(0xd1ff))
	covered := make(map[string]int)
	for i := 0; i < runs; i++ {
		spec := harnessSpec(rng, int64(9000+i))
		cfg := sampleConfig(rng)
		for name, on := range cfg.settings() {
			if on {
				covered[name]++
			}
		}
		t.Run(fmt.Sprintf("workload%03d", i), func(t *testing.T) {
			w, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			copyDB := func() *Database { return rebuild(t, w.DB, cfg.nullRate, spec.Seed) }
			pristine, refDB, gotDB := copyDB(), copyDB(), copyDB()
			refExpert := RecordingExpert(AutoExpert())
			refRep, err := Reverse(refDB, w.Programs, Options{
				Oracle:            refExpert,
				TransitiveClosure: true,
				InferKeys:         cfg.inferKeys,
			})
			if err != nil {
				t.Fatalf("reference Reverse: %v", err)
			}
			gotExpert := RecordingExpert(AutoExpert())
			cache := stats.NewCache(gotDB)
			gotRep, err := runConfigured(cfg, cache, func(opts Options) (*Report, error) {
				opts.Oracle = gotExpert
				return Reverse(gotDB, w.Programs, opts)
			})
			if err != nil {
				t.Fatalf("Reverse (%s): %v", cfg, err)
			}

			if a, b := stripTimings(refRep.Text()), stripTimings(gotRep.Text()); a != b {
				t.Errorf("spec %+v (%s): reports diverged\nreference:\n%s\nsampled:\n%s", spec, cfg, a, b)
			}
			if refRep.EER.DOT() != gotRep.EER.DOT() {
				t.Errorf("spec %+v (%s): EER schemas diverged", spec, cfg)
			}
			if len(refExpert.Log) != len(gotExpert.Log) {
				t.Fatalf("expert consulted %d times in reference, %d in sampled mode", len(refExpert.Log), len(gotExpert.Log))
			}
			for j := range refExpert.Log {
				if refExpert.Log[j] != gotExpert.Log[j] {
					t.Errorf("expert consultation %d diverged:\n  reference: %s\n  sampled:   %s", j, refExpert.Log[j], gotExpert.Log[j])
				}
			}

			certify(t, "reference", refRep, pristine, false)
			certify(t, cfg.String(), gotRep, pristine, cfg.sketch)
			certifyEER(t, "reference", refRep, refDB)
			certifyEER(t, cfg.String(), gotRep, gotDB)
			if m := cache.Metrics(); gotRep.IND.ExtensionQueries > 0 && m.Hits == 0 {
				t.Errorf("cache never hit despite %d extension queries: %+v", gotRep.IND.ExtensionQueries, m)
			}
			auditCache(t, gotDB, cache)
		})
	}
	if !testing.Short() {
		for name := range (harnessConfig{}).settings() {
			if covered[name] == 0 {
				t.Errorf("no sampled workload ran with %s", name)
			}
		}
	}
}

// TestPaperReportMatchesOracle certifies the paper example's one-shot
// report, under its scripted expert, against the oracle in four
// configurations that together take every sampled execution setting
// (the input keeps its own data, nulls included). Its expert
// is support-insensitive, so the sketch runs also exercise sample
// refutation's lower-bound supports.
func TestPaperReportMatchesOracle(t *testing.T) {
	for _, cfg := range []harnessConfig{
		{},
		{parallelism: 2, sketch: true},
		{inferKeys: true},
		{parallelism: 4, preOverhaul: true, inferKeys: true, sketch: true},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			db := rebuild(t, paperex.Database(), cfg.nullRate, 0)
			rep, err := runConfigured(cfg, stats.NewCache(db), func(opts Options) (*Report, error) {
				opts.Oracle = paperex.Oracle()
				return ReverseWithQ(db, paperex.Q(), opts)
			})
			if err != nil {
				t.Fatal(err)
			}
			certify(t, cfg.String(), rep, paperex.Database(), cfg.sketch)
			certifyEER(t, cfg.String(), rep, db)
		})
	}
}

// runConfigured runs the pipeline (through run, which sets the oracle)
// in configuration cfg with the caller-owned cache.
func runConfigured(cfg harnessConfig, cache *stats.Cache, run func(Options) (*Report, error)) (*Report, error) {
	if cfg.preOverhaul {
		prev := table.SetRefineDenseBudget(0)
		defer table.SetRefineDenseBudget(prev)
		cache.SetPrefixReuse(false)
	}
	return run(Options{
		TransitiveClosure: true,
		InferKeys:         cfg.inferKeys,
		Parallelism:       cfg.parallelism,
		Sketch:            cfg.sketch,
		Stats:             cache,
	})
}

// rebuild copies db, replacing each value of an attribute
// outside N (not NOT NULL, not in a UNIQUE) by NULL with probability
// nullRate, deterministically in seed: the generated workloads carry no
// NULLs, and the NULL rules of every count must be exercised.
func rebuild(t *testing.T, db *Database, nullRate float64, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := table.NewDatabase(db.Catalog().Clone())
	for _, name := range db.Catalog().Names() {
		src, dst := db.MustTable(name), out.MustTable(name)
		notNull := src.Schema().NotNullSet()
		for i := 0; i < src.Len(); i++ {
			row := src.Row(i)
			for c, a := range src.Schema().Attrs {
				if !notNull.Contains(a.Name) && rng.Float64() < nullRate {
					row[c] = value.Null
				}
			}
			if err := dst.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// certify checks a cold report against the oracle evaluated on pristine,
// an untouched copy of the run's input. IND-Discovery counts before any
// NEI relation exists and RHS-Discovery's candidates live on input
// relations (a relation of S only ever occurs on an IND's left side),
// so the input extension is the one both phases read. With sketch, a
// sample-refuted support carries a certain lower bound on the
// violations: the row count and holds/fails must still be exact.
func certify(t *testing.T, label string, rep *Report, pristine *Database, sketch bool) {
	t.Helper()
	for _, o := range rep.IND.Outcomes {
		if o.Err != nil {
			t.Errorf("%s: join %s failed: %v", label, o.Join, o.Err)
			continue
		}
		nk, nl, nkl, err := oracleJoinCounts(mustTable(t, pristine, o.Join.Left.Rel), o.Join.Left.Attrs,
			mustTable(t, pristine, o.Join.Right.Rel), o.Join.Right.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		if o.NK != nk || o.NL != nl || o.NKL != nkl {
			t.Errorf("%s: %s counted Nk=%d Nl=%d Nkl=%d, oracle says %d/%d/%d", label, o.Join, o.NK, o.NL, o.NKL, nk, nl, nkl)
		}
	}

	key := constraintSets(rep.K)
	notNull := constraintSets(rep.N)
	checks := 0
	for _, cand := range append(append([]relation.Ref{}, rep.LHS.LHS...), rep.LHS.Hidden...) {
		tab := mustTable(t, pristine, cand.Rel)
		for _, b := range oracleChecks(tab.Schema(), cand, key[cand.Rel], notNull[cand.Rel]) {
			checks++
			got, ok := rep.RHS.Supports[[2]string{cand.Key(), b}]
			if !ok {
				t.Errorf("%s: check %s -> %s missing from the run", label, cand, b)
				continue
			}
			rows, violations, err := oracleSupport(tab, cand.Attrs.Names(), b)
			if err != nil {
				t.Fatal(err)
			}
			exact := got.Rows == rows && got.Violations == violations
			bound := sketch && got.Rows == rows && got.Violations > 0 && got.Violations <= violations
			if !exact && !bound {
				t.Errorf("%s: support of %s -> %s is %+v, oracle says rows=%d violations=%d", label, cand, b, got, rows, violations)
			}
		}
	}
	if len(rep.RHS.Supports) != checks {
		t.Errorf("%s: the run made %d checks, the §6.2.2 check set has %d", label, len(rep.RHS.Supports), checks)
	}
}

// certifyEER checks the cardinality and participation marks Translate's
// annotation put on every binary relationship against the oracle,
// evaluated on final, the restructured database the run annotated from.
// Translate emits a binary relationship either as N leg then 1 leg (a
// RIC from R[F] to S's key T) or as two N legs (a relationship-type
// relation); the second kind is never annotated.
func certifyEER(t *testing.T, label string, rep *Report, final *Database) {
	t.Helper()
	if rep.EER == nil {
		t.Fatalf("%s: the run produced no EER schema", label)
	}
	for _, r := range rep.EER.Relationships {
		if len(r.Participants) != 2 {
			continue
		}
		n, one := r.Participants[0], r.Participants[1]
		if one.Card != "1" {
			if n.Card != "N" || n.Optional || one.Optional {
				t.Errorf("%s: unannotated relationship %s carries marks %+v", label, r.Name, r.Participants)
			}
			continue
		}
		nTab, oneTab := mustTable(t, final, n.Entity), mustTable(t, final, one.Entity)
		nonNull, err := oracleNonNull(nTab, n.Via)
		if err != nil {
			t.Fatal(err)
		}
		nk, nl, nkl, err := oracleJoinCounts(nTab, n.Via, oneTab, one.Via)
		if err != nil {
			t.Fatal(err)
		}
		wantCard := "N"
		if nonNull > 0 && nk == nonNull {
			wantCard = "1"
		}
		wantNOpt, wantOneOpt := nonNull < nTab.Len(), nkl < nl
		if n.Card != wantCard || n.Optional != wantNOpt || one.Optional != wantOneOpt {
			t.Errorf("%s: relationship %s marked %s/optional=%v and optional=%v; oracle says %s/%v and %v (rows=%d non-NULL=%d Nk=%d Nl=%d Nkl=%d)",
				label, r.Name, n.Card, n.Optional, one.Optional, wantCard, wantNOpt, wantOneOpt, nTab.Len(), nonNull, nk, nl, nkl)
		}
	}
}

// auditCache compares the cache's distinct counts with the oracle on
// every column of db's current (restructured) extension.
func auditCache(t *testing.T, db *Database, cache *stats.Cache) {
	t.Helper()
	for _, name := range db.Catalog().Names() {
		tab := db.MustTable(name)
		for _, a := range tab.Schema().Attrs {
			want, err := oracleProjection(tab, []string{a.Name})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cache.DistinctCount(name, []string{a.Name})
			if err != nil {
				t.Fatal(err)
			}
			if got != len(want) {
				t.Errorf("post-restruct %s.%s: cache says %d distinct, oracle %d", name, a.Name, got, len(want))
			}
		}
	}
}

// constraintSets groups a constraint set (K or N) by relation into
// attribute sets.
func constraintSets(refs []relation.Ref) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, r := range refs {
		if out[r.Rel] == nil {
			out[r.Rel] = make(map[string]bool)
		}
		for _, a := range r.Attrs.Names() {
			out[r.Rel][a] = true
		}
	}
	return out
}

func mustTable(t *testing.T, db *Database, rel string) *table.Table {
	t.Helper()
	tab, ok := db.Table(rel)
	if !ok {
		t.Fatalf("oracle: relation %s is not in the input", rel)
	}
	return tab
}
