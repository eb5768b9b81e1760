package stats_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbre/internal/core"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// stripTimings removes the wall-clock section, the only part of a report
// that may legitimately differ between two runs (same helper as the
// top-level golden test).
func stripTimings(text string) string {
	if i := strings.Index(text, "\nTimings"); i >= 0 {
		return text[:i] + "\n"
	}
	return text
}

// randomSpec draws a small random workload specification. Everything
// downstream is deterministic in the spec (workload.Generate seeds its own
// rand from Spec.Seed), so the same spec always yields byte-identical
// databases and programs.
func randomSpec(rng *rand.Rand, seed int64) workload.Spec {
	dims := 2 + rng.Intn(4) // 2..5
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
		ProgramsPerJoin:   1,
	}
	if rng.Intn(3) == 0 {
		spec.Corruption = rng.Float64() * 0.1
	}
	if rng.Intn(4) == 0 {
		spec.CompositeDims = 1 + rng.Intn(dims)
	}
	return spec
}

// TestDifferentialCachedParallelVsReference is the headline harness of the
// statistics layer: across many random schemas, extensions and join sets it
// runs the full pipeline twice — once in the default configuration
// (serial, the pipeline's private cache), once with a caller-supplied
// statistics cache and a worker pool — and asserts the rendered reports
// are identical. The pipeline includes Restruct's splits and
// migrations, so every run also exercises the cache's invalidation against
// mid-pipeline mutations; the post-run audit then proves the surviving
// cache agrees with direct scans of the restructured extension.
func TestDifferentialCachedParallelVsReference(t *testing.T) {
	runs := 120
	if testing.Short() {
		runs = 25
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < runs; i++ {
		spec := randomSpec(rng, int64(1000+i))
		workers := []int{2, 4, 8}[rng.Intn(3)]
		inferKeys := rng.Intn(3) == 0
		t.Run(fmt.Sprintf("spec%03d", i), func(t *testing.T) {
			// Two identical databases from the same deterministic spec:
			// the pipeline mutates its input in place.
			ref, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}

			refRep, err := core.RunWithQ(ref.DB, ref.Joins, core.Options{
				Oracle:    expert.NewAuto(),
				InferKeys: inferKeys,
			}, nil)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			cache := stats.NewCache(cached.DB)
			cachedRep, err := core.RunWithQ(cached.DB, cached.Joins, core.Options{
				Oracle:      expert.NewAuto(),
				InferKeys:   inferKeys,
				Parallelism: workers,
				Stats:       cache,
			}, nil)
			if err != nil {
				t.Fatalf("cached run: %v", err)
			}

			refText := stripTimings(refRep.Text())
			cachedText := stripTimings(cachedRep.Text())
			if refText != cachedText {
				t.Errorf("spec %+v (workers=%d, inferKeys=%v):\nreference report:\n%s\ncached/parallel report:\n%s",
					spec, workers, inferKeys, refText, cachedText)
			}
			// Whenever IND-Discovery actually counted (≥ 1 join, hence
			// N_k, N_l and the shared-projection N_kl), the cache must
			// have been reused.
			if m := cache.Metrics(); cachedRep.IND.ExtensionQueries > 0 && m.Hits == 0 {
				t.Errorf("cache never hit despite %d extension queries: %+v", cachedRep.IND.ExtensionQueries, m)
			}

			// Post-run audit: Restruct replaced and migrated relations
			// after statistics were gathered; a cache that missed an
			// invalidation would now disagree with direct scans.
			for _, name := range cached.DB.Catalog().Names() {
				tab := cached.DB.MustTable(name)
				for _, a := range tab.Schema().Attrs {
					want, err := tab.DistinctCount([]string{a.Name})
					if err != nil {
						t.Fatal(err)
					}
					got, err := cache.DistinctCount(name, []string{a.Name})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("post-restruct %s.%s: cache says %d distinct, extension has %d", name, a.Name, got, want)
					}
				}
			}
		})
	}
}

// TestDifferentialPreOverhaulKernels runs the cached columnar pipeline
// twice per spec — once with the overhauled kernels (dense remapping,
// prefix-partition reuse) and once forced onto the pre-overhaul path
// (map-only remapping via a zero dense budget, prefix reuse disabled) —
// and requires byte-identical reports. Together with the serial-reference
// harness above and the definition-level oracle harness of the root
// package this certifies every kernel configuration at the report level.
func TestDifferentialPreOverhaulKernels(t *testing.T) {
	runs := 40
	if testing.Short() {
		runs = 10
	}
	rng := rand.New(rand.NewSource(0x0eed))
	for i := 0; i < runs; i++ {
		spec := randomSpec(rng, int64(9000+i))
		workers := []int{2, 4, 8}[rng.Intn(3)]
		inferKeys := rng.Intn(3) == 0
		t.Run(fmt.Sprintf("spec%03d", i), func(t *testing.T) {
			oldW, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			newW, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}

			prev := table.SetRefineDenseBudget(0)
			oldCache := stats.NewCache(oldW.DB)
			oldCache.SetPrefixReuse(false)
			oldRep, err := core.RunWithQ(oldW.DB, oldW.Joins, core.Options{
				Oracle:      expert.NewAuto(),
				InferKeys:   inferKeys,
				Parallelism: workers,
				Stats:       oldCache,
			}, nil)
			table.SetRefineDenseBudget(prev)
			if err != nil {
				t.Fatalf("pre-overhaul run: %v", err)
			}

			newCache := stats.NewCache(newW.DB)
			newRep, err := core.RunWithQ(newW.DB, newW.Joins, core.Options{
				Oracle:      expert.NewAuto(),
				InferKeys:   inferKeys,
				Parallelism: workers,
				Stats:       newCache,
			}, nil)
			if err != nil {
				t.Fatalf("overhauled run: %v", err)
			}

			oldText := stripTimings(oldRep.Text())
			newText := stripTimings(newRep.Text())
			if oldText != newText {
				t.Errorf("spec %+v (workers=%d, inferKeys=%v):\npre-overhaul report:\n%s\noverhauled report:\n%s",
					spec, workers, inferKeys, oldText, newText)
			}
		})
	}
}

// TestDifferentialBaselines runs the exhaustive IND and FD baselines in
// reference and parallel modes over random extensions and compares their
// complete results. The reference runs serially on its own copy of the
// extension.
func TestDifferentialBaselines(t *testing.T) {
	runs := 40
	if testing.Short() {
		runs = 10
	}
	rng := rand.New(rand.NewSource(0xba5e))
	for i := 0; i < runs; i++ {
		spec := randomSpec(rng, int64(5000+i))
		wRef, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		runBaselineComparison(t, i, wRef, w, rng)
	}
}

func runBaselineComparison(t *testing.T, i int, wRef, w *workload.Workload, rng *rand.Rand) {
	t.Helper()
	workers := 2 + rng.Intn(7)

	// Exhaustive IND discovery.
	iopts := ind.BaselineOptions{MaxArity: 1 + rng.Intn(2), TypePruning: true}
	refIND, err := ind.DiscoverBaseline(wRef.DB, iopts)
	if err != nil {
		t.Fatal(err)
	}
	iopts.Workers = workers
	gotIND, err := ind.DiscoverBaseline(w.DB, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderINDs(refIND), renderINDs(gotIND); a != b {
		t.Errorf("run %d: IND baseline diverged (workers=%d)\nreference:\n%s\ncached:\n%s", i, workers, a, b)
	}
	if refIND.CandidatesTested != gotIND.CandidatesTested || refIND.CandidatesPruned != gotIND.CandidatesPruned {
		t.Errorf("run %d: IND baseline counters diverged: %+v vs %+v", i, refIND, gotIND)
	}

	// Exhaustive FD discovery.
	fopts := fd.BaselineOptions{MaxLHS: 1 + rng.Intn(2), SkipKeys: rng.Intn(2) == 0}
	refFD, err := fd.DiscoverBaselineAll(wRef.DB, fopts)
	if err != nil {
		t.Fatal(err)
	}
	fopts.Workers = workers
	gotFD, err := fd.DiscoverBaselineAll(w.DB, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if len(refFD.FDs) != len(gotFD.FDs) || refFD.CandidatesTested != gotFD.CandidatesTested {
		t.Fatalf("run %d: FD baseline diverged: %d FDs/%d tested vs %d FDs/%d tested",
			i, len(refFD.FDs), refFD.CandidatesTested, len(gotFD.FDs), gotFD.CandidatesTested)
	}
	for j := range refFD.FDs {
		if refFD.FDs[j].String() != gotFD.FDs[j].String() {
			t.Errorf("run %d: FD %d diverged: %s vs %s", i, j, refFD.FDs[j], gotFD.FDs[j])
		}
	}
}

func renderINDs(r *ind.BaselineResult) string {
	var b strings.Builder
	for _, d := range r.INDs.Sorted() {
		fmt.Fprintf(&b, "%s\n", d)
	}
	return b.String()
}

// TestDifferentialDeltaReuse gates the delta partition refinement: across
// random workloads, a discovery state is grown through batch appends and
// re-validated twice — once with delta extension of stale projections
// enabled (the default), once with it disabled (every stale entry rebuilt
// from scratch) — and the discovery artifacts must be byte-identical. The
// enabled run must actually take the delta path (DeltaHits advances).
func TestDifferentialDeltaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	hits := uint64(0)
	for i := 0; i < 8; i++ {
		spec := randomSpec(rng, int64(1000+i))
		// Composite references give the re-validation multi-attribute
		// group vectors — the projections the delta path extends (stale
		// single-attribute entries re-share the code vector for free and
		// never need it).
		if spec.CompositeDims == 0 {
			spec.CompositeDims = 1
		}
		runOne := func(deltaReuse bool) (string, uint64) {
			wl, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cache := stats.NewCache(wl.DB)
			cache.SetDeltaReuse(deltaReuse)
			inc, err := core.DiscoverIncrementalPrograms(ctx, wl.DB, wl.Programs,
				core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Stats: cache})
			if err != nil {
				t.Fatal(err)
			}
			// Clone the first rows of every fact relation with fresh key
			// values: append-only growth that keeps every planted
			// dependency in place.
			for f := 0; f < spec.Facts; f++ {
				tab := wl.DB.MustTable(fmt.Sprintf("F%d", f))
				n := tab.Len()
				delta := 1 + n/10
				enc := table.NewChunkEncoder(tab)
				for r := 0; r < delta; r++ {
					row := tab.Row(r)
					row[0] = value.NewInt(int64(n + r + 1))
					if err := enc.AppendRow(row); err != nil {
						t.Fatal(err)
					}
				}
				if v, err := tab.NewAppender().AppendBatch(enc, true); err != nil || v != 0 {
					t.Fatalf("append F%d: violations=%d err=%v", f, v, err)
				}
			}
			if _, err := inc.Revalidate(ctx); err != nil {
				t.Fatal(err)
			}
			return stripTimings(inc.Report().Text()), cache.Metrics().DeltaHits
		}
		on, h := runOne(true)
		off, _ := runOne(false)
		if on != off {
			t.Fatalf("spec %d: delta reuse changed the report:\n--- on\n%s\n--- off\n%s", i, on, off)
		}
		hits += h
	}
	if hits == 0 {
		t.Error("delta extension never engaged across any workload")
	}
}
