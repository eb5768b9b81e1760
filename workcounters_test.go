package dbre

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dbre/internal/core"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/table"
	"dbre/internal/workload"
)

// wideShape is the end-to-end benchmark's wide shape (e2ebench
// wideSpec: 12 dimensions, 8 facts of 2,500 tuples) generated from the
// fixed shape seed 42, with every relation's tuples in an order drawn
// from seed — the database e2ebench's oneshot and discover-cold
// workloads measure.
func wideShape(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	wl, err := workload.Generate(workload.Spec{
		Seed:       42,
		Dimensions: 12, Facts: 8, FKsPerFact: 4, AttrsPerDimension: 4,
		DimensionRows: 2000, FactRows: 2500, CompositeDims: 3,
		EmbedProb: 0.8, DropProb: 0.3, Corruption: 0.01,
		NearMissAttrs: 2, NearMissNoise: 0.002, FarMissAttrs: 4, ProgramsPerJoin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(wl.DB.Catalog())
	for _, name := range wl.DB.Catalog().Names() {
		src, dst := wl.DB.MustTable(name), db.MustTable(name)
		for _, i := range rng.Perm(src.Len()) {
			dst.MustInsert(src.Row(i))
		}
	}
	wl.DB = db
	return wl
}

// TestWideShapeWorkCounters pins the deterministic work counters of
// discovery on the wide shape, run as e2ebench's discover-cold runs it:
// a lazy snapshot open, then discovery with a fresh statistics cache,
// the automatic expert, closure on, two workers and the FD triage on.
// The counts are the paper's cost measure (§6.1: three extension
// queries per equi-join) plus the FD and projection kernels' work, so a
// change that alters any of them changes what the pipeline does, at
// every seed alike.
func TestWideShapeWorkCounters(t *testing.T) {
	want := []struct {
		c obs.Counter
		n int64
	}{
		{obs.CtrDistinctQueries, 99},
		{obs.CtrFDChecks, 770},
		{obs.CtrRowsScanned, 540000},
		{obs.CtrRefinements, 8},
		{obs.CtrSketchPrunes, 662},
		{obs.CtrSketchEscalations, 108},
	}
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wl := wideShape(t, seed)
			dir := filepath.Join(t.TempDir(), "snap")
			if err := storage.Snapshot(wl.DB, dir); err != nil {
				t.Fatal(err)
			}
			db, info, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer info.Close()
			tr := obs.NewTracer("wide")
			opts := core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Parallelism: 2, Sketch: true, Stats: stats.NewCache(db)}
			if _, err := core.DiscoverIncrementalPrograms(obs.NewContext(context.Background(), tr), db, wl.Programs, opts); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			for _, w := range want {
				if got := tr.Count(w.c); got != w.n {
					t.Errorf("%s = %d, want %d", w.c, got, w.n)
				}
			}
		})
	}
}
