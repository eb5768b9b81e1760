package dbre

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/obs"
	"dbre/internal/relation"
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
		{obs.CtrRowsScanned, 536000},
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

// TestB12KernelMix pins the refinement kernel mix of cmd/bench's B12 run
// (BENCH_B12.json's exact counters): RHS-Discovery through a traced
// statistics cache on the composite-key workload — 100k fact tuples,
// three composite-key dimensions, heavy embedding — runs its six
// refinement steps through the dense remapping table and none through
// the map fallback.
func TestB12KernelMix(t *testing.T) {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000
	spec.CompositeDims = 3
	spec.EmbedProb = 0.9
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	tr := obs.NewTracer("b12")
	cache := stats.NewCache(wl.DB)
	cache.SetTracer(tr)
	if _, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache}); err != nil {
		t.Fatal(err)
	}
	if dense, mapped := tr.Count(obs.CtrRefineDense), tr.Count(obs.CtrRefineMap); dense != 6 || mapped != 0 {
		t.Errorf("refinement steps: %d dense, %d map; want 6 dense, 0 map", dense, mapped)
	}
}

// ingestShape is cmd/bench's B13/B15 extension: the default workload at
// seed 42 with 100k fact tuples and 2% corruption, stored as CSV into
// dir and loaded back through the 8-worker parallel loader under tr.
func ingestShape(t *testing.T, dir string, tr *obs.Tracer) *table.Database {
	t.Helper()
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0.02
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := csvio.Options{Parallelism: 8}
	if err := csvio.StoreDirCtx(context.Background(), wl.DB, dir, opts); err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(wl.DB.Catalog().Clone())
	if _, err := csvio.LoadDirCtx(obs.NewContext(context.Background(), tr), db, dir, false, opts); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestB13IngestCounters pins cmd/bench B13's exact counters
// (BENCH_B13.json): the parallel load of the B13 extension parses 10
// chunks and merges no chunk dictionary into a global one — every
// relation is one chunk, adopted by its empty table.
func TestB13IngestCounters(t *testing.T) {
	tr := obs.NewTracer("b13")
	ingestShape(t, t.TempDir(), tr)
	if chunks, remaps := tr.Count(obs.CtrIngestChunks), tr.Count(obs.CtrIngestMergeRemaps); chunks != 10 || remaps != 0 {
		t.Errorf("ingest: %d chunks, %d merge remaps; want 10 chunks, 0 remaps", chunks, remaps)
	}
}

// TestB15SnapshotBytes pins cmd/bench B15's exact counters
// (BENCH_B15.json) and more: the snapshot of the B13 extension is
// 4,648,208 bytes with the SHA-256 below, and a lazy open leaves all 59
// column sections on disk. Snapshot bytes are deterministic (catalog
// order, sorted map keys, no timestamps), so the digest pins the on-disk
// encoding of every dictionary and counter, not only its size.
func TestB15SnapshotBytes(t *testing.T) {
	const (
		wantSize = 4648208
		wantSHA  = "6cc3927b7c11dd87f792b957456bdfebe26e5c55f63c659e8ad69fa5250bf9a9"
	)
	dir := t.TempDir()
	db := ingestShape(t, filepath.Join(dir, "csv"), obs.NewTracer("b15"))
	snap := filepath.Join(dir, "snap")
	if err := storage.Snapshot(db, snap); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(snap, storage.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wantSize {
		t.Errorf("snapshot: %d bytes, want %d", len(b), wantSize)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != wantSHA {
		t.Errorf("snapshot SHA-256 %s, want %s", got, wantSHA)
	}
	_, info, err := storage.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	if info.LazyColumns != 59 {
		t.Errorf("lazy open: %d column sections deferred, want 59", info.LazyColumns)
	}
}
