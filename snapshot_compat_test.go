package dbre

import (
	"os"
	"path/filepath"
	"testing"

	"dbre/internal/workload"
)

// sketchFlagSpec generates the data of testdata/sketch-flag-snapshot.
func sketchFlagSpec() workload.Spec {
	return workload.Spec{
		Seed: 7, Dimensions: 3, Facts: 2, FKsPerFact: 2, AttrsPerDimension: 2,
		DimensionRows: 40, FactRows: 150, EmbedProb: 0.5, DropProb: 0.3,
		Corruption: 0.02, ProgramsPerJoin: 1,
	}
}

// TestSnapshotWithSketchFlagOpens: snapshots written while tables could
// carry column sketches set a table-meta flag bit and follow it with
// three configuration uvarints (HyperLogLog precision 12, signature size
// 256, sample size 512: five bytes per relation). The decoder skips them.
// testdata/sketch-flag-snapshot holds such a snapshot of
// sketchFlagSpec's database, written with sketches enabled on every
// relation. It must open, lazily and preloaded, and the report of a
// discovery over it must be byte-equal to the report over the same data
// snapshotted without the flag.
func TestSnapshotWithSketchFlagOpens(t *testing.T) {
	wl, err := workload.Generate(sketchFlagSpec())
	if err != nil {
		t.Fatal(err)
	}
	plain := t.TempDir()
	if err := Snapshot(wl.DB, plain); err != nil {
		t.Fatal(err)
	}
	flagged := filepath.Join("testdata", "sketch-flag-snapshot")
	size := func(dir string) int64 {
		fi, err := os.Stat(filepath.Join(dir, "snapshot.dbre"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if got, want := size(flagged)-size(plain), int64(5*wl.DB.Catalog().Len()); got != want {
		t.Fatalf("the flagged snapshot is %d bytes larger than a flag-less one, want %d: it does not carry the flag", got, want)
	}

	report := func(dir string, preload bool) string {
		db, info, err := OpenSnapshotContext(t.Context(), dir, SnapshotOptions{Preload: preload})
		if err != nil {
			t.Fatal(err)
		}
		defer info.Close()
		rep, err := Reverse(db, wl.Programs, Options{Oracle: AutoExpert(), TransitiveClosure: true, Sketch: true})
		if err != nil {
			t.Fatal(err)
		}
		return stripTimings(rep.Text())
	}
	want := report(plain, false)
	for _, preload := range []bool{false, true} {
		if got := report(flagged, preload); got != want {
			t.Errorf("preload %v: report over the flagged snapshot differs:\n%s", preload, diffHint(want, got))
		}
	}
}
