package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbre/internal/obs"
	"dbre/internal/paperex"
)

// TestSharedProgramScan hands one pre-computed scan to concurrent runs
// (Options.Scan) and checks each against a run that scans itself: the
// rendered report, trace included, is byte-identical, because the
// replayed scan-file spans carry the same attributes and clock readings.
// Under -race it also proves the shared Q is only read.
func TestSharedProgramScan(t *testing.T) {
	run := func(scan *ProgramScan) *Report {
		tr := obs.NewTracerClock("dbre", fakeClock(time.Millisecond))
		opts := Options{Oracle: paperex.Oracle(), TransitiveClosure: true, Scan: scan}
		rep, err := RunContext(obs.NewContext(context.Background(), tr), paperex.Database(), paperex.Programs, opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		tr.Finish()
		return rep
	}
	ref := run(nil)
	if ref == nil {
		t.FailNow()
	}
	want := ref.Text()

	shared := ScanPrograms(context.Background(), paperex.Database().Catalog(), paperex.Programs, true)
	if !reflect.DeepEqual(shared.Summary, ref.Scan) {
		t.Fatalf("ScanPrograms summary %+v, run's %+v", shared.Summary, ref.Scan)
	}
	const K = 4
	reps := make([]*Report, K)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = run(shared)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			t.FailNow()
		}
		if rep.Q != shared.Q {
			t.Errorf("run %d does not use the shared Q", i)
		}
		if got := rep.Text(); got != want {
			t.Fatalf("run %d over the shared scan differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
