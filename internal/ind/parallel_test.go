package ind

import (
	"context"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/paperex"
)

// TestParallelMatchesSerial runs the serial and parallel configurations
// over the paper fixture and requires byte-identical results (IND set,
// outcomes, new relations).
func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 8} {
		serialDB := paperex.Database()
		serial, err := DiscoverCtx(context.Background(), serialDB, paperex.Q(), paperex.Oracle(), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		parDB := paperex.Database()
		par, err := DiscoverCtx(context.Background(), parDB, paperex.Q(), paperex.Oracle(), Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if serial.INDs.String() != par.INDs.String() {
			t.Errorf("workers=%d: IND sets differ:\n%s\nvs\n%s", workers, serial.INDs, par.INDs)
		}
		if len(serial.Outcomes) != len(par.Outcomes) {
			t.Fatalf("workers=%d: outcome counts differ", workers)
		}
		for i := range serial.Outcomes {
			if serial.Outcomes[i].String() != par.Outcomes[i].String() {
				t.Errorf("workers=%d: outcome %d differs: %s vs %s",
					workers, i, serial.Outcomes[i], par.Outcomes[i])
			}
		}
		if serial.ExtensionQueries != par.ExtensionQueries {
			t.Errorf("workers=%d: query counts differ", workers)
		}
		if len(serial.NewRelations) != len(par.NewRelations) {
			t.Errorf("workers=%d: new relations differ", workers)
		}
	}
}

func TestParallelErrors(t *testing.T) {
	db := smallDB(t, []int64{1}, []int64{1})
	q := q1()
	q.Add(deps.NewEquiJoin(deps.NewSide("Ghost", "x"), deps.NewSide("R", "y")))
	res, err := DiscoverCtx(context.Background(), db, q, expert.Deny{}, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for _, o := range res.Outcomes {
		if o.Case == CaseError {
			errors++
		}
	}
	if errors != 1 {
		t.Errorf("error outcomes = %d", errors)
	}
	// The clean join still succeeds.
	if res.INDs.Len() != 2 { // equal sets: both directions
		t.Errorf("INDs = %s", res.INDs)
	}
}
