package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Property tests for the refinement kernel: both remapping strategies —
// dense direct-addressed and sparse map — must produce bit-identical
// group vectors. The map path is the reference (it is the pre-overhaul
// kernel, itself certified against plain-map references by
// engine_differential_test.go).

// withBudget runs f under a temporary dense-remapping budget.
func withBudget(budget int64, f func()) {
	prev := SetRefineDenseBudget(budget)
	defer SetRefineDenseBudget(prev)
	f()
}

// refineSchema is a three-column schema whose small value domains force
// group collisions, with NULLs injected by randValue.
func refineSchema() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
		{Name: "f", Type: value.KindFloat},
	})
}

func fillRandom(t *testing.T, tab *Table, rng *rand.Rand, nrows int) {
	t.Helper()
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat}
	for n := 0; n < nrows; n++ {
		r := make(Row, len(kinds))
		for i, k := range kinds {
			r[i] = randValue(rng, k)
		}
		tab.InsertUnchecked(r)
	}
}

// mustProj builds tab's projection over attrs or fails the test.
func mustProj(t *testing.T, tab *Table, attrs []string) *Projection {
	t.Helper()
	p, err := tab.Projection(attrs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameProjection asserts the two projections agree on the bit level.
func sameProjection(t *testing.T, label string, want, got *Projection) {
	t.Helper()
	if !reflect.DeepEqual(want.RowGroup, got.RowGroup) {
		t.Errorf("%s: RowGroup vectors differ\nwant: %v\ngot:  %v", label, want.RowGroup, got.RowGroup)
	}
	if want.Len() != got.Len() || want.NonNull != got.NonNull {
		t.Errorf("%s: Len/NonNull = (%d,%d), want (%d,%d)",
			label, got.Len(), got.NonNull, want.Len(), want.NonNull)
	}
}

// TestRefineKernelPaths drives randomized NULL-bearing tables through
// every kernel configuration and requires bit-identical projections:
// map-only (budget 0), always-dense (unbounded budget), the default
// budget, and a mid budget that mixes strategies across steps of the
// same projection.
func TestRefineKernelPaths(t *testing.T) {
	attrs := []string{"i", "s", "f"}
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tab := New(refineSchema())
			fillRandom(t, tab, rng, 30+rng.Intn(150))
			var ref *Projection
			withBudget(0, func() { ref = mustProj(t, tab, attrs) })
			if ref.mapSteps != 2 || ref.denseSteps != 0 {
				t.Fatalf("budget 0 ran %d dense / %d map steps, want 0/2", ref.denseSteps, ref.mapSteps)
			}
			for _, budget := range []int64{1 << 40, -1, 8} {
				var got *Projection
				withBudget(budget, func() { got = mustProj(t, tab, attrs) })
				sameProjection(t, fmt.Sprintf("budget %d", budget), ref, got)
			}
			var dense *Projection
			withBudget(1<<40, func() { dense = mustProj(t, tab, attrs) })
			if dense.denseSteps != 2 || dense.mapSteps != 0 {
				t.Errorf("unbounded budget ran %d dense / %d map steps, want 2/0", dense.denseSteps, dense.mapSteps)
			}
		})
	}
}

// TestProjectDistinctLeavesRefinerPool pins ProjectDistinct to a
// call-local Refiner. Restruct and NEI materialization call it once per
// new relation; borrowing the pool would leave a dense table sized for
// that relation resident in it for the rest of the process. The pool's
// free list and the dense capacity it holds must be exactly what they
// were, also when a key deduplicates the groups.
func TestProjectDistinctLeavesRefinerPool(t *testing.T) {
	tab := New(refineSchema())
	fillRandom(t, tab, rand.New(rand.NewSource(5)), 2000)
	pool := func() (free, dense int) {
		refinerPool.mu.Lock()
		defer refinerPool.mu.Unlock()
		for _, r := range refinerPool.free {
			dense += cap(r.dense)
		}
		return len(refinerPool.free), dense
	}
	// Start from an empty pool so that any borrow shows up as a new free
	// entry, whatever earlier tests left behind.
	refinerPool.mu.Lock()
	saved := refinerPool.free
	refinerPool.free = nil
	refinerPool.mu.Unlock()
	defer func() {
		refinerPool.mu.Lock()
		refinerPool.free = saved
		refinerPool.mu.Unlock()
	}()
	for _, attrs := range [][]string{{"i"}, {"i", "s"}, {"i", "s", "f"}} {
		for _, key := range [][]string{attrs, attrs[:1]} {
			dst := New(relation.MustSchema("P", attrSchema(tab, attrs)))
			if _, err := tab.ProjectDistinct(dst, attrs, key, nil); err != nil || dst.Len() == 0 {
				t.Fatalf("ProjectDistinct%v key %v: %d rows, %v", attrs, key, dst.Len(), err)
			}
			if free, dense := pool(); free != 0 || dense != 0 {
				t.Fatalf("ProjectDistinct%v key %v left %d pooled Refiners holding %d dense slots", attrs, key, free, dense)
			}
		}
	}
}

// FuzzRefineKernel feeds fuzz-chosen code patterns through the map-only
// reference and three dense-remapping budgets and requires bit-identical
// group vectors. The
// fuzzer controls the row count, the value domains (including NULL
// density) and the per-row draws via the seed, so it explores group/dict
// shapes the property tests' fixed distributions do not.
func FuzzRefineKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(60))
	f.Add(int64(42), uint8(1), uint8(1), uint8(200))
	f.Add(int64(-9), uint8(12), uint8(2), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, domA, domB uint8, nrows uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := relation.MustSchema("F", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "c", Type: value.KindInt},
		})
		tab := New(s)
		da, db := int(domA)+1, int(domB)+1
		for n := 0; n < int(nrows); n++ {
			draw := func(dom int) value.Value {
				if rng.Intn(6) == 0 {
					return value.Null
				}
				return value.NewInt(int64(rng.Intn(dom)))
			}
			tab.InsertUnchecked(Row{draw(da), draw(db), draw(da * db)})
		}
		attrs := []string{"a", "b", "c"}
		var ref *Projection
		withBudget(0, func() { ref = mustProj(t, tab, attrs) })
		for _, budget := range []int64{-1, 1 << 40, 4} {
			var got *Projection
			withBudget(budget, func() { got = mustProj(t, tab, attrs) })
			sameProjection(t, fmt.Sprintf("budget %d", budget), ref, got)
		}
	})
}
