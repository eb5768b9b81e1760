package stats_test

import (
	"fmt"
	"testing"

	"dbre/internal/fd"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Allocation-regression tests for the columnar counting kernels: the
// speedups claimed in EXPERIMENTS.md B10 come as much from not allocating
// as from not hashing, so the allocation profiles are pinned here with
// testing.Benchmark + AllocsPerOp. Bounds are ceilings, not exact counts —
// tightening an implementation must never fail them, growing a per-row
// allocation should.

// allocDB builds a columnar relation R(a,b,c) with nrows rows and enough
// value repetition that grouping is non-trivial.
func allocDB(tb testing.TB, nrows int) *table.Database {
	tb.Helper()
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	})
	cat, err := relation.NewCatalog(r)
	if err != nil {
		tb.Fatal(err)
	}
	db := table.NewDatabase(cat)
	tab := db.MustTable("R")
	for i := 0; i < nrows; i++ {
		tab.MustInsert(table.Row{
			value.NewInt(int64(i % 97)),
			value.NewInt(int64(i % 13)),
			value.NewString(fmt.Sprintf("s%d", i%29)),
		})
	}
	return db
}

func allocsPerOp(f func()) int64 {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return res.AllocsPerOp()
}

// TestAllocsColumnarDistinctCount pins the headline O(1) kernel: a
// single-attribute distinct count on the columnar engine is the dictionary
// length and must not allocate at all.
func TestAllocsColumnarDistinctCount(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks skipped in -short mode")
	}
	db := allocDB(t, 5000)
	tab := db.MustTable("R")
	attrs := []string{"a"}
	if got := allocsPerOp(func() {
		if _, err := tab.DistinctCount(attrs); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("columnar single-attribute DistinctCount: %d allocs/op, want 0", got)
	}
}

// TestAllocsCachedDistinctCount pins the warmed cache path: a hit costs
// only the map-key construction, independent of table size.
func TestAllocsCachedDistinctCount(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks skipped in -short mode")
	}
	db := allocDB(t, 5000)
	cache := stats.NewCache(db)
	attrs := []string{"a", "b"}
	if _, err := cache.DistinctCount("R", attrs); err != nil { // warm
		t.Fatal(err)
	}
	if got := allocsPerOp(func() {
		if _, err := cache.DistinctCount("R", attrs); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("warmed cache DistinctCount: %d allocs/op, want ≤ 4", got)
	}
}

// TestAllocsCheckStatsWarm pins the FD check over warmed projections:
// the support memo's lookup (whose key construction dominates the count)
// — never per-row or per-group allocations.
func TestAllocsCheckStatsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks skipped in -short mode")
	}
	db := allocDB(t, 5000)
	cache := stats.NewCache(db)
	lhs := []string{"a", "b"}
	if _, err := fd.CheckStats(cache, "R", lhs, "c"); err != nil { // warm
		t.Fatal(err)
	}
	if got := allocsPerOp(func() {
		if _, err := fd.CheckStats(cache, "R", lhs, "c"); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("warmed CheckStats: %d allocs/op, want ≤ 6", got)
	}
}

// TestAllocsRefinerSteady pins the refinement kernel's zero-alloc
// steady state: once a Refiner's scratch has grown to the workload's
// high-water mark, further Step calls must not allocate at all,
// regardless of which remapping strategy the budget selects.
func TestAllocsRefinerSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks skipped in -short mode")
	}
	const n, groups, dict = 50000, 160, 13
	g := make([]int32, n)
	codes := make([]int32, n)
	for i := range g {
		g[i] = int32(i % groups)
		codes[i] = int32(i%dict) - 1 // includes NULL (-1) codes
	}
	dst := make([]int32, n)
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"dense", 1 << 40}, {"map", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			prev := table.SetRefineDenseBudget(tc.budget)
			defer table.SetRefineDenseBudget(prev)
			var r table.Refiner
			r.Step(dst, g, codes, groups, dict) // warm the scratch
			if got := allocsPerOp(func() {
				r.Step(dst, g, codes, groups, dict)
			}); got != 0 {
				t.Errorf("steady-state Refiner.Step (%s): %d allocs/op, want 0", tc.name, got)
			}
		})
	}
}
