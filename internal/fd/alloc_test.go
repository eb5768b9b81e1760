package fd

import (
	"fmt"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// TestAllocCheckStatsSketch pins the triage tier's FD check to zero
// allocations per call in steady state, whatever the lhs group count: the
// sample refutation runs over a pooled vector indexed by lhs group id and
// resets only the slots it touched.
func TestAllocCheckStatsSketch(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks skipped in -short mode")
	}
	for _, tc := range []struct {
		rows, groups int
	}{{2000, 50}, {20000, 4000}} {
		r := relation.MustSchema("R", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
		})
		db := table.NewDatabase(relation.MustCatalog(r))
		tab := db.MustTable("R")
		for i := 0; i < tc.rows; i++ {
			// a → b is violated in every group.
			tab.MustInsert(table.Row{value.NewInt(int64(i % tc.groups)), value.NewInt(int64(i % 7))})
		}
		cache := stats.NewCache(db)
		label := fmt.Sprintf("%d rows, %d groups", tc.rows, tc.groups)
		check := func() {
			s, refuted, err := sampleRefute(cache, "R", []string{"a"}, "b")
			if err != nil || !refuted || s.Violations == 0 {
				t.Fatalf("%s: support %+v refuted %v err %v", label, s, refuted, err)
			}
		}
		check() // warm the projections, the sample and the scratch arena
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				check()
			}
		})
		if got := res.AllocsPerOp(); got != 0 {
			t.Errorf("%s: %d allocs/op, want 0", label, got)
		}
	}
}
