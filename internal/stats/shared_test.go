package stats_test

import (
	"fmt"
	"sync"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// appendR batch-appends n fresh rows to R, publishing a new epoch at
// the commit point (AppendBatch republishes; the per-row Insert paths
// used by twoRelations only clear it).
func appendR(t *testing.T, db *table.Database, n int) {
	t.Helper()
	tab := db.MustTable("R")
	enc := table.NewChunkEncoder(tab)
	base := tab.Len()
	for i := 0; i < n; i++ {
		row := table.Row{
			value.NewInt(int64(100 + base + i)),
			value.NewInt(int64(1000 + i)),
			value.NewString(fmt.Sprintf("d%d", i)),
		}
		if err := enc.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.NewAppender().AppendBatch(enc, true); err != nil {
		t.Fatal(err)
	}
}

func TestEpochPinnedResolution(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	c.SetEpochPinned(true)
	if got := c.TableFor("R"); !got.Frozen() {
		t.Fatal("epoch-pinned cache resolved a live table")
	}
	n1, err := c.DistinctCount("R", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := db.MustTable("R").DistinctCount([]string{"a"})
	if n1 != want1 {
		t.Fatalf("pinned DistinctCount = %d, want %d", n1, want1)
	}
	// The append commit republishes the epoch; the pinned cache follows
	// it to the new commit point on the next lookup.
	appendR(t, db, 3)
	n2, err := c.DistinctCount("R", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := db.MustTable("R").DistinctCount([]string{"a"})
	if n2 != want2 || n2 == n1 {
		t.Fatalf("pinned DistinctCount after append = %d, want %d (≠ %d)", n2, want2, n1)
	}
}

// TestSharedDelegation pins the read-through contract: lookups from a
// child cache over a pinned view land in the parent when both resolve
// the relation to the same commit point, so a second consumer's lookups
// are shared hits, and the child's own store stays empty.
func TestSharedDelegation(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 1) // publish an epoch at a batch commit point
	parent := stats.NewCache(db)
	parent.SetEpochPinned(true)

	view := db.PinEpoch()
	child := stats.NewCache(view)
	child.SetShared(parent)
	want, _ := db.MustTable("R").DistinctCount([]string{"a", "b"})
	got, err := child.DistinctCount("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("delegated DistinctCount = %d, want %d", got, want)
	}
	if m := child.Metrics(); m.Entries != 0 || m.Misses != 0 {
		t.Errorf("child cached a delegated lookup: %+v", m)
	}
	if m := parent.Metrics(); m.Entries == 0 || m.Misses != 1 {
		t.Errorf("parent did not absorb the delegated build: %+v", m)
	}

	// A second job over its own pin of the same commit point shares the
	// parent's entry.
	child2 := stats.NewCache(db.PinEpoch())
	child2.SetShared(parent)
	got2, err := child2.DistinctCount("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Fatalf("second delegated DistinctCount = %d, want %d", got2, want)
	}
	m := parent.Metrics()
	if m.Hits != 1 || m.SharedHits != 1 {
		t.Errorf("parent after second consumer: %+v, want 1 hit / 1 shared hit", m)
	}
}

// TestSharedIsolationAfterAppend pins the staleness arm of delegation:
// a child whose view pre-dates an append no longer matches the parent's
// resolution and falls back to its own store, keeping its results
// consistent with its pinned commit point.
func TestSharedIsolationAfterAppend(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 1)
	parent := stats.NewCache(db)
	parent.SetEpochPinned(true)

	old := stats.NewCache(db.PinEpoch())
	old.SetShared(parent)
	wantOld, _ := db.MustTable("R").DistinctCount([]string{"a", "b"})

	appendR(t, db, 4)

	gotOld, err := old.DistinctCount("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if gotOld != wantOld {
		t.Fatalf("stale view DistinctCount = %d, want pre-append %d", gotOld, wantOld)
	}
	if m := old.Metrics(); m.Entries == 0 {
		t.Errorf("stale view did not fall back to its local store: %+v", m)
	}
	fresh := stats.NewCache(db.PinEpoch())
	fresh.SetShared(parent)
	gotNew, err := fresh.DistinctCount("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	wantNew, _ := db.MustTable("R").DistinctCount([]string{"a", "b"})
	if gotNew != wantNew || gotNew == wantOld {
		t.Fatalf("fresh view DistinctCount = %d, want post-append %d", gotNew, wantNew)
	}
}

// TestSharedReplacedRelationFallsBack covers the origin-mismatch arm:
// a relation the job replaced against its pinned view (restruct splits
// and migrations) resolves to a table of a different history than the
// parent's, so its lookups must stay local to the child.
func TestSharedReplacedRelationFallsBack(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 1)
	parent := stats.NewCache(db)
	parent.SetEpochPinned(true)

	view := db.PinEpoch()
	child := stats.NewCache(view)
	child.SetShared(parent)
	// Restruct's FD-split drop against the view: a fresh table object,
	// with the same x column, whose epoch origin differs from the
	// parent's resolution.
	if err := view.DropAttrs("S", relation.NewAttrSet("y")); err != nil {
		t.Fatal(err)
	}
	if n, err := child.DistinctCount("S", []string{"x"}); err != nil || n != 4 {
		t.Fatalf("replaced relation DistinctCount = %d, %v; want 4", n, err)
	}
	if m := child.Metrics(); m.Entries != 1 || m.Misses != 1 {
		t.Errorf("child did not answer the replaced relation locally: %+v", m)
	}
	if m := parent.Metrics(); m.Entries != 0 || m.Misses != 0 {
		t.Fatalf("parent built the child's replaced relation — delegation leaked: %+v", m)
	}
	if _, err := child.DistinctCount("S", []string{"y"}); err == nil {
		t.Error("child resolved the dropped attribute through the parent")
	}
}

// TestCrossEpochDeltaHarvest proves the shared cache extends a
// projection built over one epoch onto the next epoch of the same
// history instead of rebuilding — and that the extension is
// bit-identical to a from-scratch build.
func TestCrossEpochDeltaHarvest(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 2)
	c := stats.NewCache(db)
	c.SetEpochPinned(true)
	if _, err := c.DistinctCount("R", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	appendR(t, db, 5)
	rg, groups, _, err := c.GroupVector("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.DeltaHits != 1 {
		t.Fatalf("DeltaHits = %d, want 1 (cross-epoch harvest)", m.DeltaHits)
	}
	// A fresh cache holds no stale entry, so it builds from scratch.
	scratch := stats.NewCache(db)
	scratch.SetEpochPinned(true)
	wantRG, wantGroups, _, err := scratch.GroupVector("R", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if groups != wantGroups || len(rg) != len(wantRG) {
		t.Fatalf("extended projection shape (%d groups, %d rows) != rebuilt (%d, %d)",
			groups, len(rg), wantGroups, len(wantRG))
	}
	for i := range rg {
		if rg[i] != wantRG[i] {
			t.Fatalf("extended RowGroup[%d] = %d, rebuilt = %d", i, rg[i], wantRG[i])
		}
	}
}

// TestSharedConcurrentDelegation hammers one parent from many child
// caches under the race detector: every child pins its own view of the
// same commit point, so every lookup delegates, builds coalesce, and
// results stay equal to direct scans.
func TestSharedConcurrentDelegation(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 3)
	parent := stats.NewCache(db)
	parent.SetEpochPinned(true)
	projections := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"}}
	want := make([]int, len(projections))
	for i, p := range projections {
		want[i], _ = db.MustTable("R").DistinctCount(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := stats.NewCache(db.PinEpoch())
			child.SetShared(parent)
			for round := 0; round < 20; round++ {
				for i, p := range projections {
					got, err := child.DistinctCount("R", p)
					if err != nil || got != want[i] {
						t.Errorf("concurrent delegated DistinctCount(R, %v) = %d, %v; want %d", p, got, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := parent.Metrics(); m.Misses != uint64(len(projections)) {
		t.Errorf("parent Misses = %d, want %d (delegated builds must coalesce)", m.Misses, len(projections))
	}
}

// BenchmarkCacheConcurrentHits measures the shared hit path under
// parallel load — the contention profile that motivated sharding the
// entry map (one mutex would serialize every lookup of every job).
func BenchmarkCacheConcurrentHits(b *testing.B) {
	db := twoRelations(b)
	c := stats.NewCache(db)
	projections := [][]string{
		{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "c"},
		{"a", "b", "c"}, {"b", "a"}, {"c", "a"}, {"c", "b"},
		{"a", "c", "b"}, {"b", "c", "a"}, {"c", "a", "b"},
		{"b", "a", "c"}, {"c", "b", "a"}, {"a", "b", "c"},
	}
	for _, p := range projections {
		if _, err := c.DistinctCount("R", p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := projections[i%len(projections)]
			i++
			if _, err := c.DistinctCount("R", p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSupportMemo pins the FD-support memo tier: the compute closure
// runs once per commit point, repeats are answered from the memo, a
// mutation invalidates it on the usual version terms, and a delegated
// lookup that lands on a parent memo counts as a shared hit.
func TestSupportMemo(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	calls := 0
	compute := func() (int, int, error) { calls++; return 4, 1, nil }

	for i := 0; i < 3; i++ {
		rows, viol, err := c.SupportMemo("R", []string{"a"}, "b", compute)
		if err != nil || rows != 4 || viol != 1 {
			t.Fatalf("SupportMemo #%d = (%d, %d, %v), want (4, 1, nil)", i, rows, viol, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times for one commit point, want 1", calls)
	}

	// A different split of the same attribute sequence is a different
	// dependency and must not share the memo.
	if _, _, err := c.SupportMemo("R", []string{"a", "b"}, "c", func() (int, int, error) {
		return 9, 9, nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows, _, _ := c.SupportMemo("R", []string{"a"}, "b", compute); rows != 4 {
		t.Fatalf("memo collided across dependencies: rows = %d, want 4", rows)
	}

	// Mutation: the version moves, so the memo recomputes.
	appendR(t, db, 2)
	if _, _, err := c.SupportMemo("R", []string{"a"}, "b", compute); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times across two commit points, want 2", calls)
	}

	// Explicit invalidation drops the memo too.
	c.Invalidate("R")
	if _, _, err := c.SupportMemo("R", []string{"a"}, "b", compute); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times after Invalidate, want 3", calls)
	}
}

// TestSupportMemoShared pins delegation: a child over a pinned view of
// the parent's commit point answers its FD checks from the parent's
// memo, counted as shared hits; a child that drifted falls back to a
// local memo.
func TestSupportMemoShared(t *testing.T) {
	db := twoRelations(t)
	appendR(t, db, 1)
	parent := stats.NewCache(db)
	parent.SetEpochPinned(true)

	child := stats.NewCache(db.PinEpoch())
	child.SetShared(parent)
	calls := 0
	compute := func() (int, int, error) { calls++; return 6, 0, nil }
	if _, _, err := child.SupportMemo("R", []string{"a"}, "b", compute); err != nil {
		t.Fatal(err)
	}
	if h := parent.Metrics().SharedHits; h != 0 {
		t.Fatalf("first delegated memo counted %d shared hits, want 0", h)
	}

	child2 := stats.NewCache(db.PinEpoch())
	child2.SetShared(parent)
	rows, viol, err := child2.SupportMemo("R", []string{"a"}, "b", compute)
	if err != nil || rows != 6 || viol != 0 || calls != 1 {
		t.Fatalf("second consumer = (%d, %d, %v) after %d computes, want (6, 0, nil) after 1",
			rows, viol, err, calls)
	}
	if h := parent.Metrics().SharedHits; h != 1 {
		t.Fatalf("shared hits = %d after a cross-consumer memo hit, want 1", h)
	}

	// Drifted child: an append moves the parent's resolution ahead of
	// the old pin, so the memo stays local and recomputes.
	old := stats.NewCache(db.PinEpoch())
	old.SetShared(parent)
	appendR(t, db, 3)
	if _, _, err := old.SupportMemo("R", []string{"a"}, "b", compute); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("drifted child computed %d times in total, want 2 (its own memo)", calls)
	}
}
