package table

import (
	"fmt"
	"sync"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

func epochSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("E", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "tag", Type: value.KindString},
	}, relation.NewAttrSet("id"))
}

// epochBatch appends rows [from, from+n) in one strict batch.
func epochBatch(t *testing.T, tab *Table, from, n int) {
	t.Helper()
	enc := NewChunkEncoder(tab)
	for i := from; i < from+n; i++ {
		if err := enc.AppendRow(Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("t%d", i%7))}); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := tab.NewAppender().AppendBatch(enc, true); err != nil || v != 0 {
		t.Fatalf("batch [%d,%d): violations=%d err=%v", from, from+n, v, err)
	}
}

// rowSig renders row i of tab for cross-snapshot comparison.
func rowSig(tab *Table, i int) string { return fmt.Sprint(tab.Row(i)) }

// TestPinEpochImmutableUnderAppend: a pinned epoch is a stable view of
// its commit point — later batches grow the live table without moving a
// single row, value, or counter of the snapshot.
func TestPinEpochImmutableUnderAppend(t *testing.T) {
	tab := New(epochSchema(t))
	epochBatch(t, tab, 0, 100)
	pinned := tab.PinEpoch()
	if !pinned.frozen || pinned == tab {
		t.Fatal("PinEpoch on the columnar engine must return a frozen clone")
	}
	if pinned.PinEpoch() != pinned {
		t.Error("pinning a frozen epoch must return itself")
	}
	wantLen, wantVer := pinned.Len(), pinned.Version()
	wantRows := make([]string, wantLen)
	for i := range wantRows {
		wantRows[i] = rowSig(pinned, i)
	}

	epochBatch(t, tab, 100, 50)
	if pinned.Len() != wantLen || pinned.Version() != wantVer {
		t.Fatalf("pinned epoch moved: len %d→%d version %d→%d", wantLen, pinned.Len(), wantVer, pinned.Version())
	}
	for i, want := range wantRows {
		if got := rowSig(pinned, i); got != want {
			t.Fatalf("pinned row %d changed: %s → %s", i, want, got)
		}
	}
	if tab.Len() != 150 {
		t.Fatalf("live table len = %d, want 150", tab.Len())
	}
	if again := tab.PinEpoch(); again.Len() != 150 {
		t.Fatalf("re-pin after commit sees %d rows, want 150", again.Len())
	}
}

// TestPinEpochAfterRollback: a strict rollback republishes a consistent
// post-batch epoch (the kept prefix), and never disturbs epochs pinned
// at earlier commit points.
func TestPinEpochAfterRollback(t *testing.T) {
	tab := New(epochSchema(t))
	epochBatch(t, tab, 0, 40)
	pinned := tab.PinEpoch()

	enc := NewChunkEncoder(tab)
	for _, id := range []int64{40, 41, 17} { // 17 violates UNIQUE(id)
		if err := enc.AppendRow(Row{value.NewInt(id), value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.NewAppender().AppendBatch(enc, true); err == nil {
		t.Fatal("want UNIQUE violation")
	}
	if tab.Len() != 42 {
		t.Fatalf("rows after rollback = %d, want 42", tab.Len())
	}
	if pinned.Len() != 40 {
		t.Fatalf("earlier epoch moved to %d rows", pinned.Len())
	}
	after := tab.PinEpoch()
	if after.Len() != 42 {
		t.Fatalf("post-rollback epoch has %d rows, want 42", after.Len())
	}
	for i := 0; i < 40; i++ {
		if rowSig(after, i) != rowSig(pinned, i) {
			t.Fatalf("row %d differs across epochs", i)
		}
	}
}

// TestPinEpochPerRowInvalidation: a per-row insert is a commit, so it
// replaces the published snapshot and the next pin never serves the
// stale commit point.
func TestPinEpochPerRowInvalidation(t *testing.T) {
	tab := New(epochSchema(t))
	epochBatch(t, tab, 0, 10)
	tab.PinEpoch()
	if err := tab.Insert(Row{value.NewInt(999), value.NewString("r")}); err != nil {
		t.Fatal(err)
	}
	if got := tab.PinEpoch().Len(); got != 11 {
		t.Fatalf("pin after per-row insert sees %d rows, want 11", got)
	}
}

// TestPinEpochPublishedOnBuild: tables built by AddRelation and grown
// by per-row Insert and InsertUnchecked hold a published epoch after
// every call — rejected inserts included — so PinEpoch only loads it,
// and two pins with no commit between them return the same snapshot.
func TestPinEpochPublishedOnBuild(t *testing.T) {
	db := NewDatabase(relation.MustCatalog(epochSchema(t)))
	if err := db.AddRelation(relation.MustSchema("side", []relation.Attribute{{Name: "x", Type: value.KindInt}})); err != nil {
		t.Fatal(err)
	}
	published := func(tab *Table, want int) {
		t.Helper()
		e := tab.epoch.Load()
		if e == nil {
			t.Fatalf("%s: no published epoch", tab.Schema().Name)
		}
		if !e.frozen || e.Len() != want {
			t.Fatalf("%s: published epoch frozen=%v with %d rows, want a frozen snapshot of %d", tab.Schema().Name, e.frozen, e.Len(), want)
		}
	}
	published(db.MustTable("side"), 0)
	tab := db.MustTable("E")
	published(tab, 0)
	for i := 0; i < 5; i++ {
		tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString("r")})
		published(tab, i+1)
	}
	if err := tab.Insert(Row{value.NewInt(3), value.NewString("dup")}); err == nil {
		t.Fatal("want UNIQUE violation")
	}
	published(tab, 5)
	tab.InsertUnchecked(Row{value.NewInt(3), value.NewString("dup")})
	published(tab, 6)
	if a, b := tab.PinEpoch(), tab.PinEpoch(); a != b {
		t.Error("two pins with no commit between them returned different snapshots")
	}
	if a, b := db.PinEpoch(), db.PinEpoch(); a.MustTable("E") != b.MustTable("E") || a.MustTable("side") != b.MustTable("side") {
		t.Error("two database pins with no commit between them returned different snapshots")
	}
}

// TestPinEpochRecycle: an epoch the writer replaces before anyone pins
// it becomes the storage of a later epoch, while a pinned one is never
// written again.
func TestPinEpochRecycle(t *testing.T) {
	tab := New(epochSchema(t))
	insert := func(i int) { tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString("r")}) }
	insert(0)
	first := tab.epoch.Load()
	insert(1)
	insert(2)
	if tab.epoch.Load() != first {
		t.Fatal("an epoch replaced unpinned was not recycled")
	}
	pinned := tab.PinEpoch()
	if pinned != first || pinned.Len() != 3 {
		t.Fatalf("pin returned %d rows, want the 3-row current epoch", pinned.Len())
	}
	for i := 3; i < 10; i++ {
		insert(i)
	}
	if pinned.Len() != 3 {
		t.Fatalf("pinned epoch moved to %d rows", pinned.Len())
	}
	for i := 0; i < 3; i++ {
		if got := pinned.Row(i)[0].Int(); got != int64(i) {
			t.Fatalf("pinned row %d has id %d", i, got)
		}
	}
	if again := tab.PinEpoch(); again == pinned || again.Len() != 10 {
		t.Fatalf("re-pin returned the old epoch or %d rows, want a new 10-row one", again.Len())
	}
}

// TestDatabasePinEpochIsolated: the database-level pin clones the
// catalog, so schema additions against the snapshot never leak into the
// live database, and vice versa.
func TestDatabasePinEpochIsolated(t *testing.T) {
	db := NewDatabase(relation.MustCatalog(epochSchema(t)))
	epochBatch(t, db.MustTable("E"), 0, 30)
	e0 := db.Epoch()
	pinned := db.PinEpoch()
	if pinned.Epoch() != e0 {
		t.Fatalf("pinned epoch %d, want %d", pinned.Epoch(), e0)
	}
	if err := pinned.AddRelation(relation.MustSchema("side", []relation.Attribute{{Name: "x", Type: value.KindInt}})); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("side"); ok {
		t.Error("schema added to the pinned view leaked into the live database")
	}
	epochBatch(t, db.MustTable("E"), 30, 10)
	if db.Epoch() <= e0 {
		t.Error("live epoch did not advance with the append")
	}
	if got := pinned.MustTable("E").Len(); got != 30 {
		t.Errorf("pinned table grew to %d rows", got)
	}
}

// TestPinEpochConcurrentAppend is the -race gate for MVCC-lite reads: a
// writer streams strict batches — some committing, some rolling back on
// a planted UNIQUE violation, some inserted row by row so that most of
// their epochs are recycled unpinned — while readers continuously pin
// epochs and verify each snapshot is internally consistent: the length
// is a commit point, every row's id equals its index (rollbacks leave no
// torn suffix), and the snapshot holds still across re-reads.
// The row sample rides along, and after the writer quiesces its catch-up
// state must equal a from-scratch rebuild — the mid-discovery-rollback
// watermark scenario.
func TestPinEpochConcurrentAppend(t *testing.T) {
	tab := New(epochSchema(t))
	const batch, batches = 50, 40
	epochBatch(t, tab, 0, batch)
	tab.SampleRows() // a watermark the writer's batches and rollbacks move past

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		next := batch
		for b := 1; b < batches; b++ {
			if b%5 == 0 {
				// A doomed batch: the planted duplicate id rolls the
				// whole thing back, codes and dictionaries truncated
				// under the readers' feet — published caps must hold.
				enc := NewChunkEncoder(tab)
				for i := 0; i < batch-1; i++ {
					enc.AppendRow(Row{value.NewInt(int64(next + i)), value.NewString(fmt.Sprintf("t%d", (next+i)%7))})
				}
				enc.AppendRow(Row{value.NewInt(0), value.NewString("dup")})
				if _, err := tab.NewAppender().AppendBatch(enc, true); err == nil {
					t.Error("doomed batch committed")
					return
				}
				// The kept prefix is the new commit point; account for it.
				next += batch - 1
				continue
			}
			if b%5 == 3 {
				// Per-row commits: one epoch each, most replaced before
				// a reader pins them.
				for i := 0; i < batch; i++ {
					if err := tab.Insert(Row{value.NewInt(int64(next + i)), value.NewString(fmt.Sprintf("t%d", (next+i)%7))}); err != nil {
						t.Errorf("insert %d: %v", next+i, err)
						return
					}
				}
				next += batch
				continue
			}
			enc := NewChunkEncoder(tab)
			for i := 0; i < batch; i++ {
				enc.AppendRow(Row{value.NewInt(int64(next + i)), value.NewString(fmt.Sprintf("t%d", (next+i)%7))})
			}
			if v, err := tab.NewAppender().AppendBatch(enc, true); err != nil || v != 0 {
				t.Errorf("batch %d: violations=%d err=%v", b, v, err)
				return
			}
			next += batch
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := tab.PinEpoch()
				n := p.Len()
				if !p.frozen || n < batch {
					t.Errorf("pin: frozen=%v len=%d", p.frozen, n)
					return
				}
				for _, i := range []int{0, n / 2, n - 1} {
					if got := p.Row(i)[0].Int(); got != int64(i) {
						t.Errorf("pinned row %d has id %d (len %d)", i, got, n)
						return
					}
				}
				if again := p.Len(); again != n {
					t.Errorf("snapshot moved: %d → %d", n, again)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Watermark catch-up after the rollbacks: the sample is a pure
	// function of the surviving row count.
	ref := New(epochSchema(t))
	for i := 0; i < tab.Len(); i++ {
		if err := ref.Insert(tab.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := tab.SampleRows()
	want, _ := ref.SampleRows()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("row sample diverged after rollbacks:\ngot  %v\nwant %v", got, want)
	}
}

// TestApproxBytesDeltaAccounting: the memoized footprint kept current by
// per-append delta accounting must equal the full recomputed scan after
// committed batches, rolled-back batches, and per-row inserts.
func TestApproxBytesDeltaAccounting(t *testing.T) {
	tab := New(epochSchema(t))
	recomputed := func() int64 {
		tab.abytesValid = false
		return tab.ApproxBytes()
	}
	if tab.ApproxBytes() != 0 {
		t.Fatalf("empty table = %d bytes", tab.ApproxBytes())
	}
	epochBatch(t, tab, 0, 80)
	if got, want := tab.ApproxBytes(), recomputed(); got != want {
		t.Fatalf("after first batch: memo %d, scan %d", got, want)
	}
	// Memoized now; the next batch must keep it current via the delta.
	epochBatch(t, tab, 80, 40)
	if got, want := tab.ApproxBytes(), recomputed(); got != want {
		t.Fatalf("after second batch: memo %d, scan %d", got, want)
	}
	// A rolled-back batch lands on the kept prefix; the delta accounts
	// the surviving region only.
	tab.ApproxBytes() // re-memoize after recomputed() invalidated
	enc := NewChunkEncoder(tab)
	for _, id := range []int64{200, 201, 3} { // 3 violates UNIQUE(id)
		if err := enc.AppendRow(Row{value.NewInt(id), value.NewString("roll")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.NewAppender().AppendBatch(enc, true); err == nil {
		t.Fatal("want UNIQUE violation")
	}
	if got, want := tab.ApproxBytes(), recomputed(); got != want {
		t.Fatalf("after rollback: memo %d, scan %d", got, want)
	}
	// Per-row inserts commit through the same tail and account their
	// delta too.
	tab.ApproxBytes()
	tab.MustInsert(Row{value.NewInt(999), value.NewString("solo")})
	if got, want := tab.ApproxBytes(), recomputed(); got != want {
		t.Fatalf("after per-row insert: memo %d, scan %d", got, want)
	}
}
