package table_test

import (
	"fmt"
	"sync"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/storage"
	"dbre/internal/table"
	"dbre/internal/value"
)

// restoreBatch appends rows [from, from+n) of the id/tag relation in one
// strict batch.
func restoreBatch(tab *table.Table, from, n int) error {
	enc := table.NewChunkEncoder(tab)
	for i := from; i < from+n; i++ {
		if err := enc.AppendRow(table.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("t%d", i%7))}); err != nil {
			return err
		}
	}
	_, err := tab.NewAppender().AppendBatch(enc, true)
	return err
}

// TestPinEpochLazyRestoreConcurrentAppend is the -race gate for pinning
// a lazily restored table (storage.Open's default) while a writer
// appends to it. The restore publishes its first epoch when its last
// deferred section loads, and the writer's first commit waits for that
// load, so no pin ever freezes the table on the reader's goroutine.
// Every pin must be a commit point whose rows are the ids 0..n-1.
func TestPinEpochLazyRestoreConcurrentAppend(t *testing.T) {
	schema := relation.MustSchema("E", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "tag", Type: value.KindString},
	}, relation.NewAttrSet("id"))
	const base, batch, batches = 100, 25, 20
	src := table.NewDatabase(relation.MustCatalog(schema))
	if err := restoreBatch(src.MustTable("E"), 0, base); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Snapshot(src, dir); err != nil {
		t.Fatal(err)
	}
	db, info, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	tab := db.MustTable("E")
	if tab.PendingColumns() == 0 {
		t.Fatal("storage.Open restored every column eagerly; the test needs deferred sections")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			if err := restoreBatch(tab, base+b*batch, batch); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
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
				if !p.Frozen() || n < base || (n-base)%batch != 0 {
					t.Errorf("pin: frozen=%v len=%d, want a commit point", p.Frozen(), n)
					return
				}
				for _, i := range []int{0, n / 2, n - 1} {
					if got := p.Row(i)[0].Int(); got != int64(i) {
						t.Errorf("pinned row %d has id %d (len %d)", i, got, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := tab.PinEpoch().Len(), base+batches*batch; got != want {
		t.Fatalf("final pin sees %d rows, want %d", got, want)
	}
}
