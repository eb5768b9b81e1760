package table

import (
	"fmt"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

func sketchTestSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("S", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString},
	}, relation.NewAttrSet("id"))
}

// sample reads tab's row sample.
func sample(tab *Table) string {
	rows, _ := tab.SampleRows()
	return fmt.Sprint(rows)
}

// fresh copies tab's rows into a new table whose row sample is built
// from scratch on first read.
func fresh(t *testing.T, tab *Table) *Table {
	t.Helper()
	out := New(tab.Schema())
	for i := 0; i < tab.Len(); i++ {
		if err := out.Insert(tab.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSketchesRideAppender: a row sample caught up over batch appends
// equals one built from scratch over the final extension.
func TestSketchesRideAppender(t *testing.T) {
	schema := sketchTestSchema(t)
	inc := New(schema)
	a := inc.NewAppender()
	for chunk := 0; chunk < 4; chunk++ {
		enc := NewChunkEncoder(inc)
		for i := 0; i < 250; i++ {
			id := chunk*250 + i
			if err := enc.AppendRow(Row{value.NewInt(int64(id)), value.NewString(fmt.Sprintf("n%d", id%100))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.AppendBatch(enc, true); err != nil {
			t.Fatal(err)
		}
		if chunk%2 == 1 {
			inc.SampleRows() // a watermark mid-stream
		}
	}
	ref := New(schema)
	for i := 0; i < 1000; i++ {
		if err := ref.Insert(Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n%d", i%100))}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := sample(inc), sample(ref)
	if got != want {
		t.Fatal("incremental row sample diverges from scratch build")
	}
	if rows, _ := inc.SampleRows(); len(rows) != 512 {
		t.Fatalf("sample holds %d rows, want 512", len(rows))
	}
}

// TestSketchesRebuildOnStrictRollback: strict-mode rollbacks, before and
// between reads, leave the sample equal to a scratch build over the
// surviving extension.
func TestSketchesRebuildOnStrictRollback(t *testing.T) {
	schema := sketchTestSchema(t)
	tab := New(schema)
	for i := 0; i < 50; i++ {
		if err := tab.Insert(Row{value.NewInt(int64(i)), value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	tab.SampleRows() // the watermark is now past the pre-batch rows

	a := tab.NewAppender()
	enc := NewChunkEncoder(tab)
	for _, r := range []Row{
		{value.NewInt(1000), value.NewString("y")}, // survives the rollback
		{value.NewInt(1000), value.NewString("z")}, // UNIQUE violation
	} {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AppendBatch(enc, true); err == nil {
		t.Fatal("expected strict-mode batch error")
	}
	// Rollback keeps the batch rows preceding the failure, so the
	// surviving extension is 0..49 plus (1000, "y").
	if got, want := sample(tab), sample(fresh(t, tab)); got != want || tab.Len() != 51 {
		t.Fatalf("rollback left sample residue (%d rows):\ngot  %s\nwant %s", tab.Len(), got, want)
	}

	// Between two reads: a strict rollback, then growth well past the
	// watermark.
	enc = NewChunkEncoder(tab)
	for _, r := range []Row{
		{value.NewInt(2000), value.NewString("kept")},
		{value.NewInt(0), value.NewString("dup")}, // UNIQUE violation
		{value.NewInt(2001), value.NewString("gone")},
	} {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AppendBatch(enc, true); err == nil {
		t.Fatal("expected strict-mode batch error")
	}
	for i := 0; i < 600; i++ {
		if err := tab.Insert(Row{value.NewInt(int64(3000 + i)), value.NewString(fmt.Sprintf("g%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sample(tab), sample(fresh(t, tab)); got != want {
		t.Fatalf("caught-up row sample %s differs from a scratch build %s", got, want)
	}
}

// TestSketchesCatchUpOnDemand pins on-demand maintenance: commits feed
// nothing, the first read builds the sample, a read with no new rows
// does no work, and a read after appends catches up once.
func TestSketchesCatchUpOnDemand(t *testing.T) {
	tab := New(sketchTestSchema(t))
	a := tab.NewAppender()
	for chunk := 0; chunk < 3; chunk++ {
		enc := NewChunkEncoder(tab)
		for i := 0; i < 100; i++ {
			id := chunk*100 + i
			if err := enc.AppendRow(Row{value.NewInt(int64(id)), value.NewString(fmt.Sprintf("n%d", id%17))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.AppendBatch(enc, true); err != nil {
			t.Fatal(err)
		}
		tab.MustInsert(Row{value.NewInt(int64(1000 + chunk)), value.Null})
	}
	if tab.sample.entries != nil || tab.sample.rows != 0 {
		t.Fatal("appends fed the row sample before any read")
	}
	if _, built := tab.SampleRows(); !built {
		t.Fatal("the first read built nothing")
	}
	if _, built := tab.SampleRows(); built {
		t.Fatal("a read with no new rows did work")
	}
	if got, want := sample(tab), sample(fresh(t, tab)); got != want {
		t.Fatalf("caught-up sample %s differs from a scratch build %s", got, want)
	}
	tab.MustInsert(Row{value.NewInt(5000), value.NewString("late")})
	if _, built := tab.SampleRows(); !built || tab.sample.rows != tab.Len() {
		t.Fatalf("catch-up after an append: built %v, watermark %d of %d rows", built, tab.sample.rows, tab.Len())
	}
	if got, want := sample(tab), sample(fresh(t, tab)); got != want {
		t.Fatalf("caught-up sample %s differs from a scratch build %s", got, want)
	}
}

// TestSketchesConcurrentReaders races readers of the sample on a live
// and on a lazily restored table (run under -race): every reader sees
// the scratch build, exactly one read does the work, and the lazily
// restored table loads no column for it.
func TestSketchesConcurrentReaders(t *testing.T) {
	tab := New(sketchTestSchema(t))
	for i := 0; i < 2000; i++ {
		tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n%d", i%97))})
	}
	want := sample(fresh(t, tab))
	for _, src := range []*Table{tab, restoreLazy(t, tab)} {
		type result struct {
			rows  string
			built bool
		}
		results := make(chan result, 8*20)
		done := make(chan struct{})
		for g := 0; g < 8; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 20; i++ {
					rows, built := src.SampleRows()
					results <- result{fmt.Sprint(rows), built}
				}
			}()
		}
		for g := 0; g < 8; g++ {
			<-done
		}
		close(results)
		builds := 0
		for r := range results {
			if r.rows != want {
				t.Fatal("a concurrent reader saw a sample other than the scratch build")
			}
			if r.built {
				builds++
			}
		}
		if builds != 1 {
			t.Fatalf("concurrent readers ran %d catch-up passes, want 1", builds)
		}
		if src.lazy != nil && src.PendingColumns() != len(src.columns) {
			t.Fatalf("reading the sample loaded %d column sections", len(src.columns)-src.PendingColumns())
		}
	}
}

// TestSketchesConcurrentEnable: concurrent first reads of a table's
// sample build it once and share the one slice.
func TestSketchesConcurrentEnable(t *testing.T) {
	tab := New(sketchTestSchema(t))
	for i := 0; i < 100; i++ {
		tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString("x")})
	}
	type result struct {
		rows  []int32
		built bool
	}
	results := make(chan result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			rows, built := tab.SampleRows()
			results <- result{rows, built}
		}()
	}
	var first []int32
	builds := 0
	for i := 0; i < 8; i++ {
		r := <-results
		if r.built {
			builds++
		}
		if len(r.rows) != 100 {
			t.Fatalf("sample holds %d of 100 rows", len(r.rows))
		}
		if first == nil {
			first = r.rows
		} else if &r.rows[0] != &first[0] {
			t.Fatal("concurrent first reads returned distinct samples")
		}
	}
	if builds != 1 {
		t.Fatalf("concurrent first reads built %d times, want 1", builds)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a dense range: no two inputs in 0..99999
	// collide.
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		h := mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestRowSampleDeterministicStable(t *testing.T) {
	// Same rows in any order -> same sample.
	var a, b rowSample
	for i := 0; i < 5000; i++ {
		a.add(i)
	}
	for i := 4999; i >= 0; i-- {
		b.add(i)
	}
	if len(a.entries) != sampleK || len(b.entries) != sampleK {
		t.Fatalf("sample sizes %d/%d, want %d", len(a.entries), len(b.entries), sampleK)
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("order-dependent sample at %d: %v vs %v", i, a.entries[i], b.entries[i])
		}
	}
}
