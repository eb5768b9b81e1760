package table

import (
	"fmt"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/sketch"
	"dbre/internal/value"
)

func sketchTestSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("S", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString},
	}, relation.NewAttrSet("id"))
}

// sketchSig reads the signature of attr after catch-up.
func sketchSig(t *testing.T, tab *Table, attr string) *sketch.BottomK {
	t.Helper()
	s := tab.Sketches()
	if s == nil {
		t.Fatal("sketches not enabled")
	}
	col := s.Column(attr)
	if col == nil {
		t.Fatalf("no sketch column for %q", attr)
	}
	return col.Sig
}

func TestSketchesRideAppender(t *testing.T) {
	schema := sketchTestSchema(t)

	// One table maintained incrementally through batch appends...
	inc := New(schema)
	if inc.EnableSketches(sketch.Config{}) == nil {
		t.Fatal("EnableSketches returned nil on columnar engine")
	}
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
	}

	// ...must equal one built from scratch over the final extension.
	ref := New(schema)
	ref.EnableSketches(sketch.Config{})
	for i := 0; i < 1000; i++ {
		if err := ref.Insert(Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n%d", i%100))}); err != nil {
			t.Fatal(err)
		}
	}

	for _, attr := range []string{"id", "name"} {
		got, want := sketchSig(t, inc, attr), sketchSig(t, ref, attr)
		if fmt.Sprint(got.Hashes()) != fmt.Sprint(want.Hashes()) {
			t.Fatalf("%s: incremental signature diverges from scratch build", attr)
		}
		gc, wc := inc.Sketches().Column(attr), ref.Sketches().Column(attr)
		if gc.Distinct != wc.Distinct || gc.HLL.Count() != wc.HLL.Count() {
			t.Fatalf("%s: distinct=%d/%d hll=%d/%d", attr, gc.Distinct, wc.Distinct, gc.HLL.Count(), wc.HLL.Count())
		}
	}
	gs, ws := inc.Sketches().SampleRows(), ref.Sketches().SampleRows()
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatal("incremental row sample diverges from scratch build")
	}
	if inc.Sketches().Builds() == 0 {
		t.Fatal("no build passes recorded")
	}
}

func TestSketchesRebuildOnStrictRollback(t *testing.T) {
	schema := sketchTestSchema(t)
	tab := New(schema)
	tab.EnableSketches(sketch.Config{})
	for i := 0; i < 50; i++ {
		if err := tab.Insert(Row{value.NewInt(int64(i)), value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Consume the current state so the watermark is past the entries the
	// failed batch will roll back.
	sketchSig(t, tab, "id")

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
	// surviving extension is 0..49 plus (1000, "y"). The sketches must
	// describe exactly that — no residue from the rolled-back row.
	ref := New(schema)
	ref.EnableSketches(sketch.Config{})
	for i := 0; i < 50; i++ {
		if err := ref.Insert(Row{value.NewInt(int64(i)), value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Insert(Row{value.NewInt(1000), value.NewString("y")}); err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"id", "name"} {
		got := fmt.Sprint(sketchSig(t, tab, attr).Hashes())
		want := fmt.Sprint(sketchSig(t, ref, attr).Hashes())
		if got != want {
			t.Fatalf("%s: rollback left sketch residue:\ngot  %s\nwant %s", attr, got, want)
		}
	}
	if s := sketchSig(t, tab, "name"); s.Contains(sketch.HashValue(value.NewString("z"))) {
		t.Fatal("rolled-back value still in signature")
	}

	// Between two on-demand reads: a strict rollback drops dictionary
	// entries past the watermark, then growth carries the dictionary and
	// the row count well past it. The second read must equal a sketch
	// built from scratch over the surviving extension.
	sketchSig(t, tab, "name")
	tab.Sketches().SampleRows()
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
	if err := ref.Insert(Row{value.NewInt(2000), value.NewString("kept")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r := Row{value.NewInt(int64(3000 + i)), value.NewString(fmt.Sprintf("g%d", i))}
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	sameSketches(t, tab, fresh(t, ref))
	if s := sketchSig(t, tab, "name"); s.Contains(sketch.HashValue(value.NewString("gone"))) {
		t.Fatal("value rolled back between reads still in signature")
	}
}

// fresh copies tab's rows into a new table whose sketches are built from
// scratch on first read.
func fresh(t *testing.T, tab *Table) *Table {
	t.Helper()
	out := New(tab.Schema())
	for i := 0; i < tab.Len(); i++ {
		if err := out.Insert(tab.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	var cfg sketch.Config
	if s := tab.Sketches(); s != nil {
		cfg = s.Config()
	}
	out.EnableSketches(cfg)
	return out
}

// sameSketches requires every column sketch and the row sample of got
// to equal want's.
func sameSketches(t *testing.T, got, want *Table) {
	t.Helper()
	for _, a := range got.Schema().Attrs {
		g, w := got.Sketches().Column(a.Name), want.Sketches().Column(a.Name)
		if fmt.Sprint(g.Sig.Hashes()) != fmt.Sprint(w.Sig.Hashes()) || g.Distinct != w.Distinct || g.HLL.Count() != w.HLL.Count() {
			t.Fatalf("%s: caught-up sketch differs from a scratch build", a.Name)
		}
	}
	if g, w := got.Sketches().SampleRows(), want.Sketches().SampleRows(); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("caught-up row sample %v differs from a scratch build %v", g, w)
	}
}

// TestSketchesCatchUpOnDemand pins on-demand maintenance: commits feed no
// sketch, Column catches up exactly the column asked for, SampleRows
// exactly the sample, and each caught-up sketch equals one built from
// scratch.
func TestSketchesCatchUpOnDemand(t *testing.T) {
	schema := sketchTestSchema(t)
	tab := New(schema)
	s := tab.EnableSketches(sketch.Config{})
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
	if b := s.Builds(); b != 0 {
		t.Fatalf("appends ran %d sketch passes before any read", b)
	}
	if _, n := s.CatchUpSample(); n != 1 || s.Builds() != 1 {
		t.Fatalf("SampleRows ran %d passes (%d total), want exactly the sample's", n, s.Builds())
	}
	for ci := range s.cols {
		if s.consumed[ci] != 0 || s.cols[ci].Distinct != 0 {
			t.Fatalf("SampleRows fed column %d", ci)
		}
	}
	if _, n := s.CatchUpColumn("name"); n != 1 {
		t.Fatalf("Column(name) ran %d passes, want 1", n)
	}
	if id := tab.cols["id"]; s.consumed[id] != 0 || s.cols[id].Distinct != 0 {
		t.Fatal("Column(name) fed the id column")
	}
	if _, n := s.CatchUpColumn("name"); n != 0 {
		t.Fatalf("a second read of a caught-up column ran %d passes", n)
	}
	if col, n := s.CatchUpColumn("nope"); col != nil || n != 0 {
		t.Fatal("unknown attribute built a sketch")
	}
	sameSketches(t, tab, fresh(t, tab))

	// Appends after a read: only the read column catches up again.
	tab.MustInsert(Row{value.NewInt(5000), value.NewString("late")})
	before := s.Builds()
	if _, n := s.CatchUpColumn("name"); n != 1 || s.Builds() != before+1 {
		t.Fatalf("catch-up after an append ran %d passes", n)
	}
	sameSketches(t, tab, fresh(t, tab))
}

// TestSketchesConcurrentReaders races on-demand readers of every column
// and of the sample on one table (run under -race): every reader must
// see the sketches a scratch build produces.
func TestSketchesConcurrentReaders(t *testing.T) {
	tab := New(sketchTestSchema(t))
	for i := 0; i < 2000; i++ {
		tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n%d", i%97))})
	}
	want := fresh(t, tab)
	wantSig := map[string]string{}
	for _, a := range []string{"id", "name"} {
		wantSig[a] = fmt.Sprint(want.Sketches().Column(a).Sig.Hashes())
	}
	wantSample := fmt.Sprint(want.Sketches().SampleRows())
	for _, src := range []*Table{tab, restoreLazy(t, tab)} {
		s := src.EnableSketches(sketch.Config{})
		errs := make(chan string, 16)
		done := make(chan struct{})
		for g := 0; g < 8; g++ {
			go func(g int) {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 20; i++ {
					switch attr := []string{"id", "name", ""}[(g+i)%3]; attr {
					case "":
						if got := fmt.Sprint(s.SampleRows()); got != wantSample {
							errs <- "sample differs"
						}
					default:
						if got := fmt.Sprint(s.Column(attr).Sig.Hashes()); got != wantSig[attr] {
							errs <- attr + " signature differs"
						}
					}
				}
			}(g)
		}
		for g := 0; g < 8; g++ {
			<-done
		}
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if b := s.Builds(); b != 3 {
			t.Fatalf("concurrent readers ran %d catch-up passes, want 3 (two columns, one sample)", b)
		}
	}
}

func TestSketchesConcurrentEnable(t *testing.T) {
	tab := New(sketchTestSchema(t))
	results := make(chan *TableSketches, 8)
	for i := 0; i < 8; i++ {
		go func() { results <- tab.EnableSketches(sketch.Config{}) }()
	}
	first := <-results
	for i := 1; i < 8; i++ {
		if s := <-results; s != first {
			t.Fatal("concurrent EnableSketches returned distinct sketch sets")
		}
	}
}
