// Persistence round-trip and fault tests. The load-bearing properties
// pinned here, mirroring the differential-harness style the engine tests
// use everywhere else:
//
//   - bit-identical restore: Open(Snapshot(db)) reproduces the exact
//     engine state (PersistState DeepEqual per relation), and snapshots
//     of the original and the restored database are byte-identical;
//   - every injected fault — a flipped byte in any section, a truncated
//     file, a mangled header/footer/trailer — surfaces as a typed
//     *CorruptError naming the damage, never as silent divergence;
//   - a write-ahead log left by an earlier version is ignored when it
//     holds only its header and refused when it holds logged rows.
package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// buildTestDB assembles a database exercising every persisted feature:
// all value kinds, NULLs, single- and multi-attribute UNIQUE constraints,
// tolerated violations (phantom registrations), and sketches on one
// relation.
func buildTestDB(t *testing.T) *table.Database {
	t.Helper()
	people := relation.MustSchema("people",
		[]relation.Attribute{
			{Name: "id", Type: value.KindInt, NotNull: true},
			{Name: "name", Type: value.KindString},
			{Name: "height", Type: value.KindFloat},
			{Name: "active", Type: value.KindBool},
			{Name: "born", Type: value.KindDate},
		},
		relation.NewAttrSet("id"),
		relation.NewAttrSet("name", "born"),
	)
	orders := relation.MustSchema("orders",
		[]relation.Attribute{
			{Name: "id", Type: value.KindInt, NotNull: true},
			{Name: "person", Type: value.KindInt},
			{Name: "total", Type: value.KindFloat},
		},
		relation.NewAttrSet("id"),
	)
	empty := relation.MustSchema("empty",
		[]relation.Attribute{{Name: "x", Type: value.KindString}},
	)
	db := table.NewDatabase(relation.MustCatalog(people, orders, empty))

	pt := db.MustTable("people")
	pt.MustInsert(table.Row{value.NewInt(1), value.NewString("ada"), value.NewFloat(1.7), value.NewBool(true), value.NewDate(1815, 12, 10)})
	pt.MustInsert(table.Row{value.NewInt(2), value.NewString("alan"), value.Null, value.NewBool(false), value.NewDate(1912, 6, 23)})
	pt.MustInsert(table.Row{value.NewInt(3), value.NewString("kurt"), value.NewFloat(-0.0), value.Null, value.NewDate(1906, 4, 28)})
	// A duplicate id: rejected, but UNIQUE(name,born) is checked after
	// registering nothing — while a duplicate on the SECOND constraint
	// leaves a phantom registration of the first. Exercise both.
	if err := pt.Insert(table.Row{value.NewInt(1), value.NewString("grace"), value.Null, value.Null, value.NewDate(1906, 12, 9)}); err == nil {
		t.Fatal("want duplicate-id error")
	}
	if err := pt.Insert(table.Row{value.NewInt(4), value.NewString("ada"), value.Null, value.Null, value.NewDate(1815, 12, 10)}); err == nil {
		t.Fatal("want duplicate name+born error")
	}
	// The rejected id=4 row registered a phantom under id=4: a later
	// insert of id=4 must collide even though no stored row holds it.
	if err := pt.Insert(table.Row{value.NewInt(4), value.NewString("x"), value.Null, value.Null, value.NewDate(2000, 1, 1)}); err == nil {
		t.Fatal("want phantom-id collision")
	}

	ot := db.MustTable("orders")
	ot.SampleRows() // a sample read before the rows below: nothing persisted
	for i := 0; i < 50; i++ {
		ot.MustInsert(table.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7)), value.NewFloat(float64(i) * 1.5)})
	}
	ot.InsertUnchecked(table.Row{value.NewInt(7), value.NewInt(99), value.Null}) // planted corruption
	return db
}

// mustStates snapshots every relation's engine state for comparison.
func mustStates(t *testing.T, db *table.Database) map[string]*table.TableState {
	t.Helper()
	out := make(map[string]*table.TableState)
	for _, s := range db.Catalog().Schemas() {
		out[s.Name] = db.MustTable(s.Name).PersistState()
	}
	return out
}

func requireSameState(t *testing.T, want, got *table.Database) {
	t.Helper()
	ws, gs := mustStates(t, want), mustStates(t, got)
	if len(ws) != len(gs) {
		t.Fatalf("relation count: want %d, got %d", len(ws), len(gs))
	}
	for name, w := range ws {
		g, ok := gs[name]
		if !ok {
			t.Fatalf("relation %s missing from restored database", name)
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("relation %s: engine state diverged\nwant %+v\ngot  %+v", name, w, g)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	got, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	if info.Relations != 3 {
		t.Errorf("info.Relations = %d, want 3", info.Relations)
	}
	requireSameState(t, db, got)

	// Bit-identical: re-snapshotting the restored database must produce
	// the exact bytes of the original snapshot.
	dir2 := t.TempDir()
	if err := Snapshot(got, dir2); err != nil {
		t.Fatal(err)
	}
	a := readFile(t, filepath.Join(dir, SnapshotFile))
	b := readFile(t, filepath.Join(dir2, SnapshotFile))
	if !bytes.Equal(a, b) {
		t.Errorf("re-snapshot of restored database differs: %d vs %d bytes", len(a), len(b))
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := buildTestDB(t)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := Snapshot(db, dir1); err != nil {
		t.Fatal(err)
	}
	if err := Snapshot(db, dir2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir1, SnapshotFile)), readFile(t, filepath.Join(dir2, SnapshotFile))) {
		t.Error("two snapshots of the same state differ (map iteration leaked into the bytes?)")
	}
}

func TestSnapshotRoundTripNaN(t *testing.T) {
	s := relation.MustSchema("f", []relation.Attribute{{Name: "x", Type: value.KindFloat}})
	db := table.NewDatabase(relation.MustCatalog(s))
	ft := db.MustTable("f")
	ft.MustInsert(table.Row{value.NewFloat(math.NaN())})
	ft.MustInsert(table.Row{value.NewFloat(math.Inf(-1))})
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	got, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	// NaN defeats DeepEqual; byte-compare re-snapshots instead.
	dir2 := t.TempDir()
	if err := Snapshot(got, dir2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, SnapshotFile)), readFile(t, filepath.Join(dir2, SnapshotFile))) {
		t.Error("NaN/-Inf column did not round-trip bit-identically")
	}
}

func TestOpenPreload(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	got, info, err := OpenCtx(context.Background(), dir, Options{Preload: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.LazyColumns != 0 {
		t.Errorf("LazyColumns = %d after preload, want 0", info.LazyColumns)
	}
	// The file is closed; everything must still work.
	if err := info.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, db, got)
}

func TestLazyColumnLoading(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	got, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	pt := got.MustTable("people")
	if pt.PendingColumns() != 5 {
		t.Fatalf("PendingColumns = %d, want 5", pt.PendingColumns())
	}
	// O(1) metadata queries must not fault in any section.
	if n, err := pt.DistinctCount([]string{"name"}); err != nil || n != 3 {
		t.Errorf("DistinctCount(name) = %d, %v; want 3", n, err)
	}
	if n, err := pt.CountNonNull([]string{"height"}); err != nil || n != 2 {
		t.Errorf("CountNonNull(height) = %d, %v; want 2", n, err)
	}
	if pt.PendingColumns() != 5 {
		t.Errorf("metadata queries loaded sections: PendingColumns = %d, want 5", pt.PendingColumns())
	}
	if got.ApproxBytes() <= 0 {
		t.Error("ApproxBytes on a lazy database should estimate from metadata")
	}
	// A projection over one column loads exactly that column.
	if _, err := pt.Projection([]string{"id"}); err != nil {
		t.Fatal(err)
	}
	if pt.PendingColumns() != 4 {
		t.Errorf("PendingColumns = %d after one-column projection, want 4", pt.PendingColumns())
	}
	// Mutation forces full residency and interning-map rebuild; inserts
	// must behave exactly as on the live table.
	if err := pt.Insert(table.Row{value.NewInt(1), value.NewString("dup"), value.Null, value.Null, value.Null}); err == nil {
		t.Error("duplicate id accepted after restore: interning maps not rebuilt?")
	}
	if err := pt.Insert(table.Row{value.NewInt(4), value.NewString("y"), value.Null, value.Null, value.NewDate(2001, 2, 3)}); err == nil {
		t.Error("phantom registration lost across restore")
	}
	if err := pt.Insert(table.Row{value.NewInt(10), value.NewString("new"), value.Null, value.Null, value.NewDate(1990, 1, 1)}); err != nil {
		t.Errorf("clean insert rejected after restore: %v", err)
	}
	if pt.PendingColumns() != 0 {
		t.Errorf("PendingColumns = %d after mutation, want 0", pt.PendingColumns())
	}
	// The live table must agree after the same inserts.
	lt := db.MustTable("people")
	if err := lt.Insert(table.Row{value.NewInt(1), value.NewString("dup"), value.Null, value.Null, value.Null}); err == nil {
		t.Error("live: duplicate id accepted")
	}
	if err := lt.Insert(table.Row{value.NewInt(4), value.NewString("y"), value.Null, value.Null, value.NewDate(2001, 2, 3)}); err == nil {
		t.Error("live: phantom collision accepted")
	}
	if err := lt.Insert(table.Row{value.NewInt(10), value.NewString("new"), value.Null, value.Null, value.NewDate(1990, 1, 1)}); err != nil {
		t.Errorf("live: clean insert rejected: %v", err)
	}
	requireSameState(t, db, got)
}

// TestSketchRestore: the FD triage's row sample is not persisted; a
// restored table rebuilds the live table's sample from its row count
// alone, without loading a column section.
func TestSketchRestore(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	live, _ := db.MustTable("orders").SampleRows()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	got, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	rt := got.MustTable("orders")
	pending := rt.PendingColumns()
	restored, _ := rt.SampleRows()
	if !reflect.DeepEqual(live, restored) {
		t.Errorf("rebuilt row sample %v, want %v", restored, live)
	}
	if rt.PendingColumns() != pending {
		t.Errorf("rebuilding the row sample loaded %d column sections", pending-rt.PendingColumns())
	}
}

// TestLegacyWAL: earlier versions wrote a wal.dbre beside every
// snapshot. One holding only its 24-byte header opens with the snapshot
// and is removed by the next Snapshot; one holding logged rows is
// refused by Open with an error naming it, since opening the snapshot
// alone would drop those rows.
func TestLegacyWAL(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, legacyWALFile)
	var hdr enc
	hdr.b = append(hdr.b, "DBREWAL1"...)
	hdr.u32(formatVersion)
	hdr.u32(0)
	hdr.u64(0)
	open := func() error {
		t.Helper()
		got, info, err := Open(dir)
		if err == nil {
			defer info.Close()
			requireSameState(t, db, got)
		}
		return err
	}
	resnapshot := func() {
		t.Helper()
		if err := Snapshot(db, dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != SnapshotFile {
			t.Errorf("directory after Snapshot holds %v, want only %s", entries, SnapshotFile)
		}
	}

	if err := os.WriteFile(walPath, hdr.b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := open(); err != nil {
		t.Fatalf("header-only log: %v", err)
	}
	resnapshot()

	logged := append(hdr.b, 8, 0, 0, 0, 1, 2, 3, 4, 1, 0, 0, 0, 0, 0, 0, 0)
	if err := os.WriteFile(walPath, logged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := open(); err == nil || !strings.Contains(err.Error(), walPath) {
		t.Fatalf("log with records: Open returned %v, want an error naming %s", err, walPath)
	}
	resnapshot()
	if err := open(); err != nil {
		t.Fatalf("after re-snapshot: %v", err)
	}
}

func TestOpenNoSnapshot(t *testing.T) {
	_, _, err := Open(t.TempDir())
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// TestFaultInjection flips one byte in the middle of every section (and
// the header, footer and trailer) and truncates the file at several
// boundaries: every such fault must surface, from a lazy and from a
// preloading open, as a typed *CorruptError — and the error must name
// the damaged section.
func TestFaultInjection(t *testing.T) {
	db := buildTestDB(t)
	dir := t.TempDir()
	if err := Snapshot(db, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFile)
	pristine := readFile(t, path)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := readLayout(f, path, int64(len(pristine)))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 8 {
		t.Fatalf("test snapshot has only %d sections", len(entries))
	}

	reopen := func(t *testing.T, mutated []byte, wantInError string) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// A preloading open reads the column sections once, as it loads
		// them; the fault must surface all the same.
		for _, opt := range []Options{{}, {Preload: true}} {
			_, info, err := OpenCtx(context.Background(), dir, opt)
			if err == nil {
				info.Close()
				t.Fatalf("preload %v: corrupt snapshot opened without error", opt.Preload)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("preload %v: want *CorruptError, got %T: %v", opt.Preload, err, err)
			}
			if wantInError != "" && !bytes.Contains([]byte(err.Error()), []byte(wantInError)) {
				t.Errorf("preload %v: error %q does not name %q", opt.Preload, err, wantInError)
			}
		}
	}

	for _, e := range entries {
		if e.len == 0 {
			continue
		}
		name := sectionName(e.typ, e.rel, e.col)
		t.Run("flip-"+name, func(t *testing.T) {
			mutated := bytes.Clone(pristine)
			mutated[e.off+e.len/2] ^= 0x01
			reopen(t, mutated, name)
		})
	}
	t.Run("flip-header-magic", func(t *testing.T) {
		mutated := bytes.Clone(pristine)
		mutated[0] ^= 0x01
		reopen(t, mutated, "header")
	})
	t.Run("flip-trailer-magic", func(t *testing.T) {
		mutated := bytes.Clone(pristine)
		mutated[len(mutated)-1] ^= 0x01
		reopen(t, mutated, "trailer")
	})
	t.Run("flip-footer", func(t *testing.T) {
		mutated := bytes.Clone(pristine)
		mutated[len(mutated)-trailerSize-3] ^= 0x01
		reopen(t, mutated, "footer")
	})
	for _, cut := range []int{1, trailerSize, trailerSize + 7, len(pristine) / 2, len(pristine) - headerSize} {
		t.Run("truncate", func(t *testing.T) {
			reopen(t, pristine[:len(pristine)-cut], "")
		})
	}
	t.Run("pristine-still-opens", func(t *testing.T) {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		got, info, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer info.Close()
		requireSameState(t, db, got)
	})
}

// writeSnapshot writes a snapshot of schemas holding the given engine
// states through the format's own section writer, with no table in
// between: a well-formed, checksum-valid file from outside, whatever
// the states hold. The schemas must declare no UNIQUE constraint.
func writeSnapshot(t *testing.T, dir string, schemas []*relation.Schema, states []*table.TableState) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := &snapshotWriter{f: f}
	var e enc
	encodeCatalog(&e, schemas)
	err = w.header()
	if err == nil {
		err = w.section(secCatalog, noID, noID, e.b)
	}
	for ri, st := range states {
		e.reset()
		encodeTableMeta(&e, schemas[ri], st)
		if err == nil {
			err = w.section(secTableMeta, uint32(ri), noID, e.b)
		}
		for ci, col := range st.Columns {
			e.reset()
			for _, code := range col.Codes {
				e.u32(uint32(code))
			}
			if err == nil {
				err = w.section(secCodes, uint32(ri), uint32(ci), e.b)
			}
			e.reset()
			e.dict(schemas[ri].Attrs[ci].Type, col.Dict)
			if err == nil {
				err = w.section(secDict, uint32(ri), uint32(ci), e.b)
			}
		}
	}
	if err == nil {
		err = w.finish()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// writeWronglyTyped writes a checksum-valid snapshot holding a string in
// an INTEGER column and returns its directory.
func writeWronglyTyped(t *testing.T) string {
	t.Helper()
	s := relation.MustSchema("R", []relation.Attribute{{Name: "x", Type: value.KindInt}})
	st := &table.TableState{
		NRows:   2,
		Version: 2,
		Columns: []table.ColumnState{{
			Codes:   []int32{0, 1},
			Dict:    table.Dict{Bits: []int64{7}, Strs: []string{"seven"}},
			NonNull: 2,
			DictLen: 2,
		}},
	}
	dir := t.TempDir()
	writeSnapshot(t, dir, []*relation.Schema{s}, []*table.TableState{st})
	return dir
}

// TestRestoreRejectsWronglyTypedValue: snapshot values carry their own
// kind tag, so a file written elsewhere can hold a string in an INTEGER
// column with every checksum valid. Loading that column must fail its
// validation — every stored value has its attribute's type — rather than
// hand the string to the readers of the column.
func TestRestoreRejectsWronglyTypedValue(t *testing.T) {
	dir := writeWronglyTyped(t)
	db, info, err := Open(dir) // the column section loads on first read
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dictionary holds a VARCHAR value, the attribute is INTEGER") {
			t.Errorf("loading the column: panic %v, want the dictionary type error", r)
		}
	}()
	v := db.MustTable("R").Value(1, 0)
	t.Errorf("the INTEGER column loaded a %v value %v", v.Kind(), v)
}

// TestPreloadRejectsWronglyTypedValue: opening TestRestoreRejectsWronglyTypedValue's
// file with Options.Preload, as the job server's dataset pool does, loads
// the column inside Open, which must return the validation error rather
// than panic.
func TestPreloadRejectsWronglyTypedValue(t *testing.T) {
	dir := writeWronglyTyped(t)
	db, info, err := OpenCtx(context.Background(), dir, Options{Preload: true})
	if err == nil {
		info.Close()
		t.Fatalf("preloaded open succeeded; the INTEGER column holds %v", db.MustTable("R").Value(1, 0))
	}
	if !strings.Contains(err.Error(), "dictionary holds a VARCHAR value, the attribute is INTEGER") {
		t.Errorf("preloaded open: %v, want the dictionary type error", err)
	}
}

// boxedValue appends v's tagged encoding — its kind tag, then the
// payload enc.bits writes or a VARCHAR's length-prefixed bytes — as
// dictionaries of boxed values held it.
func boxedValue(e *enc, v value.Value) {
	if v.Kind() == value.KindString {
		e.u8(tagString)
		e.str(v.Str())
		return
	}
	e.bits(v.Kind(), v.Bits())
}

// TestDictCodecMatchesBoxedValues: a dictionary section written straight
// from a typed vector is byte for byte the entry count followed by each
// entry's tagged value encoding — the bytes snapshots held when
// dictionaries were boxed — for edge values of every kind (NaN payloads,
// signed zeros, infinities, dates before the epoch, strings holding the
// key terminator or whole encoded keys). Decoding with the attribute's
// kind gives the same values back, Key() for Key(); decoding with
// another kind fails with the dictionary type error.
func TestDictCodecMatchesBoxedValues(t *testing.T) {
	cases := map[value.Kind][]value.Value{
		value.KindInt: {value.NewInt(7), value.NewInt(-7), value.NewInt(0),
			value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64)},
		value.KindFloat: {value.NewFloat(1.5), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
			value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8000000000001)),
			value.NewFloat(math.Inf(-1)), value.NewFloat(math.SmallestNonzeroFloat64)},
		value.KindBool: {value.NewBool(true), value.NewBool(false)},
		value.KindDate: {value.NewDate(1996, 1, 2), value.NewDate(1969, 12, 31),
			value.NewDate(1, 1, 1), value.NewDate(9999, 12, 31)},
		value.KindString: {value.NewString("s1"), value.NewString(""), value.NewString("a\x1fb"),
			value.NewString(value.NewInt(7).Key() + "\x1f"), value.NewString("\x00")},
	}
	for kind, vals := range cases {
		var d table.Dict
		var boxed enc
		boxed.uvarint(uint64(len(vals)))
		for _, v := range vals {
			boxedValue(&boxed, v)
			if kind == value.KindString {
				d.Strs = append(d.Strs, v.Str())
			} else {
				d.Bits = append(d.Bits, v.Bits())
			}
		}
		var typed enc
		typed.dict(kind, d)
		if !bytes.Equal(typed.b, boxed.b) {
			t.Errorf("%v: typed dictionary bytes %x, boxed %x", kind, typed.b, boxed.b)
		}
		dc := dec{b: typed.b}
		got := dc.dict(kind)
		if err := dc.finish("dict"); err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		for i, v := range vals {
			if g := got.Value(kind, int32(i)); g.Key() != v.Key() {
				t.Errorf("%v entry %d: decoded %v (key %q), want %v (key %q)", kind, i, g, g.Key(), v, v.Key())
			}
		}
		other := value.KindInt
		if kind == value.KindInt {
			other = value.KindString
		}
		dc = dec{b: typed.b}
		dc.dict(other)
		if err := dc.finish("dict"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dictionary holds a %v value, the attribute is %v", kind, other)) {
			t.Errorf("%v decoded as %v: %v, want the dictionary type error", kind, other, err)
		}
	}
}
