package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Differential tests for Database.DropAttrs. The reference is the boxed
// re-encode Restruct ran before the drop became a table primitive:
// decode every surviving value, re-encode the rows through a
// ChunkEncoder and commit them with one strict AppendBatch into an empty
// table under the reduced schema. The column-sharing drop must leave the
// same engine state or fail with the same first error, and mutating the
// migrated table must never move its source.

// dropReference migrates src to the reduced schema s the boxed way.
func dropReference(src *Table, s *relation.Schema) (*Table, error) {
	dst := New(s)
	keep := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		keep[i] = src.cols[a.Name]
	}
	enc := NewChunkEncoder(dst)
	row := make(Row, len(keep))
	for i := 0; i < src.Len(); i++ {
		for j, c := range keep {
			row[j] = src.Value(i, c)
		}
		if err := enc.AppendRow(row); err != nil {
			return dst, err
		}
	}
	if _, err := dst.NewAppender().AppendBatch(enc, true); err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return dst, err
	}
	return dst, nil
}

// fingerprint renders a table's persisted engine state, with dictionary
// values by canonical key so NaN and −0.0 compare bit-exactly.
func fingerprint(t *testing.T, tab *Table) string {
	t.Helper()
	st := tab.PersistState()
	var b strings.Builder
	fmt.Fprintf(&b, "rows %d version %d", st.NRows, st.Version)
	for ci, c := range st.Columns {
		fmt.Fprintf(&b, "\ncol %d: codes %v nonNull %d nonInt %v dictLen %d bytes %d dict", ci, c.Codes, c.NonNull, c.NonInt, c.DictLen, c.Bytes)
		for _, v := range c.Dict {
			fmt.Fprintf(&b, " %q", v.Key())
		}
	}
	fmt.Fprintf(&b, "\nuniqs %v", st.Uniqs)
	return b.String()
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// migratedDiff compares two migrated tables: persisted state, epoch
// publication, distinct counts and projections; "" means identical.
func migratedDiff(t *testing.T, want, got *Table) string {
	t.Helper()
	if w, g := fingerprint(t, want), fingerprint(t, got); w != g {
		return fmt.Sprintf("state differs\nwant: %s\ngot:  %s", w, g)
	}
	if (want.epoch.Load() == nil) != (got.epoch.Load() == nil) {
		return "epoch publication differs"
	}
	for _, attrs := range attrSubsets(want.Schema()) {
		wn, _ := want.DistinctCount(attrs)
		gn, _ := got.DistinctCount(attrs)
		if wn != gn {
			return fmt.Sprintf("DistinctCount%v = %d, want %d", attrs, gn, wn)
		}
		wp, gp := mustProj(t, want, attrs), mustProj(t, got, attrs)
		if !reflect.DeepEqual(wp.RowGroup, gp.RowGroup) || wp.Len() != gp.Len() || wp.NonNull != gp.NonNull {
			return fmt.Sprintf("Projection%v differs", attrs)
		}
	}
	return ""
}

// appendAll commits rows to tab in one tolerant batch.
func appendAll(tab *Table, rows []Row) (int, error) {
	enc := NewChunkEncoder(tab)
	for _, r := range rows {
		if err := enc.AppendRow(r); err != nil {
			return 0, err
		}
	}
	return tab.NewAppender().AppendBatch(enc, false)
}

// checkDrop drops attributes from src through Database.DropAttrs and
// through the reference, and requires identical outcomes. before is the
// fingerprint of src's content (taken from the table a lazy source was
// restored from, so taking it does not load src). The two migrated
// tables then receive the same per-row inserts and batch of more (rows of
// the reduced schema), which must agree and must leave src and its
// pinned epoch as they were.
func checkDrop(t *testing.T, label string, src *Table, before string, drop relation.AttrSet, more func(*relation.Schema) []Row) {
	t.Helper()
	name := src.schema.Name
	db := &Database{catalog: relation.MustCatalog(src.schema), tables: map[string]*Table{name: src}}
	pending := src.PendingColumns()
	gotErr := db.DropAttrs(name, drop)
	got := db.MustTable(name)
	if pending == len(src.columns) {
		for c, a := range src.schema.Attrs {
			if drop.Contains(a.Name) && src.colLoaded(c) {
				t.Fatalf("%s: dropping %s loaded its deferred column section", label, a.Name)
			}
		}
	}
	want, wantErr := dropReference(src, got.Schema())
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: DropAttrs error %q, reference %q", label, errText(gotErr), errText(wantErr))
	}
	if s, _ := db.Catalog().Get(name); s != got.Schema() || got == src {
		t.Fatalf("%s: catalog and table not replaced together", label)
	}
	if d := migratedDiff(t, want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	if fp := fingerprint(t, src); fp != before {
		t.Fatalf("%s: the drop moved its source", label)
	}
	pin := src.PinEpoch()
	pinBefore := fingerprint(t, pin)

	rows := more(got.Schema())
	for i, r := range rows {
		if we, ge := want.Insert(r), got.Insert(r); errText(we) != errText(ge) {
			t.Fatalf("%s: follow-up insert %d: error %q, reference %q", label, i, errText(ge), errText(we))
		}
	}
	wv, we := appendAll(want, rows)
	gv, ge := appendAll(got, rows)
	if wv != gv || errText(we) != errText(ge) {
		t.Fatalf("%s: follow-up batch: (%d, %v), reference (%d, %v)", label, gv, ge, wv, we)
	}
	if d := migratedDiff(t, want, got); d != "" {
		t.Fatalf("%s: after follow-up mutations: %s", label, d)
	}
	if fingerprint(t, src) != before || fingerprint(t, pin) != pinBefore {
		t.Fatalf("%s: mutating the migrated table moved its source", label)
	}
	// And the other way round: a live source growing past the shared
	// prefix must not write into the migrated table.
	if !src.Frozen() {
		gotBefore := fingerprint(t, got)
		if _, err := appendAll(src, more(src.schema)); err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, got) != gotBefore {
			t.Fatalf("%s: appending to the source moved the migrated table", label)
		}
	}
}

// dropValue draws a value of kind from a domain of about dom values,
// with NULLs, NaN, −0.0 and +0.0 mixed in.
func dropValue(rng *rand.Rand, kind value.Kind, dom int) value.Value {
	switch {
	case rng.Intn(6) == 0:
		return value.Null
	case kind == value.KindFloat && rng.Intn(3) == 0:
		specials := []float64{math.NaN(), math.Copysign(0, -1), 0}
		return value.NewFloat(specials[rng.Intn(len(specials))])
	case kind == value.KindInt:
		return value.NewInt(int64(rng.Intn(dom)))
	case kind == value.KindString && rng.Intn(2) == 0:
		return value.NewString(fmt.Sprintf("s%d", rng.Intn(dom)))
	}
	return randValue(rng, kind)
}

// dropRows draws n rows of s.
func dropRows(rng *rand.Rand, s *relation.Schema, n, dom int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, len(s.Attrs))
		for j, a := range s.Attrs {
			r[j] = dropValue(rng, a.Type, dom)
		}
		rows[i] = r
	}
	return rows
}

// randomDropSchema draws 2–6 attributes of mixed kinds, some NOT NULL,
// and up to three UNIQUE constraints, single and composite.
func randomDropSchema(rng *rand.Rand) *relation.Schema {
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindBool, value.KindDate}
	attrs := make([]relation.Attribute, 2+rng.Intn(5))
	for i := range attrs {
		attrs[i] = relation.Attribute{
			Name:    fmt.Sprintf("a%d", i),
			Type:    kinds[rng.Intn(len(kinds))],
			NotNull: rng.Intn(5) == 0,
		}
	}
	var uniques []relation.AttrSet
	for u := rng.Intn(4); u > 0; u-- {
		var names []string
		for _, a := range attrs {
			if rng.Intn(3) == 0 {
				names = append(names, a.Name)
			}
		}
		if len(names) == 0 {
			names = append(names, attrs[rng.Intn(len(attrs))].Name)
		}
		uniques = append(uniques, relation.NewAttrSet(names...))
	}
	return relation.MustSchema("D", attrs, uniques...)
}

// loadDropSource fills tab through a random mix of per-row inserts and
// batches. A clean load rejects violating rows (strict batches roll back
// at the first one); a dirty load plants them through InsertUnchecked and
// tolerant batches.
func loadDropSource(tab *Table, rng *rand.Rand, rows []Row, dirty bool) {
	for at := 0; at < len(rows); {
		end := at + 1 + rng.Intn(16)
		if end > len(rows) {
			end = len(rows)
		}
		if rng.Intn(2) == 0 {
			for _, r := range rows[at:end] {
				if err := tab.Insert(r); err != nil && dirty {
					tab.InsertUnchecked(r)
				}
			}
		} else {
			enc := NewChunkEncoder(tab)
			for _, r := range rows[at:end] {
				if err := enc.AppendRow(r); err != nil {
					panic(err)
				}
			}
			_, _ = tab.NewAppender().AppendBatch(enc, !dirty) // strict errors reject rows on purpose
		}
		at = end
	}
}

// stateLoader serves a lazily restored table's column sections.
type stateLoader struct{ st *TableState }

func (l stateLoader) LoadColumn(ci int) (ColumnState, error) { return l.st.Columns[ci], nil }

// restoreLazy round-trips tab through a deep copy of its persisted state
// into a lazily restored table with every column section deferred.
func restoreLazy(t *testing.T, tab *Table) *Table {
	t.Helper()
	st := tab.PersistState()
	cp := &TableState{NRows: st.NRows, Version: st.Version}
	for _, c := range st.Columns {
		c.Codes = append([]int32(nil), c.Codes...)
		c.Dict = append([]value.Value(nil), c.Dict...)
		cp.Columns = append(cp.Columns, c)
	}
	for _, u := range st.Uniqs {
		cu := UniqState{Dense: append([]int32(nil), u.Dense...)}
		if u.Packed != nil {
			cu.Packed = make(map[string]int32, len(u.Packed))
			for k, v := range u.Packed {
				cu.Packed[k] = v
			}
		}
		if u.ByKey != nil {
			cu.ByKey = make(map[string]int, len(u.ByKey))
			for k, v := range u.ByKey {
				cu.ByKey[k] = v
			}
		}
		cp.Uniqs = append(cp.Uniqs, cu)
	}
	r, err := RestoreTableLazy(tab.schema, cp, stateLoader{cp})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randomDropSet picks a random subset of s's attributes, sometimes
// empty, never all of them.
func randomDropSet(rng *rand.Rand, s *relation.Schema) relation.AttrSet {
	var names []string
	for _, a := range s.Attrs {
		if rng.Intn(3) == 0 && len(names) < len(s.Attrs)-1 {
			names = append(names, a.Name)
		}
	}
	return relation.NewAttrSet(names...)
}

// TestDropAttrsDifferential sweeps randomized schemas, clean and dirty
// extensions, and live, sample-read, lazily restored and epoch-pinned
// sources, requiring DropAttrs ≡ the boxed re-encode every time.
func TestDropAttrsDifferential(t *testing.T) {
	failures := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomDropSchema(rng)
		dirty := rng.Intn(2) == 0
		n := rng.Intn(120)
		dom := 1 + rng.Intn(3*n+2)
		tab := New(s)
		if rng.Intn(3) == 0 {
			tab.SampleRows()
		}
		loadDropSource(tab, rng, dropRows(rng, s, n, dom), dirty)
		src, kind := tab, "live"
		before := fingerprint(t, tab)
		switch rng.Intn(3) {
		case 1:
			src, kind = restoreLazy(t, tab), "lazy"
		case 2:
			// A frozen epoch carries no uniqueness state of its own.
			src, kind = tab.PinEpoch(), "pinned"
			before = fingerprint(t, src)
		}
		drop := randomDropSet(rng, s)
		label := fmt.Sprintf("seed %d (%s, dirty %v, %v drop %v)", seed, kind, dirty, s, drop)
		checkDrop(t, label, src, before, drop, func(rs *relation.Schema) []Row {
			return dropRows(rng, rs, 1+rng.Intn(20), dom)
		})
		if _, err := dropReference(src, s.DropAttrs(drop)); err != nil {
			failures++
		}
	}
	// The sweep must reach the dirty arm, or identical error text is
	// vacuous.
	if failures == 0 {
		t.Error("no seed produced a dirty migration")
	}
}

// TestDropAttrsDirtyErrors pins both dirty-data errors on a hand-built
// relation: a NULL in a surviving NOT NULL column and a duplicate on a
// surviving UNIQUE, each planted through InsertUnchecked, must fail with
// the reference's first error, while dropping the offending column (and
// with it the constraint) migrates cleanly.
func TestDropAttrsDirtyErrors(t *testing.T) {
	s := relation.MustSchema("D", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "req", Type: value.KindString, NotNull: true},
		{Name: "x", Type: value.KindFloat},
	}, relation.NewAttrSet("id"))
	for _, c := range []struct {
		planted Row
		drop    []string
		want    string
	}{
		{Row{value.NewInt(7), value.Null, value.NewFloat(1)}, []string{"x"}, "table D: attribute req is NOT NULL"},
		{Row{value.NewInt(1), value.NewString("b"), value.NewFloat(1)}, []string{"x"}, "table D: UNIQUE(id) violated by row 1"},
		{Row{value.NewInt(7), value.Null, value.NewFloat(1)}, []string{"req"}, ""},
		{Row{value.NewInt(1), value.NewString("b"), value.NewFloat(1)}, []string{"id"}, ""},
	} {
		tab := New(s)
		for i := 0; i < 3; i++ {
			tab.MustInsert(Row{value.NewInt(int64(i)), value.NewString("a"), value.NewFloat(math.NaN())})
		}
		tab.InsertUnchecked(c.planted)
		tab.MustInsert(Row{value.NewInt(9), value.NewString("z"), value.NewFloat(math.Copysign(0, -1))})
		label := fmt.Sprintf("plant %v drop %v", c.planted, c.drop)
		db := &Database{catalog: relation.MustCatalog(s), tables: map[string]*Table{"D": tab}}
		err := db.DropAttrs("D", relation.NewAttrSet(c.drop...))
		if errText(err) != c.want {
			t.Errorf("%s: error %q, want %q", label, errText(err), c.want)
		}
		checkDrop(t, label, tab, fingerprint(t, tab), relation.NewAttrSet(c.drop...), func(rs *relation.Schema) []Row {
			return dropRows(rand.New(rand.NewSource(1)), rs, 8, 12)
		})
	}
}

// FuzzDropAttrs derives a table from the fuzzer's bytes — four bytes per
// row over a fixed four-attribute schema whose constraints the first byte
// picks — and a drop set from dropMask, then requires DropAttrs ≡ the
// boxed re-encode (state or first error) and no aliasing of the source.
// Exercised by the ci.sh fuzz smoke.
func FuzzDropAttrs(f *testing.F) {
	f.Add([]byte{0x07, 1, 2, 3, 4, 1, 2, 3, 5, 0xff, 0xff, 0xff, 0xff}, uint8(0x2), true)
	f.Add([]byte{0x00, 9, 9, 9, 9, 8, 8, 8, 8}, uint8(0x0), false)
	f.Add([]byte{0x1b, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x81, 0x82, 0x83}, uint8(0x9), true)
	f.Fuzz(func(t *testing.T, data []byte, dropMask uint8, dirty bool) {
		if len(data) == 0 || len(data) > 4*512 {
			return
		}
		flags, body := data[0], data[1:]
		attrs := []relation.Attribute{
			{Name: "i", Type: value.KindInt, NotNull: flags&0x10 != 0},
			{Name: "s", Type: value.KindString},
			{Name: "f", Type: value.KindFloat, NotNull: flags&0x20 != 0},
			{Name: "k", Type: value.KindInt},
		}
		var uniques []relation.AttrSet
		for bit, u := range [][]string{{"i"}, {"s", "k"}, {"f"}, {"i", "f", "k"}} {
			if flags&(1<<bit) != 0 {
				uniques = append(uniques, relation.NewAttrSet(u...))
			}
		}
		s := relation.MustSchema("F", attrs, uniques...)
		floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5}
		tab := New(s)
		for ; len(body) >= 4; body = body[4:] {
			row := make(Row, 4)
			for j, b := range body[:4] {
				if b >= 0xf0 {
					row[j] = value.Null
					continue
				}
				switch j {
				case 0, 3:
					row[j] = value.NewInt(int64(b % 16))
				case 1:
					row[j] = value.NewString(string(rune('a' + b%8)))
				case 2:
					row[j] = value.NewFloat(floats[b%4])
				}
			}
			if err := tab.Insert(row); err != nil && dirty {
				tab.InsertUnchecked(row)
			}
		}
		var drop []string
		for bit, a := range attrs {
			if dropMask&(1<<bit) != 0 && len(drop) < len(attrs)-1 {
				drop = append(drop, a.Name)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkDrop(t, fmt.Sprintf("flags %#x drop %v", flags, drop), tab, fingerprint(t, tab), relation.NewAttrSet(drop...), func(rs *relation.Schema) []Row {
			return dropRows(rng, rs, 6, 16)
		})
	})
}
