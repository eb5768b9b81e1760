package table

import (
	"fmt"
	"math/rand"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// appendSchemas are the shapes the batch-vs-serial differential runs
// over: single-column keys (the dense uniq path), composite keys (the
// packed path), double constraints (phantom registrations on rejected
// rows), NOT NULL attributes, and a constraint-free relation.
func appendSchemas(t *testing.T) []*relation.Schema {
	t.Helper()
	mk := func(name string, attrs []relation.Attribute, uniques ...relation.AttrSet) *relation.Schema {
		s, err := relation.NewSchema(name, attrs, uniques...)
		if err != nil {
			t.Fatalf("schema %s: %v", name, err)
		}
		return s
	}
	return []*relation.Schema{
		mk("single",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "v", Type: value.KindString},
			},
			relation.NewAttrSet("id")),
		mk("multi",
			[]relation.Attribute{
				{Name: "a", Type: value.KindInt},
				{Name: "b", Type: value.KindString},
				{Name: "c", Type: value.KindFloat},
			},
			relation.NewAttrSet("a", "b")),
		mk("double",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "code", Type: value.KindString},
				{Name: "x", Type: value.KindInt},
			},
			relation.NewAttrSet("id"), relation.NewAttrSet("code", "x")),
		mk("notnull",
			[]relation.Attribute{
				{Name: "id", Type: value.KindInt},
				{Name: "req", Type: value.KindString, NotNull: true},
			},
			relation.NewAttrSet("id")),
		mk("free",
			[]relation.Attribute{
				{Name: "p", Type: value.KindInt},
				{Name: "q", Type: value.KindInt},
			}),
	}
}

// randomRow draws values from deliberately small domains so duplicate
// keys, NULLs and repeated dictionary entries all occur.
func randomRow(rng *rand.Rand, s *relation.Schema) Row {
	row := make(Row, len(s.Attrs))
	for i, a := range s.Attrs {
		if rng.Intn(6) == 0 {
			row[i] = value.Null
			continue
		}
		switch a.Type {
		case value.KindInt:
			row[i] = value.NewInt(int64(rng.Intn(12)))
		case value.KindFloat:
			row[i] = value.NewFloat(float64(rng.Intn(8)) / 2)
		default:
			row[i] = value.NewString(fmt.Sprintf("s%d", rng.Intn(10)))
		}
	}
	return row
}

// diffTables compares every observable and internal piece of engine
// state; "" means identical.
func diffTables(a, b *Table) string {
	if a.nrows != b.nrows {
		return fmt.Sprintf("rows: %d vs %d", a.nrows, b.nrows)
	}
	if a.version != b.version {
		return fmt.Sprintf("version: %d vs %d", a.version, b.version)
	}
	for ci := range a.columns {
		ca, cb := &a.columns[ci], &b.columns[ci]
		if len(ca.codes) != len(cb.codes) {
			return fmt.Sprintf("col %d: %d vs %d codes", ci, len(ca.codes), len(cb.codes))
		}
		for i := range ca.codes {
			if ca.codes[i] != cb.codes[i] {
				return fmt.Sprintf("col %d row %d: code %d vs %d", ci, i, ca.codes[i], cb.codes[i])
			}
		}
		if len(ca.dict) != len(cb.dict) {
			return fmt.Sprintf("col %d: dict %d vs %d", ci, len(ca.dict), len(cb.dict))
		}
		for i := range ca.dict {
			if !ca.dict[i].Equal(cb.dict[i]) {
				return fmt.Sprintf("col %d: dict[%d] %v vs %v", ci, i, ca.dict[i], cb.dict[i])
			}
		}
		if ca.nonNull != cb.nonNull || ca.nonInt != cb.nonInt {
			return fmt.Sprintf("col %d: nonNull/nonInt %d/%v vs %d/%v", ci, ca.nonNull, ca.nonInt, cb.nonNull, cb.nonInt)
		}
		if ca.ints.len() != cb.ints.len() || len(ca.keys) != len(cb.keys) {
			return fmt.Sprintf("col %d: intern tables differ", ci)
		}
		for k, v := range intEntries(&ca.ints) {
			if w, ok := cb.ints.get(k); !ok || w != v {
				return fmt.Sprintf("col %d: ints[%d] %d vs %d", ci, k, v, w)
			}
		}
		for k, v := range ca.keys {
			if cb.keys[k] != v {
				return fmt.Sprintf("col %d: keys[%q] %d vs %d", ci, k, v, cb.keys[k])
			}
		}
	}
	for ui := range a.uniq {
		ua, ub := a.uniq[ui], b.uniq[ui]
		if len(ua.byKey) != len(ub.byKey) {
			return fmt.Sprintf("uniq %d: byKey %d vs %d", ui, len(ua.byKey), len(ub.byKey))
		}
		for k, v := range ua.byKey {
			if w, ok := ub.byKey[k]; !ok || w != v {
				return fmt.Sprintf("uniq %d: byKey[%q] %d vs %d", ui, k, v, w)
			}
		}
		reg := func(u *uniqIndex) map[int32]int32 {
			m := make(map[int32]int32)
			for c, r := range u.dense {
				if r >= 0 {
					m[int32(c)] = r
				}
			}
			return m
		}
		ra, rb := reg(ua), reg(ub)
		if len(ra) != len(rb) {
			return fmt.Sprintf("uniq %d: dense %d vs %d registrations", ui, len(ra), len(rb))
		}
		for c, r := range ra {
			if rb[c] != r {
				return fmt.Sprintf("uniq %d: dense[%d] %d vs %d", ui, c, r, rb[c])
			}
		}
		if len(ua.packed) != len(ub.packed) {
			return fmt.Sprintf("uniq %d: packed %d vs %d", ui, len(ua.packed), len(ub.packed))
		}
		for k, v := range ua.packed {
			if ub.packed[k] != v {
				return fmt.Sprintf("uniq %d: packed[%q] %d vs %d", ui, k, v, ub.packed[k])
			}
		}
	}
	return ""
}

// loadSerialRef replicates the tolerant loader's per-row reference path:
// Insert, and on violation count + InsertUnchecked.
func loadSerialRef(t *Table, rows []Row) int {
	violations := 0
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			violations++
			t.InsertUnchecked(r)
		}
	}
	return violations
}

// loadBatches splits rows into chunks of the given size and appends them
// through the batch API.
func loadBatches(t *Table, rows []Row, chunk int, strict bool) (int, error) {
	ap := t.NewAppender()
	total := 0
	for at := 0; at < len(rows); at += chunk {
		end := at + chunk
		if end > len(rows) {
			end = len(rows)
		}
		enc := NewChunkEncoder(t)
		for _, r := range rows[at:end] {
			if err := enc.AppendRow(r); err != nil {
				return total, err
			}
		}
		v, err := ap.AppendBatch(enc, strict)
		total += v
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestAppendBatchDifferential drives random tolerant loads through the
// per-row reference path and the batch appender across chunk sizes and
// requires bit-identical engine state and violation counts.
func TestAppendBatchDifferential(t *testing.T) {
	for _, schema := range appendSchemas(t) {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(120)
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = randomRow(rng, schema)
			}
			ref := New(schema)
			wantViol := loadSerialRef(ref, rows)
			for _, chunk := range []int{1, 7, 32, len(rows)} {
				got := New(schema)
				gotViol, err := loadBatches(got, rows, chunk, false)
				if err != nil {
					t.Fatalf("%s seed %d chunk %d: %v", schema.Name, seed, chunk, err)
				}
				if gotViol != wantViol {
					t.Fatalf("%s seed %d chunk %d: %d violations, want %d",
						schema.Name, seed, chunk, gotViol, wantViol)
				}
				if d := diffTables(ref, got); d != "" {
					t.Fatalf("%s seed %d chunk %d: %s", schema.Name, seed, chunk, d)
				}
			}
		}
	}
}

// TestAppendBatchStrictDifferential compares strict batch loads against
// the per-row strict reference: identical error text, identical number
// of rows retained, identical engine state after the failure — including
// the rolled-back dictionaries and the phantom registrations the
// rejected row leaves behind.
func TestAppendBatchStrictDifferential(t *testing.T) {
	for _, schema := range appendSchemas(t) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			n := 30 + rng.Intn(80)
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = randomRow(rng, schema)
			}
			ref := New(schema)
			var refErr error
			for _, r := range rows {
				if refErr = ref.Insert(r); refErr != nil {
					break
				}
			}
			for _, chunk := range []int{1, 5, 17, len(rows)} {
				got := New(schema)
				_, gotErr := loadBatches(got, rows, chunk, true)
				switch {
				case refErr == nil && gotErr != nil:
					t.Fatalf("%s seed %d chunk %d: unexpected error %v", schema.Name, seed, chunk, gotErr)
				case refErr != nil && gotErr == nil:
					t.Fatalf("%s seed %d chunk %d: missing error %v", schema.Name, seed, chunk, refErr)
				case refErr != nil && gotErr.Error() != refErr.Error():
					t.Fatalf("%s seed %d chunk %d: error %q, want %q",
						schema.Name, seed, chunk, gotErr, refErr)
				}
				if d := diffTables(ref, got); d != "" {
					t.Fatalf("%s seed %d chunk %d: %s", schema.Name, seed, chunk, d)
				}
			}
		}
	}
}

// TestAppendBatchPhantomAcrossBatches pins the subtlest interaction: a
// row rejected by its *second* constraint in one strict batch leaves a
// value-keyed phantom registration of its first key, and a later batch
// inserting that key must still trip over it.
func TestAppendBatchPhantomAcrossBatches(t *testing.T) {
	schema := appendSchemas(t)[2] // "double": UNIQUE(id), UNIQUE(code,x)
	tab := New(schema)
	mkRow := func(id int64, code string, x int64) Row {
		return Row{value.NewInt(id), value.NewString(code), value.NewInt(x)}
	}
	enc := NewChunkEncoder(tab)
	ap := tab.NewAppender()
	for _, r := range []Row{mkRow(1, "a", 1), mkRow(2, "b", 1), mkRow(3, "b", 1)} {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	// Row 2 (id=3) violates UNIQUE(code,x) after registering id=3 under
	// UNIQUE(id); strict rollback keeps rows 0..1 and the phantom.
	if _, err := ap.AppendBatch(enc, true); err == nil {
		t.Fatal("want UNIQUE(code,x) violation")
	}
	if tab.Len() != 2 {
		t.Fatalf("rows after rollback = %d, want 2", tab.Len())
	}
	// id=3 was never stored, but its phantom registration must block a
	// fresh insert of id=3 — exactly as per-row Inserts would.
	ref := New(schema)
	for _, r := range []Row{mkRow(1, "a", 1), mkRow(2, "b", 1)} {
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	refErr := ref.Insert(mkRow(3, "b", 1)) // leaves the same phantom
	if refErr == nil {
		t.Fatal("reference: want violation")
	}
	gotErr := tab.Insert(mkRow(3, "zz", 9))
	wantErr := ref.Insert(mkRow(3, "zz", 9))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("phantom probe: got %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("phantom probe: got %q, want %q", gotErr, wantErr)
	}
	if d := diffTables(ref, tab); d != "" {
		t.Fatalf("state diverged: %s", d)
	}
}

// TestAppendBatchSchemaMismatch guards the encoder/table pairing.
func TestAppendBatchSchemaMismatch(t *testing.T) {
	ss := appendSchemas(t)
	a, b := New(ss[0]), New(ss[1])
	enc := NewChunkEncoder(b)
	if _, err := a.NewAppender().AppendBatch(enc, false); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

// TestChunkEncoderReset checks that a reset encoder reuses cleanly.
func TestChunkEncoderReset(t *testing.T) {
	schema := appendSchemas(t)[0]
	tab := New(schema)
	enc := NewChunkEncoder(tab)
	ap := tab.NewAppender()
	for round := 0; round < 3; round++ {
		enc.Reset()
		for i := 0; i < 5; i++ {
			row := Row{value.NewInt(int64(round*5 + i)), value.NewString("v")}
			if err := enc.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := ap.AppendBatch(enc, true); err != nil || v != 0 {
			t.Fatalf("round %d: %d violations, err %v", round, v, err)
		}
	}
	if tab.Len() != 15 {
		t.Fatalf("rows = %d, want 15", tab.Len())
	}
}

// fieldTexts are the CSV spellings TestAppendFieldsMatchesAppendRow draws
// from, per kind: several texts per value (padding, signs, trailing
// zeros, NULL spellings), so the encoder must dedup by parsed value. The
// last entry of each list is drawn rarely; except for strings, it does
// not parse.
var fieldTexts = map[value.Kind][]string{
	value.KindInt:    {"7", "07", " 7", "+7", "-3", "12", "", "NULL", "null", "x7"},
	value.KindFloat:  {"1.5", "1.50", " 1.5", "-0.0", "0.0", "NaN", "2", "", "Null", "1,5"},
	value.KindString: {"s1", "s2", " s1", "s1 ", "", "NULL", "null", "Null"},
	value.KindBool:   {"true", "TRUE", " 1", "f", "0", "", "null", "yes"},
	value.KindDate:   {"1996-01-02", " 1996-01-02 ", "2001-12-31", "", "NULL", "1996-13-01"},
}

// TestAppendFieldsMatchesAppendRow: on randomized records over random
// column subsets and orders, AppendFields must leave exactly the encoder
// state that AppendRow leaves over value.Parse of the same fields. A
// record with a field that does not parse must fail with Parse's error
// and leave the encoder untouched.
func TestAppendFieldsMatchesAppendRow(t *testing.T) {
	schemas := append(appendSchemas(t), relation.MustSchema("kinds", []relation.Attribute{
		{Name: "b", Type: value.KindBool},
		{Name: "d", Type: value.KindDate},
		{Name: "f", Type: value.KindFloat},
		{Name: "s", Type: value.KindString},
	}))
	// encTable views an encoder's columns as a table, so diffTables
	// compares codes, dictionaries, counters and intern maps.
	encTable := func(e *ChunkEncoder) *Table { return &Table{columns: e.cols, nrows: e.n} }
	bad := 0
	for _, schema := range schemas {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := New(schema)
			got, ref := NewChunkEncoder(tab), NewChunkEncoder(tab)
			perm := rng.Perm(len(schema.Attrs))
			colIdx := perm[:1+rng.Intn(len(perm))]
			row := make(Row, len(schema.Attrs))
			for r := 0; r < 150; r++ {
				rec := make([]string, len(colIdx))
				for i, c := range colIdx {
					texts := fieldTexts[schema.Attrs[c].Type]
					rec[i] = texts[rng.Intn(len(texts)-1)]
					if rng.Intn(40) == 0 {
						rec[i] = texts[len(texts)-1]
					}
				}
				var refErr error
				for i := range row {
					row[i] = value.Null
				}
				for i, c := range colIdx {
					var v value.Value
					if v, refErr = value.Parse(rec[i], schema.Attrs[c].Type); refErr != nil {
						break
					}
					row[c] = v
				}
				if refErr == nil {
					if err := ref.AppendRow(row); err != nil {
						t.Fatalf("%s seed %d: AppendRow: %v", schema.Name, seed, err)
					}
				}
				err := got.AppendFields(rec, colIdx)
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("%s seed %d record %q: err %v, want %v", schema.Name, seed, rec, err, refErr)
				}
				if err != nil {
					bad++
				}
				if got.Len() != ref.Len() {
					t.Fatalf("%s seed %d record %q: Len %d, want %d", schema.Name, seed, rec, got.Len(), ref.Len())
				}
				if d := diffTables(encTable(ref), encTable(got)); d != "" {
					t.Fatalf("%s seed %d record %q: %s", schema.Name, seed, rec, d)
				}
			}
		}
	}
	if bad == 0 {
		t.Fatal("no record failed to parse; the error path went untested")
	}
	enc := NewChunkEncoder(New(appendSchemas(t)[0]))
	if err := enc.AppendFields([]string{"1"}, []int{0, 1}); err == nil || enc.Len() != 0 {
		t.Fatalf("arity mismatch: err %v, Len %d", err, enc.Len())
	}
}

// strictBatchesRef is the per-row reference for a sequence of strict
// batches: each batch inserts row by row up to its first error, which
// ends that batch only; the next batch carries on.
func strictBatchesRef(t *Table, batches [][]Row) []error {
	errs := make([]error, len(batches))
	for bi, rows := range batches {
		for _, r := range rows {
			if err := t.Insert(r); err != nil {
				errs[bi] = err
				break
			}
		}
	}
	return errs
}

// strictBatches commits each batch through one appender, strictly,
// carrying on after a batch's error.
func strictBatches(t *Table, batches [][]Row) []error {
	ap := t.NewAppender()
	errs := make([]error, len(batches))
	for bi, rows := range batches {
		enc := NewChunkEncoder(t)
		for _, r := range rows {
			if err := enc.AppendRow(r); err != nil {
				panic(err)
			}
		}
		if _, err := ap.AppendBatch(enc, true); err != nil {
			errs[bi] = err.(*BatchError).Err
		}
	}
	return errs
}

// TestAppendBatchAdoptStrict: a strict violation inside the first batch,
// which the empty table adopts, rolls back exactly as a merged batch
// does — to empty when it sits at row 0, after which the next batch
// adopts again — and a later batch that finds rows merges. Explicit
// row-0 cases (a NOT NULL failure, and a NULL in the second key after
// the first key registered a phantom) run beside random batch splits
// that keep going after every error.
func TestAppendBatchAdoptStrict(t *testing.T) {
	ss := appendSchemas(t)
	s, n := value.NewString, value.Null
	i := func(v int64) value.Value { return value.NewInt(v) }
	type scenario struct {
		schema  *relation.Schema
		batches [][]Row
	}
	scenarios := []scenario{
		{ss[3], [][]Row{ // notnull: row 0 fails, the table stays empty
			{{i(1), n}, {i(2), s("a")}},
			{{i(3), s("b")}, {i(1), s("c")}},
			{{i(3), s("d")}},
		}},
		{ss[2], [][]Row{ // double: row 0 leaves a phantom id=1
			{{i(1), n, i(1)}},
			{{i(1), s("a"), i(1)}, {i(2), s("b"), i(2)}},
			{{i(2), s("b"), i(2)}, {i(3), s("b"), i(2)}},
			{{i(4), s("c"), i(4)}},
		}},
		{ss[0], [][]Row{ // single: a duplicate mid-batch keeps the prefix
			{{i(1), s("a")}, {i(2), s("b")}, {i(1), s("c")}, {i(9), s("z")}},
			{{i(9), s("z")}, {i(2), s("dup")}},
		}},
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		schema := ss[int(seed)%len(ss)]
		var batches [][]Row
		for b := 0; b < 1+rng.Intn(5); b++ {
			rows := make([]Row, 1+rng.Intn(12))
			for r := range rows {
				rows[r] = randomRow(rng, schema)
			}
			batches = append(batches, rows)
		}
		scenarios = append(scenarios, scenario{schema, batches})
	}
	rowZero := 0
	for si, sc := range scenarios {
		ref, got := New(sc.schema), New(sc.schema)
		refErrs := strictBatchesRef(ref, sc.batches)
		gotErrs := strictBatches(got, sc.batches)
		for bi := range refErrs {
			if fmt.Sprint(refErrs[bi]) != fmt.Sprint(gotErrs[bi]) {
				t.Fatalf("scenario %d batch %d: err %v, want %v", si, bi, gotErrs[bi], refErrs[bi])
			}
		}
		if refErrs[0] != nil && ref.Len() == 0 {
			rowZero++
		}
		if d := diffTables(ref, got); d != "" {
			t.Fatalf("scenario %d: %s", si, d)
		}
	}
	if rowZero < 2 {
		t.Fatalf("%d scenarios rolled the adopted first batch back to empty, want >= 2", rowZero)
	}
}

// TestAppendBatchAdoptPhantoms: a tolerant first batch keeps its
// violating rows, and the rows rejected by the second constraint leave
// value-keyed registrations of the first, exactly as per-row loading
// does; a later merged batch must still trip over them.
func TestAppendBatchAdoptPhantoms(t *testing.T) {
	schema := appendSchemas(t)[2] // "double": UNIQUE(id), UNIQUE(code,x)
	mk := func(id int64, code string, x int64) Row {
		return Row{value.NewInt(id), value.NewString(code), value.NewInt(x)}
	}
	first := []Row{mk(1, "a", 1), mk(2, "a", 1), mk(3, "b", 1), mk(2, "c", 1)}
	second := []Row{mk(2, "d", 1), mk(5, "a", 1), mk(6, "e", 1)}
	ref := New(schema)
	wantViol := loadSerialRef(ref, first) + loadSerialRef(ref, second)
	got := New(schema)
	ap := got.NewAppender()
	gotViol := 0
	for _, rows := range [][]Row{first, second} {
		enc := NewChunkEncoder(got)
		for _, r := range rows {
			if err := enc.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		v, err := ap.AppendBatch(enc, false)
		if err != nil {
			t.Fatal(err)
		}
		gotViol += v
	}
	if gotViol != wantViol {
		t.Fatalf("%d violations, want %d", gotViol, wantViol)
	}
	if len(got.uniq[0].byKey) == 0 {
		t.Fatal("no value-keyed registration: the scenario lost its phantom")
	}
	if d := diffTables(ref, got); d != "" {
		t.Fatal(d)
	}
	if ap.Stats().Remaps == 0 {
		t.Fatal("the second batch was adopted, not merged")
	}
}

// TestAppendBatchAdoptDetachesEncoder: once the empty table adopts a
// batch the encoder holds none of its storage, so resetting, refilling
// and committing it again cannot reach back into the table.
func TestAppendBatchAdoptDetachesEncoder(t *testing.T) {
	schema := appendSchemas(t)[1] // "multi": int, string, float
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, 60)
	for r := range rows {
		rows[r] = randomRow(rng, schema)
	}
	tab, ref := New(schema), New(schema)
	enc := NewChunkEncoder(tab)
	ap := tab.NewAppender()
	for _, r := range rows[:30] {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	n := enc.Len()
	if _, err := ap.AppendBatch(enc, false); err != nil {
		t.Fatal(err)
	}
	loadSerialRef(ref, rows[:30])
	if enc.Len() != 0 || tab.Len() != n {
		t.Fatalf("after adoption: encoder Len %d, table Len %d, want 0 and %d", enc.Len(), tab.Len(), n)
	}
	// Refill with values the table has never seen: an aliased dictionary
	// or intern map would now disagree with the reference.
	enc.Reset()
	for r := 0; r < 20; r++ {
		row := Row{value.NewInt(int64(100 + r)), value.NewString(fmt.Sprintf("new%d", r)), value.NewFloat(99.5)}
		if err := enc.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.AppendFields([]string{"7", "x", "1.5"}, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if d := diffTables(ref, tab); d != "" {
		t.Fatalf("mutating the detached encoder changed the table: %s", d)
	}
	enc.Reset()
	for _, r := range rows[30:] {
		if err := enc.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ap.AppendBatch(enc, false); err != nil {
		t.Fatal(err)
	}
	loadSerialRef(ref, rows[30:])
	if d := diffTables(ref, tab); d != "" {
		t.Fatalf("merge after reuse: %s", d)
	}
}

// sameRows compares the code vectors and dictionaries of two tables.
func sameRows(a, b *Table) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("rows %d vs %d", a.Len(), b.Len())
	}
	for c := range a.schema.Attrs {
		ca, cb := a.ColumnCodes(c), b.ColumnCodes(c)
		for i := range ca {
			if ca[i] != cb[i] {
				return fmt.Sprintf("col %d row %d: code %d vs %d", c, i, ca[i], cb[i])
			}
		}
		da, db := a.ColumnDict(c), b.ColumnDict(c)
		if len(da) != len(db) {
			return fmt.Sprintf("col %d: dict %d vs %d", c, len(da), len(db))
		}
		for i := range da {
			if !da[i].Equal(db[i]) {
				return fmt.Sprintf("col %d: dict[%d] %v vs %v", c, i, da[i], db[i])
			}
		}
	}
	return ""
}

// TestAppendBatchAdoptEpochs: epochs pinned before and after an adopting
// commit keep their commit points while later batches merge, per-row
// inserts land and a strict rollback truncates the live table.
func TestAppendBatchAdoptEpochs(t *testing.T) {
	schema := appendSchemas(t)[0] // "single": UNIQUE(id)
	row := func(id int64, v string) Row { return Row{value.NewInt(id), value.NewString(v)} }
	tab := New(schema)
	batch := func(rows ...Row) *ChunkEncoder {
		enc := NewChunkEncoder(tab)
		for _, r := range rows {
			if err := enc.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		return enc
	}
	first := []Row{row(1, "a"), row(2, "b"), row(3, "a")}
	ap := tab.NewAppender()
	e0 := tab.PinEpoch()
	if _, err := ap.AppendBatch(batch(first...), true); err != nil {
		t.Fatal(err)
	}
	e1 := tab.PinEpoch()
	if _, err := ap.AppendBatch(batch(row(4, "c"), row(5, "a")), true); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(6, "d")); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.AppendBatch(batch(row(7, "e"), row(1, "dup")), true); err == nil {
		t.Fatal("want UNIQUE violation")
	}
	if err := tab.Insert(row(8, "f")); err != nil {
		t.Fatal(err)
	}
	if e0.Len() != 0 {
		t.Fatalf("epoch pinned before adoption has %d rows", e0.Len())
	}
	ref := New(schema)
	loadSerialRef(ref, first)
	if d := sameRows(ref, e1); d != "" {
		t.Fatalf("epoch pinned after adoption: %s", d)
	}
	if tab.Len() != 8 {
		t.Fatalf("live table has %d rows, want 8", tab.Len())
	}
}

// TestAppendBatchAdoptLazyRestore: a lazily restored empty table loads
// its (empty) sections on the first commit and then adopts the batch.
func TestAppendBatchAdoptLazyRestore(t *testing.T) {
	for _, schema := range appendSchemas(t) {
		rng := rand.New(rand.NewSource(11))
		rows := make([]Row, 40)
		for r := range rows {
			rows[r] = randomRow(rng, schema)
		}
		lz := restoreLazy(t, New(schema))
		if len(schema.Attrs) > 0 && lz.PendingColumns() == 0 {
			t.Fatalf("%s: restore loaded every section eagerly", schema.Name)
		}
		ap := lz.NewAppender()
		enc := NewChunkEncoder(lz)
		for _, r := range rows[:25] {
			if err := enc.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ap.AppendBatch(enc, false); err != nil {
			t.Fatal(err)
		}
		if enc.Len() != 0 {
			t.Fatalf("%s: the restored empty table merged instead of adopting", schema.Name)
		}
		if _, err := loadBatches(lz, rows[25:], 6, false); err != nil {
			t.Fatal(err)
		}
		ref := New(schema)
		loadSerialRef(ref, rows)
		if d := diffTables(ref, lz); d != "" {
			t.Fatalf("%s: %s", schema.Name, d)
		}
		if d := sameRows(ref, lz.PinEpoch()); d != "" {
			t.Fatalf("%s: published epoch: %s", schema.Name, d)
		}
	}
}
