package table

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// edgeTexts are field texts at the edges of value.Parse, per kind: the
// spellings one value can take (signs, padding, leading zeros, trailing
// zeros), out-of-range and malformed numbers, signed zeros and NaN,
// every NULL spelling, and strings that contain the 0x1f key
// terminator or spell whole encoded keys.
var edgeTexts = map[value.Kind][]string{
	value.KindInt: {"7", "07", " 7", "+7", "7 ", "-0", "0", "-7",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "1e3", "0x7", "7.0", "1_000"},
	value.KindFloat: {"-0.0", "0.0", "0", "-0", "NaN", "nan", "-NaN", "+Inf", "-inf",
		"1.5", "1.50", " 1.5 ", "+1.5", "15e-1", "0x1.8p0", "1e308", "1e309", "1,5", "1_5"},
	value.KindBool: {"true", "TRUE", " t ", "T", "1", "0", "F", "false", "False", "yes", "2"},
	value.KindDate: {"1996-01-02", " 1996-01-02 ", "1996-01-02 ", "1969-12-31", "1970-01-01",
		"0001-01-01", "9999-12-31", "1996-1-2", "1996-02-30", "1996-13-01", "02/01/1996"},
	value.KindString: {"s1", " s1", "s1 ", "i7", "7", "\x1f", "a\x1fb", "s\x01x\x1f",
		value.NewString("x").Key() + "\x1f" + value.NewInt(7).Key() + "\x1f", "\x00", "nul"},
}

// nullTexts are every spelling of NULL, for every kind.
var nullTexts = []string{"", "NULL", "null", "Null", "nULl"}

// boxedColumn is the reference of a column: the dictionary as boxed
// values in first-occurrence order, interned by value.Key, as the store
// kept it before its dictionaries were typed.
type boxedColumn struct {
	codes []int32
	dict  []value.Value
	ids   map[string]int32
}

func (c *boxedColumn) encode(v value.Value) {
	if v.IsNull() {
		c.codes = append(c.codes, nullCode)
		return
	}
	id, ok := c.ids[v.Key()]
	if !ok {
		id = int32(len(c.dict))
		c.ids[v.Key()] = id
		c.dict = append(c.dict, v)
	}
	c.codes = append(c.codes, id)
}

// boxedKeys is the reference projection dictionary over columns idx:
// the canonical composite key (Key() plus a 0x1f terminator per
// attribute) of every NULL-free row → its group id, dense in
// first-occurrence order.
func boxedKeys(cols []*boxedColumn, idx []int, rows int) map[string]int32 {
	m := make(map[string]int32)
	for r := 0; r < rows; r++ {
		var key []byte
		for _, ci := range idx {
			code := cols[ci].codes[r]
			if code < 0 {
				key = nil
				break
			}
			key = append(cols[ci].dict[code].AppendKey(key), 0x1f)
		}
		if _, ok := m[string(key)]; key != nil && !ok {
			m[string(key)] = int32(len(m))
		}
	}
	return m
}

// TestTypedEncoderMatchesBoxedReference drives AppendFields with random
// records of edge-case texts over every kind, in random column orders
// that may repeat a column, against a boxed reference that parses with value.Parse and interns by
// Key(). After every record the codes, the dictionaries (as values and
// as Key() bytes) and the NULL counts must agree, and a record with a
// field that does not parse must store nothing. The committed table's
// projection dictionaries, single-attribute (int64-keyed for INTEGER,
// Key()-keyed otherwise) and composite, must hold exactly the
// reference's keys and group ids.
func TestTypedEncoderMatchesBoxedReference(t *testing.T) {
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindBool, value.KindDate, value.KindString, value.KindInt}
	attrs := make([]relation.Attribute, len(kinds))
	for i, k := range kinds {
		attrs[i] = relation.Attribute{Name: fmt.Sprintf("a%d", i), Type: k}
	}
	schema := relation.MustSchema("edges", attrs)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New(schema)
		enc := NewChunkEncoder(tab)
		ref := make([]*boxedColumn, len(kinds))
		for i := range ref {
			ref[i] = &boxedColumn{ids: make(map[string]int32)}
		}
		rows := 0
		for r := 0; r < 300; r++ {
			// A header may repeat a column; the last of its fields wins.
			colIdx := rng.Perm(len(kinds))[:1+rng.Intn(len(kinds))]
			for rng.Intn(3) == 0 {
				colIdx = append(colIdx, colIdx[rng.Intn(len(colIdx))])
			}
			rng.Shuffle(len(colIdx), func(i, j int) { colIdx[i], colIdx[j] = colIdx[j], colIdx[i] })
			rec := make([]string, len(colIdx))
			for i, ci := range colIdx {
				texts := append(slices.Clone(edgeTexts[kinds[ci]]), nullTexts...)
				rec[i] = texts[rng.Intn(len(texts))]
			}
			row := make(Row, len(kinds))
			var refErr error
			for i, ci := range colIdx {
				if row[ci], refErr = value.Parse(rec[i], kinds[ci]); refErr != nil {
					break
				}
			}
			err := enc.AppendFields(rec, colIdx)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("seed %d record %q: err %v, want %v", seed, rec, err, refErr)
			}
			if refErr == nil {
				for ci, v := range row {
					ref[ci].encode(v)
				}
				rows++
			}
			if enc.Len() != rows {
				t.Fatalf("seed %d record %q: Len %d, want %d", seed, rec, enc.Len(), rows)
			}
			for ci, c := range enc.cols {
				if !slices.Equal(c.codes, ref[ci].codes) {
					t.Fatalf("seed %d record %q column %d: codes %v, want %v", seed, rec, ci, c.codes, ref[ci].codes)
				}
				if c.dict.Len() != len(ref[ci].dict) {
					t.Fatalf("seed %d column %d: %d dictionary entries, want %d", seed, ci, c.dict.Len(), len(ref[ci].dict))
				}
				nonNull := 0
				for i, want := range ref[ci].dict {
					got := c.dict.Value(kinds[ci], int32(i))
					if !got.Equal(want) || got.Key() != want.Key() {
						t.Fatalf("seed %d column %d entry %d: %v (key %q), want %v (key %q)", seed, ci, i, got, got.Key(), want, want.Key())
					}
				}
				for _, code := range ref[ci].codes {
					if code >= 0 {
						nonNull++
					}
				}
				if c.nonNull != nonNull {
					t.Fatalf("seed %d column %d: nonNull %d, want %d", seed, ci, c.nonNull, nonNull)
				}
			}
		}
		if _, err := tab.NewAppender().AppendBatch(enc, false); err != nil {
			t.Fatal(err)
		}
		projections := [][]int{{0}, {1}, {2}, {3}, {4}, {0, 4}, {4, 1, 3}, {2, 5}, {1, 0, 4, 3}}
		for _, idx := range projections {
			names := make([]string, len(idx))
			for i, ci := range idx {
				names[i] = attrs[ci].Name
			}
			p, err := tab.Projection(names)
			if err != nil {
				t.Fatal(err)
			}
			want := boxedKeys(ref, idx, rows)
			got := p.StrDict()
			if ints := p.IntDict(); ints != nil {
				got = make(map[string]int32, len(ints))
				for v, id := range ints {
					got[value.NewInt(v).Key()+"\x1f"] = id
				}
			}
			if p.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("seed %d projection %v: Len %d, %d keys, want %d", seed, names, p.Len(), len(got), len(want))
			}
			for k, id := range want {
				if gid, ok := got[k]; !ok || gid != id {
					t.Fatalf("seed %d projection %v: key %q → %d (present %v), want %d", seed, names, k, gid, ok, id)
				}
			}
		}
	}
}

// TestAllNullColumnFlavor: an all-NULL column of a non-INTEGER attribute
// is no longer int-flavored (the flavor comes from the attribute's type,
// not from the values seen), and its projection is empty either way.
func TestAllNullColumnFlavor(t *testing.T) {
	tab := New(relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
	}))
	tab.MustInsert(Row{value.Null, value.Null})
	pi, _ := tab.Projection([]string{"i"})
	ps, _ := tab.Projection([]string{"s"})
	if pi.IntDict() == nil || pi.StrDict() != nil || len(pi.IntDict()) != 0 {
		t.Errorf("all-NULL INTEGER column: want an empty int64-keyed dictionary")
	}
	if ps.IntDict() != nil || ps.StrDict() == nil || len(ps.StrDict()) != 0 {
		t.Errorf("all-NULL VARCHAR column: want an empty key dictionary")
	}
}
