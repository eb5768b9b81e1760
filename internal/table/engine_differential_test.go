package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// This file checks every primitive the pipelines consume against
// plain-map references over the rows a randomized sequence of Insert and
// InsertUnchecked calls stored — including the bit-level RowGroup
// vectors, whose numbering is defined as dense ids in first-occurrence
// row order, -1 for a row with a NULL among the attributes.

// randValue draws from a pool designed to stress the key encodings: NaN
// (map equality differs from Key equality), strings containing the 0x1f
// separator, strings that spell kind tags ("s…", "i…"), empty strings,
// NULLs, and plain ints/floats/bools/dates with small domains so groups
// actually collide.
func randValue(rng *rand.Rand, kind value.Kind) value.Value {
	if rng.Intn(5) == 0 {
		return value.Null
	}
	switch kind {
	case value.KindInt:
		return value.NewInt(int64(rng.Intn(7) - 3))
	case value.KindFloat:
		switch rng.Intn(5) {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat(0)
		default:
			return value.NewFloat(float64(rng.Intn(4)))
		}
	case value.KindBool:
		return value.NewBool(rng.Intn(2) == 0)
	case value.KindDate:
		return value.NewDate(1996, 2, 1+rng.Intn(4))
	default:
		pool := []string{
			"", "a", "b", "ab", "\x1f", "a\x1f", "\x1fa", "a\x1fb",
			"s", "s1", "i7", "f0", "n", "t", "d19960201",
		}
		return value.NewString(pool[rng.Intn(len(pool))])
	}
}

// fillSequence appends nrows random rows to tab, a table of a schema
// without constraints, through a random mix of Insert and
// InsertUnchecked. An unchecked row may carry a value spelled as a
// string, which the table must coerce to its attribute's type. It
// returns the rows the table must then hold, coerced by value.Coerce.
func fillSequence(t *testing.T, rng *rand.Rand, tab *Table, nrows int) []Row {
	t.Helper()
	attrs := tab.Schema().Attrs
	var stored []Row
	for n := 0; n < nrows; n++ {
		r := make(Row, len(attrs))
		for i, a := range attrs {
			r[i] = randValue(rng, a.Type)
		}
		want := r.Clone()
		if rng.Intn(8) != 0 {
			if err := tab.Insert(r); err != nil {
				t.Fatalf("insert %d: %v", n, err)
			}
			stored = append(stored, want)
			continue
		}
		i := rng.Intn(len(r))
		if spelled := value.NewString(r[i].String()); !r[i].IsNull() {
			if v, ok := value.Coerce(spelled, attrs[i].Type); ok {
				r[i], want[i] = spelled, v
			}
		}
		tab.InsertUnchecked(r)
		stored = append(stored, want)
	}
	return stored
}

// attrSubsets enumerates a few deterministic attribute lists to probe.
func attrSubsets(s *relation.Schema) [][]string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	subsets := [][]string{}
	for _, n := range names {
		subsets = append(subsets, []string{n})
	}
	for i := 0; i+1 < len(names); i++ {
		subsets = append(subsets, []string{names[i], names[i+1]})
	}
	if len(names) >= 3 {
		subsets = append(subsets, names[:3], names)
	}
	return subsets
}

// rowKey is the composite key of row over cols: value.AppendKey plus a
// 0x1f terminator per attribute. null reports a NULL among them.
func rowKey(row Row, cols []int) (key string, null bool) {
	var b []byte
	for _, c := range cols {
		if row[c].IsNull() {
			return "", true
		}
		b = row[c].AppendKey(b)
		b = append(b, 0x1f)
	}
	return string(b), false
}

// compareRows orders rows by value.Compare, column by column.
func compareRows(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// refGroups is the definition of a projection over rows: group ids
// dense in first-occurrence row order, -1 for a row with a NULL among
// cols, and each group's composite key and first row.
func refGroups(rows []Row, cols []int) (ids []int32, keys []string, first []int) {
	index := make(map[string]int32)
	ids = make([]int32, len(rows))
	for i, r := range rows {
		k, null := rowKey(r, cols)
		if null {
			ids[i] = -1
			continue
		}
		id, ok := index[k]
		if !ok {
			id = int32(len(keys))
			index[k] = id
			keys = append(keys, k)
			first = append(first, i)
		}
		ids[i] = id
	}
	return ids, keys, first
}

// checkTable compares tab's primitives with the references over want,
// the rows tab must hold.
func checkTable(t *testing.T, tab *Table, want []Row) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(want))
	}
	s := tab.Schema()
	for i, w := range want {
		got := tab.Row(i)
		for j := range w {
			if got[j].Key() != w[j].Key() || tab.Value(i, j).Key() != w[j].Key() {
				t.Fatalf("row %d column %d: Row %v, Value %v, want %v", i, j, got[j], tab.Value(i, j), w[j])
			}
		}
	}
	for _, attrs := range attrSubsets(s) {
		label := fmt.Sprint(attrs)
		cols, err := tab.colIndexes(attrs)
		if err != nil {
			t.Fatal(err)
		}
		ids, keys, first := refGroups(want, cols)
		nonNull := 0
		intFlavor := len(cols) == 1
		for i, id := range ids {
			if id >= 0 {
				nonNull++
				if want[i][cols[0]].Kind() != value.KindInt {
					intFlavor = false
				}
			}
		}
		if n, err := tab.DistinctCount(attrs); err != nil || n != len(keys) {
			t.Errorf("DistinctCount%s = (%d, %v), want %d", label, n, err, len(keys))
		}
		if n, err := tab.CountNonNull(attrs); err != nil || n != nonNull {
			t.Errorf("CountNonNull%s = (%d, %v), want %d", label, n, err, nonNull)
		}
		p := mustProj(t, tab, attrs)
		if !reflect.DeepEqual(p.RowGroup, ids) {
			t.Errorf("Projection%s: RowGroup\ngot:  %v\nwant: %v", label, p.RowGroup, ids)
		}
		if p.Len() != len(keys) || p.NonNull != nonNull {
			t.Errorf("Projection%s: Len/NonNull (%d,%d), want (%d,%d)", label, p.Len(), p.NonNull, len(keys), nonNull)
		}
		ints, strs := p.IntDict(), p.StrDict()
		if (ints != nil) != intFlavor || (strs != nil) == intFlavor {
			t.Fatalf("Projection%s: dictionary flavors int=%v str=%v, want int=%v", label, ints != nil, strs != nil, intFlavor)
		}
		for g, r := range first {
			if intFlavor {
				if id, ok := ints[want[r][cols[0]].Int()]; !ok || id != int32(g) {
					t.Errorf("Projection%s: IntDict[%v] = (%d, %v), want %d", label, want[r][cols[0]], id, ok, g)
				}
			} else if id, ok := strs[keys[g]]; !ok || id != int32(g) {
				t.Errorf("Projection%s: StrDict[%q] = (%d, %v), want %d", label, keys[g], id, ok, g)
			}
		}
		if len(ints)+len(strs) != len(keys) {
			t.Errorf("Projection%s: dictionary holds %d keys, want %d", label, len(ints)+len(strs), len(keys))
		}

		// ProjectDistinct: one row per group, sorted by value.Compare
		// over first-occurrence order.
		distinct := make([]Row, len(first))
		for g, r := range first {
			for _, c := range cols {
				distinct[g] = append(distinct[g], want[r][c])
			}
		}
		sort.Slice(distinct, func(i, j int) bool { return compareRows(distinct[i], distinct[j]) < 0 })
		dst := New(relation.MustSchema("P", attrSchema(tab, attrs)))
		if _, err := tab.ProjectDistinct(dst, attrs, nil, nil); err != nil {
			t.Fatalf("ProjectDistinct%s: %v", label, err)
		}
		if dst.Len() != len(distinct) {
			t.Fatalf("ProjectDistinct%s: %d rows, want %d", label, dst.Len(), len(distinct))
		}
		for i, w := range distinct {
			for j := range w {
				if got := dst.Value(i, j); got.Key() != w[j].Key() {
					t.Errorf("ProjectDistinct%s[%d][%d] = %v, want %v", label, i, j, got, w[j])
				}
			}
		}
	}
	for c, a := range s.Attrs {
		okWant, aWant, bWant := true, 0, 0
		seen := make(map[string]int)
		for i, r := range want {
			k, null := rowKey(r, []int{c})
			if null {
				continue
			}
			if prev, dup := seen[k]; dup {
				okWant, aWant, bWant = false, prev, i
				break
			}
			seen[k] = i
		}
		ok, ra, rb, err := tab.CheckUnique(relation.NewAttrSet(a.Name))
		if err != nil || ok != okWant || ra != aWant || rb != bWant {
			t.Errorf("CheckUnique(%s) = (%v,%d,%d,%v), want (%v,%d,%d)", a.Name, ok, ra, rb, err, okWant, aWant, bWant)
		}
	}
}

func TestEngineDifferential(t *testing.T) {
	schema := func() *relation.Schema {
		return relation.MustSchema("R", []relation.Attribute{
			{Name: "i", Type: value.KindInt},
			{Name: "s", Type: value.KindString},
			{Name: "f", Type: value.KindFloat},
			{Name: "b", Type: value.KindBool},
			{Name: "d", Type: value.KindDate},
		})
	}
	// The sweep covers both remapping strategies of the refinement
	// kernel: the default budget (dense at these table sizes) and budget
	// 0, which forces the pre-overhaul map path — the plain-map reference
	// is the same for both.
	for _, budget := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			prev := SetRefineDenseBudget(budget)
			defer SetRefineDenseBudget(prev)
			for seed := int64(0); seed < 20; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					tab := New(schema())
					want := fillSequence(t, rng, tab, 40+rng.Intn(120))
					checkTable(t, tab, want)
				})
			}
		})
	}
}
