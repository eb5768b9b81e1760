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

// This file differentially tests the two storage engines: every primitive
// the pipelines consume is run against a row-backed and a columnar table
// fed the identical insert sequence, and the results must agree exactly —
// including the bit-level RowGroup vectors, whose first-occurrence-dense
// numbering both engines are documented to share.

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

// buildPair grows a row-engine and a columnar table through the same
// randomized sequence of Insert and InsertUnchecked calls (including
// inserts that fail constraint checks on both engines alike).
func buildPair(t *testing.T, rng *rand.Rand, s *relation.Schema, nrows int) (*Table, *Table) {
	t.Helper()
	row := NewWithEngine(s, EngineRow)
	col := NewWithEngine(s, EngineColumnar)
	kinds := make([]value.Kind, len(s.Attrs))
	for i, a := range s.Attrs {
		kinds[i] = a.Type
	}
	for n := 0; n < nrows; n++ {
		r := make(Row, len(kinds))
		for i, k := range kinds {
			r[i] = randValue(rng, k)
		}
		if rng.Intn(8) == 0 {
			// Unchecked inserts bypass coercion, so columns can hold
			// mixed kinds — the int fast paths must bail identically.
			r[rng.Intn(len(r))] = randValue(rng, value.KindString)
			row.InsertUnchecked(r)
			col.InsertUnchecked(r)
			continue
		}
		errRow := row.Insert(r)
		errCol := col.Insert(r)
		if (errRow == nil) != (errCol == nil) {
			t.Fatalf("insert %d: engines disagree on error: row=%v columnar=%v", n, errRow, errCol)
		}
	}
	return row, col
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

func compareProjections(t *testing.T, label string, pr, pc *Projection) {
	t.Helper()
	if !reflect.DeepEqual(pr.RowGroup, pc.RowGroup) {
		t.Errorf("%s: RowGroup vectors differ\nrow:      %v\ncolumnar: %v", label, pr.RowGroup, pc.RowGroup)
	}
	if pr.Len() != pc.Len() || pr.NonNull != pc.NonNull {
		t.Errorf("%s: Len/NonNull differ: row (%d,%d) columnar (%d,%d)",
			label, pr.Len(), pr.NonNull, pc.Len(), pc.NonNull)
	}
	ri, ci := pr.IntDict(), pc.IntDict()
	rs, cs := pr.StrDict(), pc.StrDict()
	if (ri == nil) != (ci == nil) || (rs == nil) != (cs == nil) {
		t.Fatalf("%s: dictionary flavors differ: row(int=%v,str=%v) columnar(int=%v,str=%v)",
			label, ri != nil, rs != nil, ci != nil, cs != nil)
	}
	if ri != nil && !reflect.DeepEqual(ri, ci) {
		t.Errorf("%s: IntDict differs\nrow:      %v\ncolumnar: %v", label, ri, ci)
	}
	if rs != nil && !reflect.DeepEqual(rs, cs) {
		t.Errorf("%s: StrDict differs\nrow:      %q\ncolumnar: %q", label, rs, cs)
	}
}

func compareTables(t *testing.T, row, col *Table) {
	t.Helper()
	if row.Len() != col.Len() {
		t.Fatalf("Len: row %d, columnar %d", row.Len(), col.Len())
	}
	s := row.Schema()
	for i := 0; i < row.Len(); i++ {
		rr, rc := row.Row(i), col.Row(i)
		if len(rr) != len(rc) {
			t.Fatalf("Row(%d): arity differs", i)
		}
		for j := range rr {
			if rr[j].Key() != rc[j].Key() {
				t.Fatalf("Value(%d,%d): row %v, columnar %v", i, j, rr[j], rc[j])
			}
			if col.Value(i, j).Key() != rr[j].Key() {
				t.Fatalf("columnar Value(%d,%d) = %v, Row gave %v", i, j, col.Value(i, j), rr[j])
			}
		}
	}
	for _, attrs := range attrSubsets(s) {
		label := fmt.Sprintf("%v", attrs)
		nr, er := row.DistinctCount(attrs)
		nc, ec := col.DistinctCount(attrs)
		if (er == nil) != (ec == nil) || nr != nc {
			t.Errorf("DistinctCount%s: row (%d,%v) columnar (%d,%v)", label, nr, er, nc, ec)
		}
		cr, _ := row.CountNonNull(attrs)
		cc, _ := col.CountNonNull(attrs)
		if cr != cc {
			t.Errorf("CountNonNull%s: row %d, columnar %d", label, cr, cc)
		}
		sr, _ := row.DistinctSet(attrs)
		sc, _ := col.DistinctSet(attrs)
		if !reflect.DeepEqual(sr, sc) {
			t.Errorf("DistinctSet%s: row %q, columnar %q", label, sr, sc)
		}
		gr, _ := row.GroupRows(attrs)
		gc, _ := col.GroupRows(attrs)
		if !reflect.DeepEqual(gr, gc) {
			t.Errorf("GroupRows%s differ", label)
		}
		pr, er := row.Projection(attrs)
		pc, ec := col.Projection(attrs)
		if (er == nil) != (ec == nil) {
			t.Fatalf("Projection%s: row err %v, columnar err %v", label, er, ec)
		}
		if er == nil {
			compareProjections(t, "Projection"+label, pr, pc)
		}
		pschema := relation.MustSchema("P", attrSchema(row, attrs))
		dr, dc := NewWithEngine(pschema, EngineRow), New(pschema)
		row.ProjectDistinct(dr, attrs, nil, nil)
		col.ProjectDistinct(dc, attrs, nil, nil)
		if dr.Len() != dc.Len() {
			t.Errorf("ProjectDistinct%s: row %d rows, columnar %d", label, dr.Len(), dc.Len())
		} else {
			for i := 0; i < dr.Len(); i++ {
				for j := range attrs {
					if a, b := dr.Value(i, j), dc.Value(i, j); a.Key() != b.Key() {
						t.Errorf("ProjectDistinct%s[%d][%d]: row %v, columnar %v", label, i, j, a, b)
					}
				}
			}
		}
	}
	// Whole-row primitives.
	srows, crows := row.SortedRows(), col.SortedRows()
	if len(srows) != len(crows) {
		t.Fatalf("SortedRows: row %d, columnar %d", len(srows), len(crows))
	}
	for i := range srows {
		for j := range srows[i] {
			if srows[i][j].Key() != crows[i][j].Key() {
				t.Fatalf("SortedRows[%d][%d]: row %v, columnar %v", i, j, srows[i][j], crows[i][j])
			}
		}
	}
	pred := func(r Row) bool { return !r[0].IsNull() }
	if !reflect.DeepEqual(row.Filter(pred), col.Filter(pred)) {
		t.Errorf("Filter: engines disagree")
	}
	for _, a := range s.Attrs {
		u := relation.NewAttrSet(a.Name)
		okR, aR, bR, _ := row.CheckUnique(u)
		okC, aC, bC, _ := col.CheckUnique(u)
		if okR != okC || aR != aC || bR != bC {
			t.Errorf("CheckUnique(%s): row (%v,%d,%d) columnar (%v,%d,%d)", a.Name, okR, aR, bR, okC, aC, bC)
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
	// 0, which forces the pre-overhaul map path — the row engine is the
	// reference for both.
	for _, budget := range []int64{-1, 0} {
		budget := budget
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			prev := SetRefineDenseBudget(budget)
			defer SetRefineDenseBudget(prev)
			for seed := int64(0); seed < 20; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					row, col := buildPair(t, rng, schema(), 40+rng.Intn(120))
					compareTables(t, row, col)
				})
			}
		})
	}
}

// TestEngineDifferentialJoins exercises the two-table primitives — the
// IND-Discovery kernels — across engine combinations, including mixed
// (row ⊆ columnar and vice versa), which the loaders can produce when a
// restructured relation is rebuilt under a different database engine.
func TestEngineDifferentialJoins(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
	})
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			rowK, colK := buildPair(t, rng, s, 60)
			rowL, colL := buildPair(t, rng, s, 60)
			attrs := [][]string{{"i"}, {"s"}, {"i", "s"}}
			for _, ak := range attrs {
				for _, al := range attrs {
					if len(ak) != len(al) {
						continue
					}
					label := fmt.Sprintf("%v~%v", ak, al)
					nRef, _ := JoinDistinctCount(rowK, ak, rowL, al)
					for _, pair := range [][2]*Table{{colK, colL}, {rowK, colL}, {colK, rowL}} {
						n, err := JoinDistinctCount(pair[0], ak, pair[1], al)
						if err != nil || n != nRef {
							t.Errorf("JoinDistinctCount%s: got (%d,%v), row-row %d", label, n, err, nRef)
						}
					}
					inRef, _ := ContainedIn(rowK, ak, rowL, al)
					inCol, err := ContainedIn(colK, ak, colL, al)
					if err != nil || inCol != inRef {
						t.Errorf("ContainedIn%s: columnar (%v,%v), row %v", label, inCol, err, inRef)
					}
					ejRef, _ := EquiJoinRows(rowK, ak, rowL, al)
					ejCol, err := EquiJoinRows(colK, ak, colL, al)
					if err != nil {
						t.Fatalf("EquiJoinRows%s: %v", label, err)
					}
					sortPairs := func(p [][2]int) {
						sort.Slice(p, func(i, j int) bool {
							if p[i][0] != p[j][0] {
								return p[i][0] < p[j][0]
							}
							return p[i][1] < p[j][1]
						})
					}
					sortPairs(ejRef)
					sortPairs(ejCol)
					if !reflect.DeepEqual(ejRef, ejCol) {
						t.Errorf("EquiJoinRows%s: row %v, columnar %v", label, ejRef, ejCol)
					}
				}
			}
		})
	}
}
