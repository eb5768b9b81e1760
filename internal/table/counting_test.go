package table_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// The two-relation counts of IND-Discovery — N_kl = ‖r_k[A_k] ⋈ r_l[A_l]‖
// and containment — are answered by stats.Cache from this package's
// projection indexes. These tests check them on tables built here against
// plain maps over tab.Row(i).

// scanSet is the set of NULL-free value combinations of tab over attrs,
// keyed by the concatenated length-prefixed value keys.
func scanSet(t *testing.T, tab *table.Table, attrs []string) map[string]bool {
	t.Helper()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := tab.ColIndex(a)
		if !ok {
			t.Fatalf("relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	set := make(map[string]bool)
rows:
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		var b strings.Builder
		for _, c := range cols {
			if row[c].IsNull() {
				continue rows
			}
			k := row[c].Key()
			b.WriteString(strconv.Itoa(len(k)) + ":" + k)
		}
		set[b.String()] = true
	}
	return set
}

// scanJoin returns the reference N_kl and containment of tk[ak] in tl[al].
func scanJoin(t *testing.T, tk *table.Table, ak []string, tl *table.Table, al []string) (nkl int, contained bool) {
	t.Helper()
	sl := scanSet(t, tl, al)
	contained = true
	for k := range scanSet(t, tk, ak) {
		if sl[k] {
			nkl++
		} else {
			contained = false
		}
	}
	return nkl, contained
}

// database builds a columnar database of the given relations, each row
// inserted strictly.
func database(t *testing.T, rels map[*relation.Schema][]table.Row) *table.Database {
	t.Helper()
	var schemas []*relation.Schema
	for s := range rels {
		schemas = append(schemas, s)
	}
	cat, err := relation.NewCatalog(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	for s, rows := range rels {
		for _, r := range rows {
			if err := db.MustTable(s.Name).Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func intRows(vals ...int64) []table.Row {
	rows := make([]table.Row, len(vals))
	for i, v := range vals {
		rows[i] = table.Row{value.NewInt(v)}
	}
	return rows
}

func intRange(from, to int) []int64 {
	var out []int64
	for i := from; i <= to; i++ {
		out = append(out, int64(i))
	}
	return out
}

// twoTables builds Rk(x) = {1..nk} and Rl(y) = {off+1..off+nl} for
// overlap tests.
func twoTables(t *testing.T, nk, nl, off int) *stats.Cache {
	t.Helper()
	rs := relation.MustSchema("Rk", []relation.Attribute{{Name: "x", Type: value.KindInt}})
	ss := relation.MustSchema("Rl", []relation.Attribute{{Name: "y", Type: value.KindInt}})
	return stats.NewCache(database(t, map[*relation.Schema][]table.Row{
		rs: intRows(intRange(1, nk)...),
		ss: intRows(intRange(off+1, off+nl)...),
	}))
}

func TestJoinDistinctCount(t *testing.T) {
	cases := []struct {
		nk, nl, off, want int
	}{
		{10, 20, 0, 10}, // full inclusion
		{10, 10, 5, 5},  // partial overlap
		{10, 10, 50, 0}, // disjoint
		{10, 10, 0, 10}, // equal sets
		{20, 10, 0, 10}, // inclusion the other way
	}
	for _, c := range cases {
		cache := twoTables(t, c.nk, c.nl, c.off)
		got, err := cache.JoinDistinctCount("Rk", []string{"x"}, "Rl", []string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("JoinDistinctCount(%d,%d,off=%d) = %d, want %d", c.nk, c.nl, c.off, got, c.want)
		}
		// Symmetry.
		got2, _ := cache.JoinDistinctCount("Rl", []string{"y"}, "Rk", []string{"x"})
		if got2 != got {
			t.Errorf("JoinDistinctCount not symmetric: %d vs %d", got, got2)
		}
	}
	cache := twoTables(t, 2, 2, 0)
	if _, err := cache.JoinDistinctCount("Rk", []string{"x"}, "Rl", []string{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestContainedIn(t *testing.T) {
	cache := twoTables(t, 10, 20, 0)
	ok, err := cache.ContainedIn("Rk", []string{"x"}, "Rl", []string{"y"})
	if err != nil || !ok {
		t.Errorf("inclusion not detected: %v %v", ok, err)
	}
	ok, _ = cache.ContainedIn("Rl", []string{"y"}, "Rk", []string{"x"})
	if ok {
		t.Error("reverse inclusion wrongly detected")
	}
	if _, err := cache.ContainedIn("Rk", []string{"x"}, "Rl", nil); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestJoinDistinctCountStringPath(t *testing.T) {
	str := func(vs ...string) []table.Row {
		rows := make([]table.Row, len(vs))
		for i, v := range vs {
			rows[i] = table.Row{value.NewString(v)}
		}
		return rows
	}
	pair := func(a, b int64) table.Row { return table.Row{value.NewInt(a), value.NewInt(b)} }
	cache := stats.NewCache(database(t, map[*relation.Schema][]table.Row{
		// Non-integer attributes exercise the string-keyed path.
		relation.MustSchema("R", []relation.Attribute{{Name: "s", Type: value.KindString}}): str("a", "b", "c", "a"),
		relation.MustSchema("S", []relation.Attribute{{Name: "t", Type: value.KindString}}): str("b", "c", "d"),
		// Multi-attribute joins always take the string-keyed path.
		relation.MustSchema("R2", []relation.Attribute{
			{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt},
		}): {pair(1, 2), pair(3, 4)},
		relation.MustSchema("S2", []relation.Attribute{
			{Name: "c", Type: value.KindInt}, {Name: "d", Type: value.KindInt},
		}): {pair(1, 2)},
		// An integer column against a string one that spells the
		// integer: keys of different kinds never match.
		relation.MustSchema("M", []relation.Attribute{{Name: "x", Type: value.KindString}}): str("1", "3"),
	}))
	n, err := cache.JoinDistinctCount("R", []string{"s"}, "S", []string{"t"})
	if err != nil || n != 2 {
		t.Errorf("string join count = %d, %v", n, err)
	}
	n2, err := cache.JoinDistinctCount("R2", []string{"a", "b"}, "S2", []string{"c", "d"})
	if err != nil || n2 != 1 {
		t.Errorf("composite join count = %d, %v", n2, err)
	}
	n3, err := cache.JoinDistinctCount("R", []string{"s"}, "M", []string{"x"})
	if err != nil || n3 != 0 {
		t.Errorf("string join count against M = %d, %v", n3, err)
	}
	n4, err := cache.JoinDistinctCount("R2", []string{"a"}, "M", []string{"x"})
	if err != nil || n4 != 0 {
		t.Errorf("mixed int/string join count = %d, %v", n4, err)
	}
	if in, err := cache.ContainedIn("M", []string{"x"}, "R2", []string{"a"}); err != nil || in {
		t.Errorf("mixed int/string containment = %v, %v", in, err)
	}
	if _, err := cache.JoinDistinctCount("R2", []string{"zz"}, "S2", []string{"c"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// quickCache loads a random pair into relations R(v) and S(v).
func quickCache(t *testing.T, p table.RandTablePair) (*stats.Cache, *table.Database) {
	db := database(t, map[*relation.Schema][]table.Row{
		relation.MustSchema("R", []relation.Attribute{{Name: "v", Type: value.KindInt}}): intRows(p.A...),
		relation.MustSchema("S", []relation.Attribute{{Name: "v", Type: value.KindInt}}): intRows(p.B...),
	})
	return stats.NewCache(db), db
}

func TestQuickJoinCountIsIntersection(t *testing.T) {
	f := func(p table.RandTablePair) bool {
		cache, db := quickCache(t, p)
		n, err := cache.JoinDistinctCount("R", []string{"v"}, "S", []string{"v"})
		want, _ := scanJoin(t, db.MustTable("R"), []string{"v"}, db.MustTable("S"), []string{"v"})
		return err == nil && n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentMatchesSets(t *testing.T) {
	f := func(p table.RandTablePair) bool {
		cache, db := quickCache(t, p)
		got, err := cache.ContainedIn("R", []string{"v"}, "S", []string{"v"})
		_, want := scanJoin(t, db.MustTable("R"), []string{"v"}, db.MustTable("S"), []string{"v"})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEngineDifferentialJoins checks the cache's two-relation counts on
// both engines, fed the identical randomized insert sequence (NULLs,
// 0x1f-bearing strings, strings stored unchecked into the integer
// column), against the direct scan.
func TestEngineDifferentialJoins(t *testing.T) {
	attrs := []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
	}
	cat := func() *relation.Catalog {
		return relation.MustCatalog(relation.MustSchema("K", attrs), relation.MustSchema("L", attrs))
	}
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			rowDB := table.NewDatabaseWith(cat(), table.EngineRow)
			colDB := table.NewDatabaseWith(cat(), table.EngineColumnar)
			for _, rel := range []string{"K", "L"} {
				table.FillPair(t, rng, rowDB.MustTable(rel), colDB.MustTable(rel), 60)
			}
			caches := map[string]*stats.Cache{"row": stats.NewCache(rowDB), "columnar": stats.NewCache(colDB)}
			lists := [][]string{{"i"}, {"s"}, {"i", "s"}}
			for _, ak := range lists {
				for _, al := range lists {
					if len(ak) != len(al) {
						continue
					}
					nRef, inRef := scanJoin(t, rowDB.MustTable("K"), ak, rowDB.MustTable("L"), al)
					for engine, cache := range caches {
						label := fmt.Sprintf("%s %v~%v", engine, ak, al)
						n, err := cache.JoinDistinctCount("K", ak, "L", al)
						if err != nil || n != nRef {
							t.Errorf("JoinDistinctCount %s: got (%d,%v), scan %d", label, n, err, nRef)
						}
						in, err := cache.ContainedIn("K", ak, "L", al)
						if err != nil || in != inRef {
							t.Errorf("ContainedIn %s: got (%v,%v), scan %v", label, in, err, inRef)
						}
					}
				}
			}
		})
	}
}
