package table

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dbre/internal/relation"
	"dbre/internal/value"
)

func ints(vs ...int64) Row {
	r := make(Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func simpleSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	}, relation.NewAttrSet("a"))
}

func TestInsertBasics(t *testing.T) {
	tab := New(simpleSchema(t))
	if err := tab.Insert(Row{value.NewInt(1), value.NewInt(2), value.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Arity.
	if err := tab.Insert(Row{value.NewInt(2)}); err == nil {
		t.Error("bad arity accepted")
	}
	// Unique violation.
	if err := tab.Insert(Row{value.NewInt(1), value.NewInt(9), value.NewString("y")}); err == nil {
		t.Error("UNIQUE violation accepted")
	}
	// NULL in key.
	if err := tab.Insert(Row{value.Null, value.NewInt(1), value.NewString("y")}); err == nil {
		t.Error("NULL key accepted")
	}
	// Type coercion int→string column fails? string col accepts coerced int.
	if err := tab.Insert(Row{value.NewInt(2), value.NewInt(1), value.NewInt(7)}); err != nil {
		t.Errorf("coercible insert rejected: %v", err)
	}
	if got := tab.Row(1)[2]; got.Kind() != value.KindString || got.Str() != "7" {
		t.Errorf("coercion result = %v", got)
	}
	// NULL allowed in non-key.
	if err := tab.Insert(Row{value.NewInt(3), value.Null, value.Null}); err != nil {
		t.Errorf("NULL non-key rejected: %v", err)
	}
}

func TestInsertNotNull(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindString, NotNull: true},
	})
	tab := New(s)
	if err := tab.Insert(Row{value.NewInt(1), value.Null}); err == nil {
		t.Error("NOT NULL violation accepted")
	}
	if err := tab.Insert(Row{value.Null, value.NewString("ok")}); err != nil {
		t.Errorf("legal row rejected: %v", err)
	}
}

func TestInsertUncheckedBypasses(t *testing.T) {
	tab := New(simpleSchema(t))
	tab.MustInsert(Row{value.NewInt(1), value.NewInt(1), value.NewString("x")})
	tab.InsertUnchecked(Row{value.NewInt(1), value.NewInt(2), value.NewString("dup key")})
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	ok, i, j, err := tab.CheckUnique(relation.NewAttrSet("a"))
	if err != nil {
		t.Fatal(err)
	}
	if ok || i != 0 || j != 1 {
		t.Errorf("CheckUnique = %v %d %d, want violation 0,1", ok, i, j)
	}
}

func TestProjectAndDistinct(t *testing.T) {
	tab := New(simpleSchema(t))
	rows := []Row{
		{value.NewInt(1), value.NewInt(10), value.NewString("x")},
		{value.NewInt(2), value.NewInt(10), value.NewString("x")},
		{value.NewInt(3), value.NewInt(20), value.Null},
		{value.NewInt(4), value.Null, value.NewString("y")},
	}
	for _, r := range rows {
		tab.MustInsert(r)
	}
	n, err := tab.DistinctCount([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // 10, 20; NULL skipped per COUNT(DISTINCT)
		t.Errorf("DistinctCount(b) = %d, want 2", n)
	}
	n, _ = tab.DistinctCount([]string{"b", "c"})
	if n != 1 { // (10,x) twice → 1, (20,NULL) and (NULL,y) skipped
		t.Errorf("DistinctCount(b,c) = %d, want 1", n)
	}
	dr := New(relation.MustSchema("P", attrSchema(tab, []string{"b"})))
	if _, err := tab.ProjectDistinct(dr, []string{"b"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if dr.Len() != 2 || !dr.Value(0, 0).Equal(value.NewInt(10)) || !dr.Value(1, 0).Equal(value.NewInt(20)) {
		t.Errorf("ProjectDistinct = %v", dr.SortedRows())
	}
}

func TestKeySeparatorNoCollision(t *testing.T) {
	// Composite keys must not confuse ("ab","c") with ("a","bc").
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindString},
		{Name: "b", Type: value.KindString},
	})
	tab := New(s)
	tab.MustInsert(Row{value.NewString("ab"), value.NewString("c")})
	tab.MustInsert(Row{value.NewString("a"), value.NewString("bc")})
	n, _ := tab.DistinctCount([]string{"a", "b"})
	if n != 2 {
		t.Errorf("composite key collision: DistinctCount = %d, want 2", n)
	}
}

// twoTables builds r(x) = {1..nk} and s(y) = {off+1..off+nl} for overlap
// tests.
func twoTables(t *testing.T, nk, nl, off int) (*Table, *Table) {
	t.Helper()
	rs := relation.MustSchema("Rk", []relation.Attribute{{Name: "x", Type: value.KindInt}})
	ss := relation.MustSchema("Rl", []relation.Attribute{{Name: "y", Type: value.KindInt}})
	rt, st := New(rs), New(ss)
	for i := 1; i <= nk; i++ {
		rt.MustInsert(ints(int64(i)))
	}
	for i := off + 1; i <= off+nl; i++ {
		st.MustInsert(ints(int64(i)))
	}
	return rt, st
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
		rt, st := twoTables(t, c.nk, c.nl, c.off)
		got, err := JoinDistinctCount(rt, []string{"x"}, st, []string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("JoinDistinctCount(%d,%d,off=%d) = %d, want %d", c.nk, c.nl, c.off, got, c.want)
		}
		// Symmetry.
		got2, _ := JoinDistinctCount(st, []string{"y"}, rt, []string{"x"})
		if got2 != got {
			t.Errorf("JoinDistinctCount not symmetric: %d vs %d", got, got2)
		}
	}
	rt, st := twoTables(t, 2, 2, 0)
	if _, err := JoinDistinctCount(rt, []string{"x"}, st, []string{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestContainedIn(t *testing.T) {
	rt, st := twoTables(t, 10, 20, 0)
	ok, err := ContainedIn(rt, []string{"x"}, st, []string{"y"})
	if err != nil || !ok {
		t.Errorf("inclusion not detected: %v %v", ok, err)
	}
	ok, _ = ContainedIn(st, []string{"y"}, rt, []string{"x"})
	if ok {
		t.Error("reverse inclusion wrongly detected")
	}
	if _, err := ContainedIn(rt, []string{"x"}, st, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestEquiJoinRows(t *testing.T) {
	rs := relation.MustSchema("R", []relation.Attribute{
		{Name: "x", Type: value.KindInt}, {Name: "t", Type: value.KindString},
	})
	ss := relation.MustSchema("S", []relation.Attribute{{Name: "y", Type: value.KindInt}})
	rt, st := New(rs), New(ss)
	rt.MustInsert(Row{value.NewInt(1), value.NewString("a")})
	rt.MustInsert(Row{value.NewInt(2), value.NewString("b")})
	rt.MustInsert(Row{value.NewInt(1), value.NewString("c")})
	rt.MustInsert(Row{value.Null, value.NewString("n")})
	st.MustInsert(ints(1))
	st.MustInsert(ints(3))
	pairs, err := EquiJoinRows(rt, []string{"x"}, st, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("join pairs = %v", pairs)
	}
	// NULL never joins.
	for _, p := range pairs {
		if rt.Row(p[0])[0].IsNull() {
			t.Error("NULL joined")
		}
		if !rt.Row(p[0])[0].Equal(st.Row(p[1])[0]) {
			t.Errorf("mismatched pair %v", p)
		}
	}
}

func TestFilterAndSortedRows(t *testing.T) {
	tab := New(simpleSchema(t))
	tab.MustInsert(Row{value.NewInt(3), value.NewInt(1), value.NewString("x")})
	tab.MustInsert(Row{value.NewInt(1), value.NewInt(2), value.NewString("y")})
	tab.MustInsert(Row{value.NewInt(2), value.NewInt(3), value.NewString("z")})
	got := tab.Filter(func(r Row) bool { return r[0].Int() >= 2 })
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Filter = %v", got)
	}
	sorted := tab.SortedRows()
	if !sorted[0][0].Equal(value.NewInt(1)) || !sorted[2][0].Equal(value.NewInt(3)) {
		t.Errorf("SortedRows = %v", sorted)
	}
	if !tab.Row(0)[0].Equal(value.NewInt(3)) {
		t.Error("SortedRows mutated the table")
	}
}

func TestDatabase(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{{Name: "x", Type: value.KindInt}}),
		relation.MustSchema("B", []relation.Attribute{{Name: "y", Type: value.KindInt}}),
	)
	db := NewDatabase(cat)
	if db.Catalog() != cat {
		t.Error("Catalog lost")
	}
	ta, ok := db.Table("A")
	if !ok {
		t.Fatal("Table(A) missing")
	}
	ta.MustInsert(ints(1))
	db.MustTable("B").MustInsert(ints(2))
	if db.TotalRows() != 2 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
	if _, ok := db.Table("C"); ok {
		t.Error("unknown relation found")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustTable did not panic")
			}
		}()
		db.MustTable("C")
	}()
	ns := relation.MustSchema("S1", []relation.Attribute{{Name: "z", Type: value.KindInt}})
	if err := db.AddRelation(ns); err != nil {
		t.Fatal(err)
	}
	if !db.Catalog().Has("S1") {
		t.Error("AddRelation did not register in catalog")
	}
	if _, ok := db.Table("S1"); !ok {
		t.Error("AddRelation did not create the table")
	}
	if err := db.AddRelation(ns); err == nil {
		t.Error("duplicate AddRelation accepted")
	}
}

// randTablePair generates two single-column integer tables with overlapping
// small domains for property tests.
type randTablePair struct {
	A, B []int64
}

// Generate implements quick.Generator.
func (randTablePair) Generate(r *rand.Rand, _ int) reflect.Value {
	gen := func() []int64 {
		n := r.Intn(40)
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.Intn(15))
		}
		return out
	}
	return reflect.ValueOf(randTablePair{gen(), gen()})
}

func buildSingle(name string, vals []int64) *Table {
	s := relation.MustSchema(name, []relation.Attribute{{Name: "v", Type: value.KindInt}})
	t := New(s)
	for _, v := range vals {
		t.MustInsert(ints(v))
	}
	return t
}

func setOf(vals []int64) map[int64]bool {
	m := make(map[int64]bool)
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func TestQuickDistinctCountMatchesBruteForce(t *testing.T) {
	f := func(p randTablePair) bool {
		tab := buildSingle("R", p.A)
		n, err := tab.DistinctCount([]string{"v"})
		return err == nil && n == len(setOf(p.A))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinCountIsIntersection(t *testing.T) {
	f := func(p randTablePair) bool {
		ta, tb := buildSingle("R", p.A), buildSingle("S", p.B)
		n, err := JoinDistinctCount(ta, []string{"v"}, tb, []string{"v"})
		if err != nil {
			return false
		}
		want := 0
		sb := setOf(p.B)
		for v := range setOf(p.A) {
			if sb[v] {
				want++
			}
		}
		return n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentMatchesSets(t *testing.T) {
	f := func(p randTablePair) bool {
		ta, tb := buildSingle("R", p.A), buildSingle("S", p.B)
		got, err := ContainedIn(ta, []string{"v"}, tb, []string{"v"})
		if err != nil {
			return false
		}
		sb := setOf(p.B)
		want := true
		for v := range setOf(p.A) {
			if !sb[v] {
				want = false
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{value.NewInt(1)}
	c := r.Clone()
	c[0] = value.NewInt(2)
	if !r[0].Equal(value.NewInt(1)) {
		t.Error("Clone shares storage")
	}
}

func TestCheckUniqueClean(t *testing.T) {
	tab := New(simpleSchema(t))
	tab.MustInsert(Row{value.NewInt(1), value.NewInt(1), value.NewString("x")})
	tab.MustInsert(Row{value.NewInt(2), value.NewInt(1), value.NewString("x")})
	ok, _, _, err := tab.CheckUnique(relation.NewAttrSet("a"))
	if err != nil || !ok {
		t.Errorf("CheckUnique clean = %v, %v", ok, err)
	}
	if _, _, _, err := tab.CheckUnique(relation.NewAttrSet("zz")); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestStringsInKeys(t *testing.T) {
	// Guard the 0x1f separator choice: values containing the separator
	// byte must still be distinguished via value.Key prefixes.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindString},
		{Name: "b", Type: value.KindString},
	})
	tab := New(s)
	tab.MustInsert(Row{value.NewString("x\x1f"), value.NewString("y")})
	tab.MustInsert(Row{value.NewString("x"), value.NewString("\x1fy")})
	n, _ := tab.DistinctCount([]string{"a", "b"})
	if n != 2 {
		t.Fatalf("separator collision: DistinctCount = %d, want 2", n)
	}
}

func TestCompositeKeysSelfDelimiting(t *testing.T) {
	// String keys are length-prefixed, so no split of a concatenation can
	// be confused with another: ("ab","c") vs ("a","bc"), values holding
	// the 0x1f separator byte, and values that begin with a kind tag all
	// stay distinct in composite keys.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindString},
		{Name: "b", Type: value.KindString},
	})
	pairs := [][2]string{
		{"ab", "c"}, {"a", "bc"}, {"abc", ""}, {"", "abc"},
		{"a\x1fb", "c"}, {"a", "b\x1fc"}, {"a\x1f", "bc"},
		{"s1", "x"}, {"s", "1x"}, // 's' is the string kind tag
		{"i7", ""}, {"", "i7"},
	}
	for _, eng := range []Engine{EngineRow, EngineColumnar} {
		tab := NewWithEngine(s, eng)
		for _, p := range pairs {
			tab.MustInsert(Row{value.NewString(p[0]), value.NewString(p[1])})
		}
		n, err := tab.DistinctCount([]string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(pairs) {
			t.Errorf("%v: DistinctCount = %d, want %d distinct pairs", eng, n, len(pairs))
		}
	}
}

func TestSchemaStringSmoke(t *testing.T) {
	tab := New(simpleSchema(t))
	if !strings.Contains(tab.Schema().String(), "R(") {
		t.Error("schema lost")
	}
}

func TestColIndex(t *testing.T) {
	tab := New(simpleSchema(t))
	if i, ok := tab.ColIndex("b"); !ok || i != 1 {
		t.Errorf("ColIndex(b) = %d, %v", i, ok)
	}
	if _, ok := tab.ColIndex("zz"); ok {
		t.Error("ColIndex(zz) found")
	}
}

func TestMustInsertPanics(t *testing.T) {
	tab := New(simpleSchema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustInsert did not panic on arity error")
		}
	}()
	tab.MustInsert(Row{value.NewInt(1)})
}

func TestJoinDistinctCountStringPath(t *testing.T) {
	// Non-integer attributes exercise the generic (string-keyed) path.
	rs := relation.MustSchema("R", []relation.Attribute{{Name: "s", Type: value.KindString}})
	ss := relation.MustSchema("S", []relation.Attribute{{Name: "t", Type: value.KindString}})
	rt, st := New(rs), New(ss)
	for _, v := range []string{"a", "b", "c", "a"} {
		rt.MustInsert(Row{value.NewString(v)})
	}
	for _, v := range []string{"b", "c", "d"} {
		st.MustInsert(Row{value.NewString(v)})
	}
	n, err := JoinDistinctCount(rt, []string{"s"}, st, []string{"t"})
	if err != nil || n != 2 {
		t.Errorf("string join count = %d, %v", n, err)
	}
	// Multi-attribute joins always take the generic path.
	rs2 := relation.MustSchema("R2", []relation.Attribute{
		{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt},
	})
	rt2 := New(rs2)
	rt2.MustInsert(ints(1, 2))
	rt2.MustInsert(ints(3, 4))
	st2 := New(relation.MustSchema("S2", []relation.Attribute{
		{Name: "c", Type: value.KindInt}, {Name: "d", Type: value.KindInt},
	}))
	st2.MustInsert(ints(1, 2))
	n2, err := JoinDistinctCount(rt2, []string{"a", "b"}, st2, []string{"c", "d"})
	if err != nil || n2 != 1 {
		t.Errorf("composite join count = %d, %v", n2, err)
	}
	// Mixed-type single attribute falls back to the generic path too.
	ms := New(relation.MustSchema("M", []relation.Attribute{{Name: "x", Type: value.KindString}}))
	ms.MustInsert(Row{value.NewString("1")})
	n3, err := JoinDistinctCount(rt, []string{"s"}, ms, []string{"x"})
	if err != nil || n3 != 0 {
		t.Errorf("mixed join count = %d, %v", n3, err)
	}
	// Unknown attribute errors through the fast path.
	if _, err := JoinDistinctCount(rt2, []string{"zz"}, st2, []string{"c"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestDatabaseDropAttrs(t *testing.T) {
	for _, engine := range []Engine{EngineColumnar, EngineRow} {
		db := NewDatabaseWith(relation.MustCatalog(simpleSchema(t)), engine)
		old := db.MustTable("R")
		old.MustInsert(Row{value.NewInt(1), value.NewInt(2), value.NewString("x")})
		old.MustInsert(Row{value.NewInt(2), value.NewInt(2), value.Null})
		if err := db.DropAttrs("R", relation.NewAttrSet("b", "c")); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		got := db.MustTable("R")
		if got == old || got.Engine() != engine {
			t.Errorf("%v: DropAttrs must install a fresh table on the database engine", engine)
		}
		if s, _ := db.Catalog().Get("R"); got.Schema() != s || len(s.Attrs) != 1 || len(s.Uniques) != 1 {
			t.Errorf("%v: catalog schema %v not the migrated table's one-attribute keyed schema", engine, s)
		}
		if got.Len() != 2 || got.Version() != 2 || !got.Value(1, 0).Equal(value.NewInt(2)) {
			t.Errorf("%v: migrated table len %d version %d", engine, got.Len(), got.Version())
		}
		if old.Len() != 2 || len(old.Schema().Attrs) != 3 {
			t.Errorf("%v: source table changed", engine)
		}
		if err := db.DropAttrs("Ghost", relation.NewAttrSet("g")); err == nil {
			t.Errorf("%v: unknown relation accepted", engine)
		}
	}
}

func TestDistinctCountIntFastPathAgreesWithGeneric(t *testing.T) {
	// The int fast path and the generic composite path must agree.
	tab := New(simpleSchema(t))
	for i := 0; i < 50; i++ {
		tab.MustInsert(Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7)), value.NewString("x")})
	}
	fast, err := tab.DistinctCount([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	set, err := tab.DistinctSet([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if fast != len(set) {
		t.Errorf("fast path %d vs generic %d", fast, len(set))
	}
}

func TestApproxBytes(t *testing.T) {
	for _, engine := range []Engine{EngineColumnar, EngineRow} {
		tab := NewWithEngine(simpleSchema(t), engine)
		if tab.ApproxBytes() != 0 {
			t.Errorf("%s: empty table ApproxBytes = %d, want 0", engine, tab.ApproxBytes())
		}
		empty := tab.ApproxBytes()
		for i := int64(0); i < 100; i++ {
			tab.MustInsert(Row{value.NewInt(i), value.NewInt(i % 3), value.NewString(strings.Repeat("x", 50))})
		}
		got := tab.ApproxBytes()
		if got <= empty {
			t.Fatalf("%s: ApproxBytes did not grow (%d)", engine, got)
		}
		// Sanity bounds: at least the 100 stored 50-byte strings'
		// payload (columnar dictionaries dedupe to one entry), at most a
		// few hundred bytes per row.
		if engine == EngineRow && got < 100*50 {
			t.Errorf("row engine ApproxBytes = %d, implausibly small", got)
		}
		if got > 100*1000 {
			t.Errorf("%s: ApproxBytes = %d, implausibly large", engine, got)
		}
	}

	// Database-level sum.
	db := NewDatabase(relation.MustCatalog(simpleSchema(t)))
	if db.ApproxBytes() != 0 {
		t.Errorf("empty database ApproxBytes = %d", db.ApproxBytes())
	}
	db.MustTable("R").MustInsert(Row{value.NewInt(1), value.NewInt(2), value.NewString("y")})
	if db.ApproxBytes() != db.MustTable("R").ApproxBytes() || db.ApproxBytes() == 0 {
		t.Errorf("database ApproxBytes = %d", db.ApproxBytes())
	}
}
