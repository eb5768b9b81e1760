package table

import (
	"fmt"
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

// TestInsertUncheckedCoerces: the unchecked path skips NOT NULL and
// UNIQUE only. A value of another kind is coerced as Insert coerces it,
// and a row Insert rejects for its arity or a type panics with Insert's
// error, as MustInsert does, storing nothing — so every stored value has
// its attribute's type.
func TestInsertUncheckedCoerces(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "f", Type: value.KindFloat},
		{Name: "s", Type: value.KindString, NotNull: true},
	}, relation.NewAttrSet("i"))
	tab := New(s)
	tab.InsertUnchecked(Row{value.NewString("7"), value.NewInt(2), value.NewInt(3)})
	tab.InsertUnchecked(Row{value.NewInt(7), value.Null, value.Null}) // duplicate key, NULL in NOT NULL
	for c, want := range []value.Value{value.NewInt(7), value.NewFloat(2), value.NewString("3")} {
		if got := tab.Value(0, c); got.Key() != want.Key() {
			t.Errorf("column %d stored %v (%v), want %v (%v)", c, got, got.Kind(), want, want.Kind())
		}
	}
	for _, bad := range []Row{
		{value.NewString("x"), value.Null, value.Null}, // does not parse as INT
		{value.NewInt(1), value.NewString("1.5.2"), value.Null},
		{value.NewInt(1)}, // arity
	} {
		want := New(s).Insert(bad)
		func() {
			defer func() {
				if r := recover(); r == nil || want == nil || fmt.Sprint(r) != want.Error() {
					t.Errorf("InsertUnchecked(%v) panicked with %v, want Insert's error %v", bad, r, want)
				}
			}()
			tab.InsertUnchecked(bad)
		}()
	}
	if tab.Len() != 2 || tab.Version() != 2 {
		t.Errorf("a panicking InsertUnchecked stored a row: len %d version %d", tab.Len(), tab.Version())
	}
}

// TestRestoreRejectsWronglyTypedDictionary: an eager restore validates
// every dictionary value's kind against its attribute's type, as a lazy
// section load does.
func TestRestoreRejectsWronglyTypedDictionary(t *testing.T) {
	s := relation.MustSchema("R", []relation.Attribute{{Name: "x", Type: value.KindInt}})
	st := &TableState{
		NRows:   1,
		Version: 1,
		Columns: []ColumnState{{Codes: []int32{0}, Dict: Dict{Strs: []string{"7"}}, NonNull: 1, DictLen: 1}},
	}
	if _, err := restoreTable(s, st, nil); err == nil || !strings.Contains(err.Error(), "dictionary holds a VARCHAR value, the attribute is INTEGER") {
		t.Errorf("restoreTable = %v, want the dictionary type error", err)
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
		var got []Row
		for i := 0; i < dr.Len(); i++ {
			got = append(got, dr.Row(i))
		}
		t.Errorf("ProjectDistinct = %v", got)
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

func TestQuickDistinctCountMatchesBruteForce(t *testing.T) {
	f := func(p randTablePair) bool {
		tab := New(relation.MustSchema("R", []relation.Attribute{{Name: "v", Type: value.KindInt}}))
		distinct := make(map[int64]bool)
		for _, v := range p.A {
			tab.MustInsert(ints(v))
			distinct[v] = true
		}
		n, err := tab.DistinctCount([]string{"v"})
		return err == nil && n == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
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
	tab := New(s)
	for _, p := range pairs {
		tab.MustInsert(Row{value.NewString(p[0]), value.NewString(p[1])})
	}
	n, err := tab.DistinctCount([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Errorf("DistinctCount = %d, want %d distinct pairs", n, len(pairs))
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

func TestDatabaseDropAttrs(t *testing.T) {
	db := NewDatabase(relation.MustCatalog(simpleSchema(t)))
	old := db.MustTable("R")
	old.MustInsert(Row{value.NewInt(1), value.NewInt(2), value.NewString("x")})
	old.MustInsert(Row{value.NewInt(2), value.NewInt(2), value.Null})
	if err := db.DropAttrs("R", relation.NewAttrSet("b", "c")); err != nil {
		t.Fatal(err)
	}
	got := db.MustTable("R")
	if got == old {
		t.Error("DropAttrs must install a fresh table")
	}
	if s, _ := db.Catalog().Get("R"); got.Schema() != s || len(s.Attrs) != 1 || len(s.Uniques) != 1 {
		t.Errorf("catalog schema %v not the migrated table's one-attribute keyed schema", s)
	}
	if got.Len() != 2 || got.Version() != 2 || !got.Value(1, 0).Equal(value.NewInt(2)) {
		t.Errorf("migrated table len %d version %d", got.Len(), got.Version())
	}
	if old.Len() != 2 || len(old.Schema().Attrs) != 3 {
		t.Error("source table changed")
	}
	if err := db.DropAttrs("Ghost", relation.NewAttrSet("g")); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestApproxBytes(t *testing.T) {
	tab := New(simpleSchema(t))
	if tab.ApproxBytes() != 0 {
		t.Errorf("empty table ApproxBytes = %d, want 0", tab.ApproxBytes())
	}
	for i := int64(0); i < 100; i++ {
		tab.MustInsert(Row{value.NewInt(i), value.NewInt(i % 3), value.NewString(strings.Repeat("x", 50))})
	}
	// Sanity bounds: grown past the one deduplicated 50-byte string's
	// payload, at most a few hundred bytes per row.
	if got := tab.ApproxBytes(); got <= 50 || got > 100*1000 {
		t.Errorf("ApproxBytes = %d, implausible for 100 rows", got)
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
