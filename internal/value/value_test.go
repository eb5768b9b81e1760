package value

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
		KindDate:   "DATE",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromTypeName(t *testing.T) {
	cases := map[string]Kind{
		"INT":      KindInt,
		"integer":  KindInt,
		"Number":   KindInt,
		"FLOAT":    KindFloat,
		"decimal":  KindFloat,
		"CHAR":     KindString,
		"VARCHAR":  KindString,
		"varchar2": KindString,
		"BOOLEAN":  KindBool,
		"DATE":     KindDate,
		"mystery":  KindString,
	}
	for name, want := range cases {
		if got := KindFromTypeName(name); got != want {
			t.Errorf("KindFromTypeName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt(42) = %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("NewString = %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || v.String() != "true" {
		t.Errorf("NewBool(true) = %v", v)
	}
	d := NewDate(1996, time.February, 26)
	if d.Kind() != KindDate || d.Date().Format("2006-01-02") != "1996-02-26" {
		t.Errorf("NewDate = %v (%v)", d, d.Date())
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null is not null")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on int", func() { NewInt(1).Float() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Date on int", func() { NewInt(1).Date() })
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1), false}, // no cross-kind equality
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{Null, Null, true}, // grouping equality
		{Null, NewInt(0), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewBool(false), false},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), true},
		{NewDate(2000, 1, 1), NewDate(2000, 1, 1), true},
		{NewDate(2000, 1, 1), NewDate(2000, 1, 2), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	ordered := []Value{
		Null,
		NewInt(-5), NewInt(0), NewInt(7),
		NewFloat(math.NaN()), NewFloat(-1.5), NewFloat(3.25),
		NewString(""), NewString("a"), NewString("ab"),
		NewBool(false), NewBool(true),
		NewDate(1995, 1, 1), NewDate(1996, 6, 6),
	}
	for i, a := range ordered {
		for j, b := range ordered {
			got := a.Compare(b)
			switch {
			case i < j && got != -1:
				t.Errorf("Compare(%v,%v) = %d, want -1", a, b, got)
			case i > j && got != 1:
				t.Errorf("Compare(%v,%v) = %d, want 1", a, b, got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", a, b, got)
			}
		}
	}
}

func TestHashConsistency(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(5), NewInt(5)},
		{NewString("hello"), NewString("hello")},
		{Null, Null},
		{NewBool(true), NewBool(true)},
		{NewFloat(1.25), NewFloat(1.25)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v", p[0])
		}
	}
	// Different payloads should (overwhelmingly) hash differently.
	if NewInt(1).Hash() == NewInt(2).Hash() {
		t.Error("suspicious hash collision 1 vs 2")
	}
	if NewInt(1).Hash() == NewFloat(1).Hash() {
		t.Error("int and float with same payload should differ (kind mixed in)")
	}
}

func TestStringAndSQL(t *testing.T) {
	cases := []struct {
		v         Value
		str, sqlv string
	}{
		{Null, "NULL", "NULL"},
		{NewInt(-3), "-3", "-3"},
		{NewFloat(2.5), "2.5", "2.5"},
		{NewString("o'brien"), "o'brien", "'o''brien'"},
		{NewBool(true), "true", "TRUE"},
		{NewBool(false), "false", "FALSE"},
		{NewDate(1996, 2, 26), "1996-02-26", "'1996-02-26'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.SQL(); got != c.sqlv {
			t.Errorf("SQL(%#v) = %q, want %q", c.v, got, c.sqlv)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	vs := []Value{
		Null, NewInt(0), NewInt(1), NewFloat(0), NewFloat(1),
		NewString(""), NewString("0"), NewString("i0"), NewBool(false),
		NewBool(true), NewDate(1970, 1, 1), NewDate(1970, 1, 2),
	}
	seen := make(map[string]Value)
	for _, v := range vs {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("Key collision between %v and %v: %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		text string
		kind Kind
		want Value
		ok   bool
	}{
		{"", KindInt, Null, true},
		{"NULL", KindString, Null, true},
		{"null", KindFloat, Null, true},
		{"42", KindInt, NewInt(42), true},
		{" 42 ", KindInt, NewInt(42), true},
		{"4.5", KindFloat, NewFloat(4.5), true},
		{"true", KindBool, NewBool(true), true},
		{"1996-02-26", KindDate, NewDate(1996, 2, 26), true},
		{"abc", KindString, NewString("abc"), true},
		{"abc", KindInt, Null, false},
		{"abc", KindFloat, Null, false},
		{"abc", KindBool, Null, false},
		{"abc", KindDate, Null, false},
	}
	for _, c := range cases {
		got, err := Parse(c.text, c.kind)
		if (err == nil) != c.ok {
			t.Errorf("Parse(%q,%v) err=%v, ok want %v", c.text, c.kind, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("Parse(%q,%v) = %v, want %v", c.text, c.kind, got, c.want)
		}
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		want Value
		ok   bool
	}{
		{NewInt(3), KindFloat, NewFloat(3), true},
		{NewInt(3), KindString, NewString("3"), true},
		{NewString("7"), KindInt, NewInt(7), true},
		{NewString("x"), KindInt, Null, false},
		{Null, KindInt, Null, true},
		{NewFloat(1.5), KindInt, Null, false},
		{NewBool(true), KindString, NewString("true"), true},
	}
	for _, c := range cases {
		got, ok := Coerce(c.v, c.kind)
		if ok != c.ok {
			t.Errorf("Coerce(%v,%v) ok=%v, want %v", c.v, c.kind, ok, c.ok)
			continue
		}
		if ok && !got.Equal(c.want) {
			t.Errorf("Coerce(%v,%v) = %v, want %v", c.v, c.kind, got, c.want)
		}
	}
}

// randomValue builds an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(2000) - 1000))
	case 2:
		return NewFloat(float64(r.Intn(2000))/8 - 100)
	case 3:
		b := make([]byte, r.Intn(8))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(b))
	case 4:
		return NewBool(r.Intn(2) == 0)
	default:
		return NewDate(1990+r.Intn(20), time.Month(1+r.Intn(12)), 1+r.Intn(28))
	}
}

type valuePair struct{ A, B Value }

// Generate implements quick.Generator.
func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{randomValue(r), randomValue(r)})
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(p valuePair) bool {
		return p.A.Compare(p.B) == -p.B.Compare(p.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualIffCompareZero(t *testing.T) {
	f := func(p valuePair) bool {
		return p.A.Equal(p.B) == (p.A.Compare(p.B) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualImpliesSameHashAndKey(t *testing.T) {
	f := func(p valuePair) bool {
		if !p.A.Equal(p.B) {
			return true
		}
		return p.A.Hash() == p.B.Hash() && p.A.Key() == p.B.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

type valueTriple struct{ A, B, C Value }

// Generate implements quick.Generator.
func (valueTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueTriple{randomValue(r), randomValue(r), randomValue(r)})
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(p valueTriple) bool {
		if p.A.Compare(p.B) <= 0 && p.B.Compare(p.C) <= 0 {
			return p.A.Compare(p.C) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	// String() of a non-null value re-parses to an equal value for
	// every kind (floats via 'g' formatting are exact).
	f := func(p valuePair) bool {
		v := p.A
		if v.IsNull() {
			return true
		}
		if v.Kind() == KindString && (v.Str() == "" || v.Str() == "null" || v.Str() == "NULL") {
			return true // representation overlaps the NULL spelling
		}
		got, err := Parse(v.String(), v.Kind())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBitsRoundTrip: Bits and FromBits are inverse on every kind that has
// bits, and two values of one kind have equal Bits exactly when their
// Keys are equal (NaN payloads and signed zeros included); ParseBits
// agrees with Parse on value, NULL-ness and error text.
func TestBitsRoundTrip(t *testing.T) {
	vals := []Value{NewInt(0), NewInt(-7), NewInt(math.MaxInt64), NewBool(true), NewBool(false),
		NewDate(1969, 12, 31), NewDate(1996, 1, 2), NewFloat(0), NewFloat(math.Copysign(0, -1)),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000001)), NewFloat(math.Inf(1))}
	for _, v := range vals {
		if w := FromBits(v.Kind(), v.Bits()); w.Key() != v.Key() {
			t.Errorf("FromBits(Bits(%v)) = %v", v, w)
		}
		for _, u := range vals {
			if u.Kind() == v.Kind() && (u.Bits() == v.Bits()) != (u.Key() == v.Key()) {
				t.Errorf("%v and %v: equal bits %v, equal keys %v", u, v, u.Bits() == v.Bits(), u.Key() == v.Key())
			}
		}
	}
	for _, k := range []Kind{KindInt, KindFloat, KindBool, KindDate, KindString, KindNull} {
		for _, text := range []string{"", "null", "NULL", " 7", "07", "-0.0", "NaN", "t", "1996-01-02", "x", "1e400"} {
			want, werr := Parse(text, k)
			bits, null, err := ParseBits(text, k)
			if fmt.Sprint(err) != fmt.Sprint(werr) || null != (werr == nil && want.IsNull()) {
				t.Errorf("ParseBits(%q, %v) = null %v, %v; Parse = %v, %v", text, k, null, err, want, werr)
				continue
			}
			if err == nil && !null && k != KindString && FromBits(k, bits).Key() != want.Key() {
				t.Errorf("ParseBits(%q, %v) = %v, Parse = %v", text, k, FromBits(k, bits), want)
			}
		}
	}
}
