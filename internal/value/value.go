// Package value implements the typed, NULL-aware scalar values stored in
// database extensions. Values are immutable and comparable; they support a
// total order within a type (used for deterministic output and sorting) and
// hashing (used by the distinct-count and join operators of internal/table).
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the supported scalar types.
type Kind uint8

// The supported kinds. KindNull is the kind of the SQL NULL marker.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromTypeName maps a SQL type name (as found in a CREATE TABLE
// statement) onto a Kind. Unknown names map to KindString, mirroring how
// legacy data dictionaries defaulted to character data.
func KindFromTypeName(name string) Kind {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "SMALLINT", "BIGINT", "NUMBER", "SERIAL":
		return KindInt
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return KindFloat
	case "BOOL", "BOOLEAN":
		return KindBool
	case "DATE", "DATETIME", "TIMESTAMP":
		return KindDate
	default:
		return KindString
	}
}

// Value is a single typed scalar. The zero Value is NULL.
//
// Value is a small struct passed by value everywhere; it holds at most one
// of its payload fields depending on kind.
type Value struct {
	kind Kind
	i    int64   // KindInt, KindBool (0/1), KindDate (unix days)
	f    float64 // KindFloat
	s    string  // KindString
}

// Null is the SQL NULL marker.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewDate returns a date value with day granularity.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, i: t.Unix() / 86400}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is the NULL marker.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the payload of an integer value. It panics on other kinds.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the payload of a float value. It panics on other kinds.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("value: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the payload of a string value. It panics on other kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// Date returns the payload of a date value. It panics on other kinds.
func (v Value) Date() time.Time {
	if v.kind != KindDate {
		panic("value: Date() on " + v.kind.String())
	}
	return time.Unix(v.i*86400, 0).UTC()
}

// Equal reports SQL value identity: NULL equals NULL here (this is the
// grouping/distinct notion of equality, not the three-valued `=` predicate).
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindFloat:
		return v.f == w.f || (math.IsNaN(v.f) && math.IsNaN(w.f))
	case KindString:
		return v.s == w.s
	default:
		return v.i == w.i
	}
}

// Compare imposes a total order: NULL first, then by kind, then by payload.
// It returns -1, 0 or +1. The cross-kind order is arbitrary but fixed; it
// exists so results can be printed deterministically.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindFloat:
		switch {
		case v.f < w.f:
			return -1
		case v.f > w.f:
			return 1
		case math.IsNaN(v.f) && !math.IsNaN(w.f):
			return -1
		case !math.IsNaN(v.f) && math.IsNaN(w.f):
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	default:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	}
}

// Hash returns a 64-bit FNV-1a style hash of the value, with NULL hashing to
// a fixed sentinel. Equal values hash equally.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(v.kind))
	switch v.kind {
	case KindNull:
		mix(0xAA)
	case KindFloat:
		bits := math.Float64bits(v.f)
		for s := 0; s < 64; s += 8 {
			mix(byte(bits >> s))
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	default:
		bits := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			mix(byte(bits >> s))
		}
	}
	return h
}

// String renders the value for human consumption.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.Date().Format("2006-01-02")
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "'" + v.Date().Format("2006-01-02") + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

// AppendKey appends the Key() encoding of v to b without allocating a
// string — the hot loop of the projection-index build calls it once per
// row, so per-value garbage matters.
//
// The encoding is self-delimiting: every variant is a kind byte followed
// by a payload that cannot run into a following key. Numeric payloads use
// a fixed alphabet that excludes every separator byte, and string payloads
// are uvarint length-prefixed, so concatenations of keys (the composite
// group keys of internal/table) are unambiguous even when string values
// contain separator bytes or whole encoded keys.
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, '\x00')
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.i, 10)
	case KindFloat:
		return strconv.AppendUint(append(b, 'f'), math.Float64bits(v.f), 16)
	case KindString:
		b = append(b, 's')
		b = binary.AppendUvarint(b, uint64(len(v.s)))
		return append(b, v.s...)
	case KindBool:
		return strconv.AppendInt(append(b, 'b'), v.i, 10)
	case KindDate:
		return strconv.AppendInt(append(b, 'd'), v.i, 10)
	default:
		return append(b, '?')
	}
}

// Key returns a compact string usable as a map key; distinct values have
// distinct keys. It is exactly string(v.AppendKey(nil)) — the two
// encodings must stay byte-identical because composite keys built from
// either are compared against each other across the engine.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "f" + strconv.FormatUint(math.Float64bits(v.f), 16)
	case KindString:
		return string(v.AppendKey(make([]byte, 0, len(v.s)+11)))
	case KindBool:
		return "b" + strconv.FormatInt(v.i, 10)
	case KindDate:
		return "d" + strconv.FormatInt(v.i, 10)
	default:
		return "?"
	}
}

// Parse converts a textual field into a Value of the requested kind. Empty
// strings and the literals "NULL"/"null" parse to NULL for every kind,
// matching how legacy unload files represent missing data.
func Parse(text string, kind Kind) (Value, error) {
	if kind == KindString && !IsNullText(text) {
		return NewString(text), nil
	}
	bits, null, err := ParseBits(text, kind)
	if err != nil || null {
		return Null, err
	}
	return FromBits(kind, bits), nil
}

// IsNullText reports whether text is a NULL field for every kind: empty,
// or "NULL" in any letter case.
func IsNullText(text string) bool {
	return text == "" || len(text) == 4 && strings.EqualFold(text, "null")
}

// ParseBits is Parse yielding the value's Bits instead of the boxed
// value, with Parse's error; null reports a field that parses to NULL.
// A VARCHAR is its own text and has no Bits: bits is 0 then, as it is
// for NULL. Loaders that keep values unboxed parse through it.
func ParseBits(text string, kind Kind) (bits int64, null bool, err error) {
	if IsNullText(text) || kind == KindNull {
		return 0, true, nil
	}
	switch kind {
	case KindString:
		return 0, false, nil
	case KindInt:
		// Atoi has a fast path for the short decimals that dominate
		// loads; ParseInt supplies the error text and 32-bit ranges.
		s := strings.TrimSpace(text)
		if i, err := strconv.Atoi(s); err == nil {
			return int64(i), false, nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("value: parsing %q as INTEGER: %w", text, err)
		}
		return i, false, nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return 0, false, fmt.Errorf("value: parsing %q as FLOAT: %w", text, err)
		}
		return int64(math.Float64bits(f)), false, nil
	case KindBool:
		b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(text)))
		if err != nil {
			return 0, false, fmt.Errorf("value: parsing %q as BOOLEAN: %w", text, err)
		}
		return NewBool(b).i, false, nil
	case KindDate:
		t, err := time.Parse("2006-01-02", strings.TrimSpace(text))
		if err != nil {
			return 0, false, fmt.Errorf("value: parsing %q as DATE: %w", text, err)
		}
		return NewDate(t.Year(), t.Month(), t.Day()).i, false, nil
	default:
		return 0, false, fmt.Errorf("value: unknown kind %v", kind)
	}
}

// Bits returns the 64-bit payload of a non-NULL value of any kind but
// VARCHAR: the integer of an INTEGER, 0 or 1 for a BOOLEAN, the days
// since the Unix epoch of a DATE, math.Float64bits of a FLOAT. Two values
// of one kind have equal Bits exactly when their Keys are equal. It
// panics on NULL and VARCHAR.
func (v Value) Bits() int64 {
	switch v.kind {
	case KindFloat:
		return int64(math.Float64bits(v.f))
	case KindInt, KindBool, KindDate:
		return v.i
	default:
		panic("value: Bits() on " + v.kind.String())
	}
}

// FromBits returns the value of kind (neither NULL nor VARCHAR) whose
// Bits are bits. It panics on NULL and VARCHAR.
func FromBits(kind Kind, bits int64) Value {
	switch kind {
	case KindFloat:
		return NewFloat(math.Float64frombits(uint64(bits)))
	case KindInt, KindBool, KindDate:
		return Value{kind: kind, i: bits}
	default:
		panic("value: FromBits of " + kind.String())
	}
}

// Coerce converts v to the requested kind where a lossless or conventional
// conversion exists (int→float, anything→string via String, string→kind via
// Parse). It returns false when no sensible conversion exists.
func Coerce(v Value, kind Kind) (Value, bool) {
	if v.IsNull() || v.kind == kind {
		return v, true
	}
	switch kind {
	case KindFloat:
		if v.kind == KindInt {
			return NewFloat(float64(v.i)), true
		}
	case KindString:
		return NewString(v.String()), true
	}
	if v.kind == KindString {
		w, err := Parse(v.s, kind)
		if err == nil {
			return w, true
		}
	}
	return Null, false
}
