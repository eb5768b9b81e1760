// Package storage persists the columnar engine as one versioned binary
// snapshot of a whole database: per-relation sections holding code
// vectors, value dictionaries and uniqueness state, each
// CRC32C-checksummed and indexed by a footer so individual columns are
// section-loadable without reading the whole file. A re-run warm-boots
// from the snapshot instead of re-ingesting its CSV extension.
//
// The byte-level contract — every magic number, varint, checksum and the
// NULL convention — is specified normatively in docs/storage-format.md;
// this file is its implementation. All fixed-width integers are
// little-endian; all counts and lengths are unsigned LEB128 varints
// (encoding/binary's Uvarint); signed payloads use the zigzag varint
// (binary.Varint). Checksums are CRC32-Castagnoli over raw section
// payloads.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"dbre/internal/table"
	"dbre/internal/value"
)

const (
	// SnapshotFile is the snapshot's file name inside a snapshot
	// directory.
	SnapshotFile = "snapshot.dbre"

	snapshotMagic = "DBRESNP1" // snapshot header, bytes 0-7
	trailerMagic  = "DBSF"     // snapshot trailer, last 4 bytes

	formatVersion = 1

	headerSize  = 16 // magic(8) + version(4) + flags(4)
	trailerSize = 24 // footerOff(8) + footerLen(8) + footerCRC(4) + magic(4)

	// Earlier versions also kept a write-ahead log beside the snapshot.
	// Every snapshot they wrote left one holding only its 24-byte
	// header; see checkLegacyWAL.
	legacyWALFile       = "wal.dbre"
	legacyWALHeaderSize = 24
)

// Section types of the snapshot file.
const (
	secCatalog   byte = 1 // relation schemas, attribute types, UNIQUE sets
	secTableMeta byte = 2 // per relation: row count, version, counters, sketch config
	secCodes     byte = 3 // per column: the []int32 code vector
	secDict      byte = 4 // per column: the value dictionary
	secUniq      byte = 5 // per relation: uniqueness-index state
)

// noID marks the rel/col slot of a section that is not relation- or
// column-scoped (the catalog, the rel slot of nothing — catalog only).
const noID = ^uint32(0)

// castagnoli is the CRC32C table every checksum in the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// sectionName renders a section identity for error messages:
// "codes[orders/2]" style, with the relation index and column index.
func sectionName(typ byte, rel, col uint32) string {
	var kind string
	switch typ {
	case secCatalog:
		return "catalog"
	case secTableMeta:
		kind = "tablemeta"
	case secCodes:
		kind = "codes"
	case secDict:
		kind = "dict"
	case secUniq:
		kind = "uniq"
	default:
		kind = fmt.Sprintf("type-%d", typ)
	}
	if col == noID {
		return fmt.Sprintf("%s[rel %d]", kind, rel)
	}
	return fmt.Sprintf("%s[rel %d col %d]", kind, rel, col)
}

// enc is the append-only payload builder. Sections are encoded into a
// reused enc and written out with their checksum.
type enc struct{ b []byte }

func (e *enc) reset()           { e.b = e.b[:0] }
func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) svarint(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec decodes one section payload with a sticky error: after the first
// malformed read every further accessor is a no-op returning zero, and
// finish reports the error (or leftover bytes). Counts are validated
// against the remaining payload before any allocation, so a CRC-valid
// but hostile payload cannot force a huge make().
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count whose elements each occupy at least one
// byte of the remaining payload, rejecting counts the payload cannot
// possibly hold.
func (d *dec) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)) {
		d.fail("%s count %d exceeds remaining payload %d", what, v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *dec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail("truncated")
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) str() string { return string(d.raw(d.count("string length"))) }

func (d *dec) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", what, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%s: %d bytes of trailing garbage", what, len(d.b))
	}
	return nil
}

// Value codec tags. On-disk tags are pinned independently of value.Kind's
// Go declaration order. Dictionaries never hold NULL; tagNull completes
// the tag space attribute types share.
const (
	tagNull   byte = 0
	tagInt    byte = 1
	tagFloat  byte = 2
	tagString byte = 3
	tagBool   byte = 4
	tagDate   byte = 5
)

// kindTag maps a value.Kind to its pinned on-disk tag (attribute types in
// the catalog section use the same tag space as value payloads).
func kindTag(k value.Kind) byte {
	switch k {
	case value.KindNull:
		return tagNull
	case value.KindInt:
		return tagInt
	case value.KindFloat:
		return tagFloat
	case value.KindString:
		return tagString
	case value.KindBool:
		return tagBool
	case value.KindDate:
		return tagDate
	default:
		panic(fmt.Sprintf("storage: unencodable kind %v", k))
	}
}

// tagKind is kindTag's decoding inverse; ok is false on an unknown tag.
func tagKind(t byte) (value.Kind, bool) {
	switch t {
	case tagNull:
		return value.KindNull, true
	case tagInt:
		return value.KindInt, true
	case tagFloat:
		return value.KindFloat, true
	case tagString:
		return value.KindString, true
	case tagBool:
		return value.KindBool, true
	case tagDate:
		return value.KindDate, true
	default:
		return value.KindNull, false
	}
}

// bits encodes the value of kind (neither NULL nor VARCHAR) whose
// value.Bits are b, tag first.
func (e *enc) bits(kind value.Kind, b int64) {
	e.u8(kindTag(kind))
	switch kind {
	case value.KindInt:
		e.svarint(b)
	case value.KindFloat:
		// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip.
		e.u64(uint64(b))
	case value.KindBool:
		e.u8(byte(b))
	case value.KindDate:
		y, m, day := time.Unix(b*86400, 0).UTC().Date()
		e.svarint(int64(y))
		e.u8(byte(m))
		e.u8(byte(day))
	default:
		panic(fmt.Sprintf("storage: unencodable value kind %v", kind))
	}
}

// dict encodes a column dictionary of an attribute of kind: the entry
// count, then every entry as the tagged value it is, written straight
// from the typed vector.
func (e *enc) dict(kind value.Kind, d table.Dict) {
	e.uvarint(uint64(d.Len()))
	for _, b := range d.Bits {
		e.bits(kind, b)
	}
	for _, s := range d.Strs {
		e.u8(tagString)
		e.str(s)
	}
}

// bits decodes the payload of a value of kind (neither NULL nor
// VARCHAR), its tag already read, as the value's value.Bits.
func (d *dec) bits(kind value.Kind) int64 {
	switch kind {
	case value.KindInt:
		return d.svarint()
	case value.KindFloat:
		return int64(d.u64())
	case value.KindBool:
		b := d.u8()
		if b > 1 {
			d.fail("bad bool payload %d", b)
		}
		return int64(b)
	default: // value.KindDate
		y := d.svarint()
		m := d.u8()
		day := d.u8()
		if d.err == nil && (m < 1 || m > 12 || day < 1 || day > 31) {
			d.fail("bad date payload %d-%d-%d", y, m, day)
		}
		return value.NewDate(int(y), time.Month(m), int(day)).Bits()
	}
}

// dict decodes a column dictionary of an attribute of kind straight into
// its typed vector. An entry of another kind, NULL included, is an error:
// every stored value has its attribute's type.
func (d *dec) dict(kind value.Kind) table.Dict {
	n := d.count("dictionary entry")
	var out table.Dict
	if n > 0 {
		if kind == value.KindString {
			out.Strs = make([]string, 0, n)
		} else {
			out.Bits = make([]int64, 0, n)
		}
	}
	for i := 0; i < n && d.err == nil; i++ {
		tag := d.u8()
		got, ok := tagKind(tag)
		switch {
		case d.err != nil:
		case !ok:
			d.fail("entry %d: bad value tag %d", i, tag)
		case got == value.KindNull:
			d.fail("entry %d: NULL in dictionary", i)
		case got != kind:
			d.fail("entry %d: dictionary holds a %v value, the attribute is %v", i, got, kind)
		case kind == value.KindString:
			out.Strs = append(out.Strs, d.str())
		default:
			out.Bits = append(out.Bits, d.bits(kind))
		}
	}
	return out
}
