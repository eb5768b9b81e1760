// Uniqueness enforcement. Each declared UNIQUE constraint owns one
// uniqIndex. The row engine registers every accepted row under its
// canonical composite value key (keyOf), exactly as the original
// implementation did — it stays the reference. The columnar engine
// instead registers rows under the *global dictionary codes* of the key
// attributes: a dense code → row array for single-attribute constraints
// (the overwhelmingly common case — keys and foreign keys) and a packed
// little-endian code-tuple map for composites. Probing by code needs no
// per-row string construction, which is what makes the batch appender's
// constraint post-pass (append.go) columnar rather than hash-per-row.
//
// Rows that were *rejected* still leave registrations behind: the
// reference semantics register each constraint before checking the next
// one, so a row failing constraint k has already registered constraints
// 0..k-1 (and a strict rollback removes the row but keeps those
// registrations). Such phantom registrations cannot use codes — the
// rejected row's values may never be interned — so they land in byKey,
// keyed by value. byKey is consulted only when non-empty, which keeps
// the clean-load hot path free of string keys.
package table

import "encoding/binary"

// uniqIndex enforces one declared UNIQUE constraint.
type uniqIndex struct {
	idx []int // column indexes of the constraint's attributes
	// byKey maps canonical composite value keys (keyOf) to the row index
	// registered under them. The row engine uses it for every
	// registration; the columnar engine only for phantom registrations
	// of rejected rows (see the package comment above).
	byKey map[string]int
	// dense maps a single key attribute's dictionary code to the
	// registered row index (-1 = unregistered). Columnar engine,
	// len(idx) == 1 only.
	dense []int32
	// packed maps little-endian packed code tuples to the registered row
	// index. Columnar engine, len(idx) > 1 only.
	packed map[string]int32
}

func newUniqIndex(idx []int, engine Engine) *uniqIndex {
	u := &uniqIndex{idx: idx}
	if engine == EngineRow {
		u.byKey = make(map[string]int)
	}
	return u
}

// packCodes appends the 4-byte little-endian encoding of each code to b.
// Codes are non-negative (NULL keys are rejected before packing) and the
// tuple width is fixed per constraint, so the packing is injective.
func packCodes(b []byte, codes []int32) []byte {
	for _, c := range codes {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return b
}

// probeCodes reports whether the code tuple is registered (columnar
// engine). scratch is reused for packing composite tuples.
func (u *uniqIndex) probeCodes(codes []int32, scratch *[]byte) (prev int, dup bool) {
	if len(u.idx) == 1 {
		c := codes[0]
		if int(c) < len(u.dense) {
			if p := u.dense[c]; p >= 0 {
				return int(p), true
			}
		}
		return 0, false
	}
	if u.packed == nil {
		return 0, false
	}
	key := packCodes((*scratch)[:0], codes)
	*scratch = key
	if p, ok := u.packed[string(key)]; ok {
		return int(p), true
	}
	return 0, false
}

// registerCodes records the code tuple at row (columnar engine). The
// caller must have probed first: registration never overwrites.
func (u *uniqIndex) registerCodes(codes []int32, row int, scratch *[]byte) {
	if len(u.idx) == 1 {
		c := int(codes[0])
		for len(u.dense) <= c {
			u.dense = append(u.dense, -1)
		}
		u.dense[c] = int32(row)
		return
	}
	key := packCodes((*scratch)[:0], codes)
	*scratch = key
	if u.packed == nil {
		u.packed = make(map[string]int32)
	}
	u.packed[string(key)] = int32(row)
}

// probeByKey checks the value-keyed registrations (row engine, and
// columnar phantoms). key must be the keyOf encoding over u.idx.
func (u *uniqIndex) probeByKey(key string) (prev int, dup bool) {
	p, ok := u.byKey[key]
	return p, ok
}

// registerByKey records a value-keyed registration.
func (u *uniqIndex) registerByKey(key string, row int) {
	if u.byKey == nil {
		u.byKey = make(map[string]int)
	}
	u.byKey[key] = row
}
