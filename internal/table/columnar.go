// Columnar, dictionary-encoded storage: each attribute holds an []int32
// code vector plus a per-column dictionary of the distinct values that
// actually occur, with NULL as the reserved code -1. Codes are dense and
// assigned in first-occurrence order, which makes the code vector of a
// column *itself* the row → group-id vector of its single-attribute
// projection, and lets multi-attribute projections be composed by
// TANE-style partition refinement (pairwise group-id products) instead of
// re-hashing boxed rows.
package table

import (
	"sync"

	"dbre/internal/value"
)

// nullCode is the reserved dictionary code for the SQL NULL marker.
const nullCode int32 = -1

// column is one dictionary-encoded attribute vector. The dictionary is
// append-only: dict[i] never changes once assigned, so derived statistics
// may safely retain prefixes of it across later inserts (staleness is the
// cache's problem, not a memory-safety one).
type column struct {
	codes []int32
	dict  []value.Value
	// ints interns KindInt payloads (an open-addressing table, see
	// inttable.go) and keys interns the canonical Key() encoding of every
	// other kind. Two tables because the common case — integer keys and
	// foreign keys — must not pay per-value string construction, and
	// because interning by value.Value directly would diverge from Key()
	// semantics on NaN (Go map equality treats NaN ≠ NaN; Key() compares
	// Float64bits).
	ints intTable
	keys map[string]int32
	// keyBuf is scratch for probing keys without materializing a string:
	// lookups go through the compiler's alloc-free map[string([]byte)]
	// form, so only genuinely new dictionary entries pay a key allocation.
	keyBuf  []byte
	nonNull int
	// nonInt records that some non-NULL value is not KindInt; it decides
	// whether the column's projection is int-flavored (an int64-keyed
	// dictionary rather than a composite-key one).
	nonInt bool
}

// encode interns v and returns its dictionary code. Callers must only
// encode values that are actually stored: the single-attribute distinct
// count is len(dict), which requires every dictionary entry to be
// referenced by at least one row.
func (c *column) encode(v value.Value) int32 {
	if v.IsNull() {
		return nullCode
	}
	c.nonNull++
	if v.Kind() != value.KindInt {
		c.nonInt = true
	}
	return c.intern(v)
}

// intern ensures v (non-NULL) is in the dictionary and returns its code,
// without touching the nonNull/nonInt row counters — those are driven by
// the rows that reference the entry, which the batch appender merges
// separately from the dictionaries.
func (c *column) intern(v value.Value) int32 {
	if v.Kind() == value.KindInt {
		id, found := c.ints.getOrPut(v.Int(), int32(len(c.dict)))
		if !found {
			c.dict = append(c.dict, v)
		}
		return id
	}
	c.keyBuf = v.AppendKey(c.keyBuf[:0])
	if id, ok := c.keys[string(c.keyBuf)]; ok {
		return id
	}
	if c.keys == nil {
		c.keys = make(map[string]int32)
	}
	id := int32(len(c.dict))
	key := string(c.keyBuf)
	c.keys[key] = id
	if v.Kind() == value.KindString {
		// A string key ends in the payload: store the entry as that tail
		// rather than v's own string, which may be a slice of a whole
		// CSV record that the dictionary would otherwise keep alive.
		v = value.NewString(key[len(key)-len(v.Str()):])
	}
	c.dict = append(c.dict, v)
	return id
}

// ColumnCodes returns the dictionary-code vector of column c (codes[i]
// is row i's code, nullCode for NULL). The caller must treat it as
// read-only; it is only valid until the next mutation.
func (t *Table) ColumnCodes(c int) []int32 {
	t.ensureCol(c)
	return t.columns[c].codes[:t.nrows:t.nrows]
}

// ColumnDict returns the value dictionary of column c (entry i is the
// value behind code i, in first-occurrence row order). The caller must
// treat it as read-only.
func (t *Table) ColumnDict(c int) []value.Value {
	t.ensureCol(c)
	d := t.columns[c].dict
	return d[:len(d):len(d)]
}

// appendEncoded stores one coerced row in columnar form.
func (t *Table) appendEncoded(row Row) {
	for i := range t.columns {
		c := &t.columns[i]
		c.codes = append(c.codes, c.encode(row[i]))
	}
	t.nrows++
}

// project builds the projection index over the resolved columns without
// touching a single boxed value.
//
// Single attribute: the code vector already is the row → group-id vector
// (codes are dense in first-occurrence order, as group ids are), so the
// projection shares it and the group count is the dictionary length.
//
// Multiple attributes: partition refinement. Starting from the first
// column's codes, each further column refines the grouping through the
// Refiner kernel (refine.go) — remapping the pair (current group id,
// column code), the pairwise group-id product, to a fresh dense id in
// first-occurrence order, via either the dense direct-addressed table or
// the sparse map. By induction the final ids are the composite-key ids
// of the definition: two rows share a refined id iff they share the
// prefix tuple, and new ids are assigned in first-occurrence row order.
func (t *Table) project(idx []int) *Projection {
	t.ensureCols(idx)
	n := t.nrows
	if len(idx) == 1 {
		c := &t.columns[idx[0]]
		return &Projection{
			RowGroup: c.codes[:n:n],
			NonNull:  c.nonNull,
			groups:   len(c.dict),
			lazy:     &lazyDict{tab: t, idx: idx, dictLen: len(c.dict), intFlavor: !c.nonInt},
		}
	}
	g := t.columns[idx[0]].codes[:n:n]
	r := acquireRefiner()
	defer releaseRefiner(r)
	return t.refineFrom(r, g, len(t.columns[idx[0]].dict), idx, 1)
}

// refineFrom refines the group vector g (groups distinct ids, taken over
// idx[:from]) by the columns idx[from:] through r and packages the
// result. g is read, never written: intermediate steps rotate through
// r's scratch vectors and only the final step writes the vector the
// Projection retains, so steady-state refinement with a pooled Refiner
// allocates just the retained result. r must start with zero step
// counters (a fresh or released Refiner).
func (t *Table) refineFrom(r *Refiner, g []int32, groups int, idx []int, from int) *Projection {
	t.ensureCols(idx[from:])
	n := t.nrows
	var reps []int32
	for step := from; step < len(idx); step++ {
		c := &t.columns[idx[step]]
		var dst []int32
		if step == len(idx)-1 {
			dst = make([]int32, n)
		} else {
			dst = r.scratchVec(n)
		}
		groups, reps = r.Step(dst, g, c.codes[:n:n], groups, len(c.dict))
		g = dst
	}
	repsOut := make([]int32, len(reps))
	copy(repsOut, reps)
	nonNull := 0
	for _, id := range g {
		if id >= 0 {
			nonNull++
		}
	}
	return &Projection{
		RowGroup:   g,
		NonNull:    nonNull,
		groups:     groups,
		denseSteps: r.denseSteps,
		mapSteps:   r.mapSteps,
		lazy:       &lazyDict{tab: t, idx: idx, reps: repsOut},
	}
}

// lazyDict defers the projection's key dictionary until a consumer
// actually needs one (membership tests, join intersections): the counting
// phases only read Len/RowGroup/NonNull, and building the dictionary from
// one representative row per group costs O(groups × attrs) instead of
// hashing every row's O(rows × attrs). Snapshots (dictLen, reps) index into
// append-only storage, so the build stays correct even if the table has
// grown since the projection was taken.
type lazyDict struct {
	once      sync.Once
	tab       *Table
	idx       []int
	dictLen   int     // single-attribute: dictionary length at build time
	reps      []int32 // multi-attribute: group id → representative row
	intFlavor bool
}

func (p *Projection) buildLazy() {
	l := p.lazy
	l.once.Do(func() {
		if len(l.idx) == 1 {
			c := &l.tab.columns[l.idx[0]]
			if l.intFlavor {
				m := make(map[int64]int32, l.dictLen)
				for id := 0; id < l.dictLen; id++ {
					m[c.dict[id].Int()] = int32(id)
				}
				p.ints = m
				return
			}
			m := make(map[string]int32, l.dictLen)
			var scratch []byte
			for id := 0; id < l.dictLen; id++ {
				scratch = c.dict[id].AppendKey(scratch[:0])
				scratch = append(scratch, 0x1f)
				m[string(scratch)] = int32(id)
			}
			p.strs = m
			return
		}
		m := make(map[string]int32, len(l.reps))
		var scratch []byte
		for gid, ri := range l.reps {
			scratch = scratch[:0]
			for _, ci := range l.idx {
				c := &l.tab.columns[ci]
				scratch = c.dict[c.codes[ri]].AppendKey(scratch)
				scratch = append(scratch, 0x1f)
			}
			m[string(scratch)] = int32(gid)
		}
		p.strs = m
	})
}
