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
	"slices"
	"strings"
	"sync"

	"dbre/internal/value"
)

// nullCode is the reserved dictionary code for the SQL NULL marker.
const nullCode int32 = -1

// Dict is a column's value dictionary: entry i is the value behind code
// i, in first-occurrence row order. Entries are Go primitives in the one
// vector the attribute's type selects — Strs for VARCHAR, Bits (the
// value.Bits of each entry) for every other type — and the other vector
// stays empty.
type Dict struct {
	Bits []int64
	Strs []string
}

// Len returns the number of entries.
func (d Dict) Len() int { return len(d.Bits) + len(d.Strs) }

// Value returns entry i as a value of kind, the attribute's type.
func (d Dict) Value(kind value.Kind, i int32) value.Value {
	if kind == value.KindString {
		return value.NewString(d.Strs[i])
	}
	return value.FromBits(kind, d.Bits[i])
}

// clipped returns d with every vector's capacity cut to its length, so
// appending to the result never writes into d's arrays.
func (d Dict) clipped() Dict {
	return Dict{slices.Clip(d.Bits), slices.Clip(d.Strs)}
}

// column is one dictionary-encoded attribute vector. The dictionary is
// append-only: an entry never changes once assigned, so derived
// statistics may safely retain prefixes of it across later inserts
// (staleness is the cache's problem, not a memory-safety one).
type column struct {
	codes []int32
	dict  Dict
	// ids interns Bits through an open-addressing table (see
	// inttable.go); strs interns Strs on the text itself. A FLOAT's bits
	// are its math.Float64bits pattern, so interning by bits keeps Key()'s
	// semantics: NaNs of one bit pattern are one entry, and −0.0 and 0.0
	// are two.
	ids     intTable
	strs    map[string]int32
	nonNull int
}

// encode interns v, NULL or a value of the attribute's type, and returns
// its code. Callers must only encode values that are actually stored:
// the single-attribute distinct count is the dictionary length, which
// requires every entry to be referenced by at least one row.
func (c *column) encode(v value.Value) int32 {
	if v.IsNull() {
		return nullCode
	}
	c.nonNull++
	if v.Kind() == value.KindString {
		return c.internStr(v.Str())
	}
	return c.internBits(v.Bits())
}

// internBits ensures the non-VARCHAR value with value.Bits bits is in the
// dictionary and returns its code, without touching the nonNull row
// counter — that is driven by the rows that reference the entry, which
// the batch appender merges separately from the dictionaries.
func (c *column) internBits(bits int64) int32 {
	id, found := c.ids.getOrPut(bits, int32(len(c.dict.Bits)))
	if !found {
		c.dict.Bits = append(c.dict.Bits, bits)
	}
	return id
}

// internStr is internBits for VARCHAR. A new entry stores a copy of s,
// which may be a slice of a whole CSV record that the dictionary would
// otherwise keep alive.
func (c *column) internStr(s string) int32 {
	if id, ok := c.strs[s]; ok {
		return id
	}
	if c.strs == nil {
		c.strs = make(map[string]int32)
	}
	s = strings.Clone(s)
	id := int32(len(c.dict.Strs))
	c.strs[s] = id
	c.dict.Strs = append(c.dict.Strs, s)
	return id
}

// truncateDict drops the dictionary entries from n on, with their
// interning entries.
func (c *column) truncateDict(n int) {
	c.dict.Bits = cut(c.dict.Bits, n, c.ids.delete)
	c.dict.Strs = cut(c.dict.Strs, n, func(s string) { delete(c.strs, s) })
}

// cut truncates s to n entries, passing each dropped one to drop.
func cut[T any](s []T, n int, drop func(T)) []T {
	if len(s) <= n {
		return s
	}
	for _, v := range s[n:] {
		drop(v)
	}
	return s[:n]
}

// ColumnCodes returns the dictionary-code vector of column c (codes[i]
// is row i's code, nullCode for NULL). The caller must treat it as
// read-only; it is only valid until the next mutation.
func (t *Table) ColumnCodes(c int) []int32 {
	t.ensureCol(c)
	return t.columns[c].codes[:t.nrows:t.nrows]
}

// ColumnDict returns the value dictionary of column c (entry i is the
// value behind code i, in first-occurrence row order), boxed fresh by
// every call.
func (t *Table) ColumnDict(c int) []value.Value {
	t.ensureCol(c)
	out := make([]value.Value, t.columns[c].dict.Len())
	for i := range out {
		out[i] = t.dictValue(c, int32(i))
	}
	return out
}

// value returns row i's value, of kind, the attribute's type.
func (c *column) value(kind value.Kind, i int) value.Value {
	if code := c.codes[i]; code >= 0 {
		return c.dict.Value(kind, code)
	}
	return value.Null
}

// dictValue returns the value behind code of column c.
func (t *Table) dictValue(c int, code int32) value.Value {
	return t.columns[c].dict.Value(t.schema.Attrs[c].Type, code)
}

// encodeRow appends one coerced row to the columns.
func encodeRow(cols []column, row Row) {
	for i := range cols {
		c := &cols[i]
		c.codes = append(c.codes, c.encode(row[i]))
	}
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
			groups:   c.dict.Len(),
			lazy:     &lazyDict{tab: t, idx: idx, dictLen: c.dict.Len(), intFlavor: t.schema.Attrs[idx[0]].Type == value.KindInt},
		}
	}
	r := acquireRefiner()
	defer releaseRefiner(r)
	return t.refine(r, idx)
}

// refine partitions the rows by the columns idx (at least two, all
// loaded) through r and packages the result: the first column's code
// vector, refined by each further column in turn. The code vector is
// read, never written: intermediate steps rotate through r's scratch
// vectors and only the final step writes the vector the Projection
// retains, so steady-state refinement with a pooled Refiner allocates
// just the retained result. r must start with zero step counters (a
// fresh or released Refiner).
func (t *Table) refine(r *Refiner, idx []int) *Projection {
	n := t.nrows
	first := &t.columns[idx[0]]
	g, groups := first.codes[:n:n], first.dict.Len()
	var reps []int32
	for step := 1; step < len(idx); step++ {
		c := &t.columns[idx[step]]
		var dst []int32
		if step == len(idx)-1 {
			dst = make([]int32, n)
		} else {
			dst = r.scratchVec(n)
		}
		groups, reps = r.Step(dst, g, c.codes[:n:n], groups, c.dict.Len())
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
			ci := l.idx[0]
			if l.intFlavor {
				m := make(map[int64]int32, l.dictLen)
				for id, v := range l.tab.columns[ci].dict.Bits[:l.dictLen] {
					m[v] = int32(id)
				}
				p.ints = m
				return
			}
			m := make(map[string]int32, l.dictLen)
			var scratch []byte
			for id := range int32(l.dictLen) {
				scratch = l.tab.dictValue(ci, id).AppendKey(scratch[:0])
				scratch = append(scratch, 0x1f)
				m[string(scratch)] = id
			}
			p.strs = m
			return
		}
		m := make(map[string]int32, len(l.reps))
		var scratch []byte
		for gid, ri := range l.reps {
			scratch, _ = l.tab.appendRowKey(scratch[:0], int(ri), l.idx)
			m[string(scratch)] = int32(gid)
		}
		p.strs = m
	})
}
