// Distinct projections into new relations: the one primitive behind NEI
// conceptualization (the shared value combinations of a join become a
// relation of S) and Restruct's hidden-object and FD-split relations.
// Both populate an empty relation with the distinct NULL-free rows of a
// source projection, in value order, optionally filtered and optionally
// deduplicated on a key. All of it runs on dictionary codes: grouping by
// partition refinement, ordering by per-column value ranks,
// deduplication by refining the key columns over the groups, and the
// new dictionaries by dense remap. The tests pin it against the boxed
// definition: composite-key grouping, a sort of boxed rows and a strict
// batch of the kept ones.
package table

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"dbre/internal/value"
)

// ProjectDistinct fills the empty table dst with the distinct
// projection of t over attrs: one row per distinct combination with no
// NULL among attrs, sorted by value.Compare column by column.
// dst's schema must have one attribute per entry of attrs, in order, of
// the same type: the projection shares values, it does not coerce them.
//
// keep, when non-nil, filters the sorted rows; it is called once per
// distinct row with a buffer it must not retain. key, when it names a
// proper subset of attrs, deduplicates: a row whose key combination an
// earlier (smaller) row already holds is dropped and counted in the
// returned conflicts — the rows an enforced-but-dirty dependency
// cannot migrate.
//
// The result is the state a strict AppendBatch of those rows, encoded
// row by row, leaves in dst (codes, dictionaries, counters, uniqueness
// registrations, version, published epoch), and a NOT NULL or UNIQUE
// violation returns that batch's first error with the rows before it
// committed. Rows that Compare equal without being equal (−0.0 and 0.0,
// two NaNs) keep the order sort.Slice gives them over first-occurrence
// row order, the boxed definition's permutation exactly.
func (t *Table) ProjectDistinct(dst *Table, attrs, key []string, keep func(row []value.Value) bool) (conflicts int, err error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return 0, err
	}
	if len(dst.schema.Attrs) != len(idx) || dst.Len() != 0 {
		return 0, fmt.Errorf("table %s: projection target %s must be empty with %d attributes",
			t.schema.Name, dst.schema.Name, len(idx))
	}
	for j, c := range idx {
		if src, a := t.schema.Attrs[c], dst.schema.Attrs[j]; a.Type != src.Type {
			return 0, fmt.Errorf("table %s: projection target %s: attribute %s is %v, source %s is %v",
				t.schema.Name, dst.schema.Name, a.Name, a.Type, src.Name, src.Type)
		}
	}
	var keyPos []int
	for _, k := range key {
		j := slices.Index(attrs, k)
		if j < 0 {
			return 0, fmt.Errorf("table %s: key attribute %q not among %v", t.schema.Name, k, attrs)
		}
		keyPos = append(keyPos, j)
	}
	if len(keyPos) == len(attrs) {
		keyPos = nil // every projected row is its own key
	}
	return t.projectDistinctCodes(dst, idx, keyPos, keep)
}

// projectDistinctCodes is ProjectDistinct past its argument checks.
func (t *Table) projectDistinctCodes(dst *Table, idx, keyPos []int, keep func([]value.Value) bool) (int, error) {
	t.ensureCols(idx)
	// gc[j][g] is the code column idx[j] holds in group g. Groups are
	// the distinct NULL-free combinations in first-occurrence row order:
	// the dictionary itself for one column, partition refinement through
	// a call-local Refiner for more (the package pool would keep a dense
	// table sized for this relation resident after the call, and the
	// callers run once per new relation).
	w := len(idx)
	gc := make([][]int32, w)
	var groups int
	if first := &t.columns[idx[0]]; w == 1 {
		groups = first.dict.Len()
		gc[0] = iota32(groups)
	} else {
		p := t.refine(&Refiner{}, idx)
		groups = p.groups
		for j, c := range idx {
			codes := t.columns[c].codes
			v := make([]int32, groups)
			for g, r := range p.lazy.reps {
				v[g] = codes[r]
			}
			gc[j] = v
		}
	}

	// Order. Per column, Compare-equal values share a rank, so comparing
	// rank tuples is comparing the boxed rows, and sort.Slice over the
	// same first-occurrence sequence with the same outcomes reproduces
	// the boxed sort's permutation, ties included. A single column without
	// ties has exactly one sorted order, which its rank sort already is.
	rk := make([][]int32, w)
	var order []int32
	for j, c := range idx {
		ranks, byValue, tied := t.columns[c].dict.ranks(t.schema.Attrs[c].Type)
		if w == 1 {
			rk[0] = ranks // group g is code g
			if !tied {
				order = byValue
			}
			break
		}
		v := make([]int32, groups)
		for g, code := range gc[j] {
			v[g] = ranks[code]
		}
		rk[j] = v
	}
	if order == nil {
		order = iota32(groups)
		sort.Slice(order, func(a, b int) bool {
			ga, gb := order[a], order[b]
			for _, r := range rk {
				if r[ga] != r[gb] {
					return r[ga] < r[gb]
				}
			}
			return false
		})
	}

	// Deduplication on a proper key subset: refine the key columns over
	// the groups, then keep the first group of every key group in value
	// order.
	var kg []int32
	var taken []bool
	if keyPos != nil {
		var r Refiner
		kg = gc[keyPos[0]]
		kgroups := t.columns[idx[keyPos[0]]].dict.Len()
		for _, j := range keyPos[1:] {
			next := make([]int32, groups)
			kgroups, _ = r.Step(next, kg, gc[j], kgroups, t.columns[idx[j]].dict.Len())
			kg = next
		}
		taken = make([]bool, kgroups)
	}
	conflicts := 0
	var row []value.Value
	if keep != nil {
		row = make([]value.Value, w)
	}
	out := order[:0]
	for _, g := range order {
		if keep != nil {
			for j, c := range idx {
				row[j] = t.dictValue(c, gc[j][g])
			}
			if !keep(row) {
				continue
			}
		}
		if kg != nil {
			if taken[kg[g]] {
				conflicts++
				continue
			}
			taken[kg[g]] = true
		}
		out = append(out, g)
	}

	// Commit: each new dictionary is the source entries in order of
	// first use by the sorted rows, so the codes are a dense remap, and
	// the strict post-pass runs as for any commit (see adoptColumns).
	m := len(out)
	if m == 0 {
		return conflicts, nil // an empty batch commits nothing
	}
	a := dst.NewAppender()
	base := a.begin()
	for j, c := range idx {
		src := t.columns[c].dict
		remap := make([]int32, src.Len())
		for i := range remap {
			remap[i] = -1
		}
		codes := make([]int32, m)
		var used []int32 // source codes in order of first use
		for r, g := range out {
			sc := gc[j][g]
			nc := remap[sc]
			if nc < 0 {
				nc = int32(len(used))
				remap[sc] = nc
				used = append(used, sc)
			}
			codes[r] = nc
		}
		dst.columns[j] = column{codes: codes, dict: Dict{pick(src.Bits, used), pick(src.Strs, used)}, nonNull: m}
	}
	dst.nrows = m
	dst.internStale = true
	if _, err := a.commit(base, true, true); err != nil {
		return conflicts, err.(*BatchError).Err
	}
	return conflicts, nil
}

// ranks ranks the dictionary of an attribute of kind by value.Compare:
// ranks[code] orders codes as Compare orders their values, equal exactly
// for Compare-equal values. byValue lists the codes in that order; tied
// reports whether any two values share a rank. cmp.Compare orders the
// primitives as Compare orders the boxed values (for floats too: NaN
// first and equal to NaN, −0.0 equal to 0.0), so no value is boxed.
func (d Dict) ranks(kind value.Kind) (ranks, byValue []int32, tied bool) {
	switch kind {
	case value.KindString:
		return compareRanks(d.Strs)
	case value.KindFloat:
		fs := make([]float64, len(d.Bits))
		for i, b := range d.Bits {
			fs[i] = math.Float64frombits(uint64(b))
		}
		return compareRanks(fs)
	}
	return compareRanks(d.Bits)
}

func compareRanks[T cmp.Ordered](dict []T) (ranks, byValue []int32, tied bool) {
	type entry struct {
		v    T
		code int32
	}
	es := make([]entry, len(dict))
	for i, v := range dict {
		es[i] = entry{v, int32(i)}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
	ranks, byValue = make([]int32, len(dict)), make([]int32, len(dict))
	r := int32(0)
	for i, e := range es {
		if i > 0 && cmp.Compare(es[i-1].v, e.v) != 0 {
			r++
		}
		byValue[i] = e.code
		ranks[e.code] = r
	}
	return ranks, byValue, len(dict) > 0 && int(r) < len(dict)-1
}

// pick returns the entries of s at codes, in that order; nil for a
// vector the dictionary does not use.
func pick[T any](s []T, codes []int32) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(codes))
	for i, c := range codes {
		out[i] = s[c]
	}
	return out
}

func iota32(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(i)
	}
	return v
}
