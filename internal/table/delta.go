// Delta partition refinement: extending a cached projection over rows
// appended since it was built, instead of refining the whole table from
// scratch. The group-id algebra that makes this exact:
//
//   - Group ids are dense and assigned in first-occurrence row order
//     (see columnar.go). A from-scratch rebuild over the
//     grown table therefore assigns ids [0, G) to the composites that
//     occur in the old prefix — in the same order the old build did,
//     because the prefix is unchanged — and fresh ids G, G+1, ... to
//     composites whose first occurrence lies in the delta, in delta
//     first-occurrence order.
//   - An extension that keeps the old vector verbatim, maps delta rows
//     of known composites to their old ids, and hands out fresh dense
//     ids to new composites in delta order produces exactly that
//     assignment. Extension and rebuild are bit-identical, which
//     FuzzDeltaRefine and the stats differential tests check.
//
// Cost: O(G·k) to seed the composite lookup from the group
// representatives plus O(d·k) for d delta rows, versus O(n·k) dense
// refinement for the rebuild — the win is the table scan avoided, and
// it compounds across every cached projection a re-validation touches.
package table

// Reps returns the group-id → representative-row-index vector: for each
// group, the first row belonging to it. Multi-attribute projections
// carry this from the refinement kernel; everything else
// derives it from one scan of RowGroup (ids are dense in
// first-occurrence order, so the first row seen per id is the
// representative). The result is cached and safe for concurrent
// callers; treat it as read-only.
func (p *Projection) Reps() []int32 {
	p.repsOnce.Do(func() {
		if p.lazy.reps != nil {
			p.repsV = p.lazy.reps
			return
		}
		reps := make([]int32, p.groups)
		for i := range reps {
			reps[i] = -1
		}
		seen := 0
		for i, id := range p.RowGroup {
			if id >= 0 && reps[id] < 0 {
				reps[id] = int32(i)
				seen++
				if seen == p.groups {
					break
				}
			}
		}
		p.repsV = reps
	})
	return p.repsV
}

// ExtendProjection extends prev — a projection over attrs built when
// the table had prevRows rows — to cover the table's current extension,
// bit-identical to rebuilding from scratch (see the package comment
// above for why). Returns nil when the projection cannot be extended
// (no predecessor, or a shape mismatch), in which case
// the caller falls back to a full build. Valid only under append-only
// growth between commit points: rows [0, prevRows) and the dictionary
// prefixes behind them must be unchanged, which the engine guarantees
// for projections captured at commit points (see epoch.go).
func (t *Table) ExtendProjection(attrs []string, prev *Projection, prevRows int) *Projection {
	if prev == nil {
		return nil
	}
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil
	}
	n := t.nrows
	if prevRows > n || len(prev.RowGroup) != prevRows {
		return nil
	}
	t.ensureCols(idx)
	if len(idx) == 1 {
		// The code vector is itself the grown group vector; the fresh
		// projection shares it at the new cap for free.
		return t.project(idx)
	}
	prevReps := prev.Reps()
	if prevReps == nil {
		return nil
	}
	g := make([]int32, n)
	copy(g, prev.RowGroup)
	groups := prev.groups
	reps := make([]int32, groups, groups+(n-prevRows)/2+1)
	copy(reps, prevReps)
	nonNull := prev.NonNull

	cols := make([]*column, len(idx))
	for j, ci := range idx {
		cols[j] = &t.columns[ci]
	}
	if len(idx) == 2 {
		// Fast path: pack the two codes into one int64 key.
		c0, c1 := cols[0], cols[1]
		seed := make(map[int64]int32, groups)
		for id, ri := range reps {
			seed[int64(c0.codes[ri])<<32|int64(uint32(c1.codes[ri]))] = int32(id)
		}
		for i := prevRows; i < n; i++ {
			a, b := c0.codes[i], c1.codes[i]
			if a == nullCode || b == nullCode {
				g[i] = nullCode
				continue
			}
			nonNull++
			key := int64(a)<<32 | int64(uint32(b))
			id, ok := seed[key]
			if !ok {
				id = int32(groups)
				groups++
				seed[key] = id
				reps = append(reps, int32(i))
			}
			g[i] = id
		}
	} else {
		seed := make(map[string]int32, groups)
		var scratch []byte
		pack := func(row int32) []byte {
			scratch = scratch[:0]
			for _, c := range cols {
				code := c.codes[row]
				scratch = append(scratch, byte(code), byte(code>>8), byte(code>>16), byte(code>>24))
			}
			return scratch
		}
		for id, ri := range reps {
			seed[string(pack(ri))] = int32(id)
		}
	delta:
		for i := prevRows; i < n; i++ {
			for _, c := range cols {
				if c.codes[i] == nullCode {
					g[i] = nullCode
					continue delta
				}
			}
			nonNull++
			key := pack(int32(i))
			id, ok := seed[string(key)]
			if !ok {
				id = int32(groups)
				groups++
				seed[string(key)] = id
				reps = append(reps, int32(i))
			}
			g[i] = id
		}
	}
	reps = reps[:len(reps):len(reps)]
	p := &Projection{
		RowGroup: g,
		NonNull:  nonNull,
		groups:   groups,
		lazy:     &lazyDict{tab: t, idx: idx, reps: reps},
	}
	p.repsV = reps
	p.repsOnce.Do(func() {})
	return p
}
