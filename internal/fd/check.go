// Package fd implements the functional-dependency side of the method: the
// extension checks behind RHS-Discovery (Section 6.2.2), the RHS-Discovery
// algorithm itself, and an exhaustive TANE-style discovery baseline (the
// data-only alternative the paper cites as Mannila & Räihä [12]).
package fd

import (
	"fmt"
	"strings"

	"dbre/internal/expert"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Check tests the functional dependency lhs → rhs on a table and reports
// its support: the number of tuples inspected and the number of violating
// tuples (tuples outside the majority right-hand-side value of their
// left-hand-side group). Tuples with a NULL in the left-hand side are
// skipped, matching how the elicitation treats missing identifiers; a NULL
// right-hand side counts as a regular value.
func Check(tab *table.Table, lhs []string, rhs string) (expert.FDSupport, error) {
	cols := make([]int, len(lhs))
	for i, a := range lhs {
		c, ok := tab.ColIndex(a)
		if !ok {
			return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	rcol, ok := tab.ColIndex(rhs)
	if !ok {
		return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, rhs)
	}
	// groups: lhs key → rhs value counts.
	groups := make(map[string]map[string]int)
	rows := 0
	var buf table.Row
	for i := 0; i < tab.Len(); i++ {
		row := tab.ReadRow(i, buf)
		buf = row
		var key strings.Builder
		hasNull := false
		for _, c := range cols {
			if row[c].IsNull() {
				hasNull = true
				break
			}
			key.WriteString(row[c].Key())
			key.WriteByte(0x1f)
		}
		if hasNull {
			continue
		}
		rows++
		k := key.String()
		if groups[k] == nil {
			groups[k] = make(map[string]int)
		}
		groups[k][row[rcol].Key()]++
	}
	violations := 0
	for _, counts := range groups {
		total, max := 0, 0
		for _, n := range counts {
			total += n
			if n > max {
				max = n
			}
		}
		violations += total - max
	}
	return expert.FDSupport{Rows: rows, Violations: violations}, nil
}

// checkDenseSlack and checkDenseFloor bound the joint-count table the
// dense CheckStats kernel will allocate: nLHS × (nRHS+1) slots are
// admitted up to checkDenseSlack × rows (the kernel reads every row
// anyway, so scratch proportional to the row count is already paid for)
// plus a floor that keeps small relations always dense.
const (
	checkDenseSlack = 4
	checkDenseFloor = 1 << 16
)

// CheckStats is Check through the shared column-statistics cache,
// computed by a dense joint-counting kernel. The cached lhs projection
// is built (or reused) once and serves every right-hand-side candidate
// tested against the same left-hand side — exactly RHS-Discovery's
// access pattern, which probes one A against every surviving b — and
// the rhs column's own projection reduces the per-group majority count
// to pure group-id arithmetic over two int32 vectors:
//
//	violations = nonNull(lhs) − Σ_g max_r counts[g][r]
//
// where counts is the joint (lhs group, rhs group) contingency table,
// laid out flat with stride nRHS+1 so a NULL right-hand side (group id
// −1, one regular value in Check's semantics) lands branchlessly in
// slot 0. Scratch comes from the cache's arena, so warmed checks run
// allocation-free. When the flat table would exceed the budget — sparse
// products on very wide group counts — the grouped legacy kernel takes
// over; supports are identical to Check's on every path: the groups are
// the same groups, the majority count the same count.
//
// The support itself is a pure function of the dependency at the
// cache's commit point, so it is memoized through stats.SupportMemo: a
// repeat of the same check — in particular a warm job delegating to the
// resident pool's shared cache — skips the joint pass entirely and the
// kernel runs once per commit point across every consumer.
func CheckStats(cache *stats.Cache, rel string, lhs []string, rhs string) (expert.FDSupport, error) {
	rows, violations, err := cache.SupportMemo(rel, lhs, rhs, func() (int, int, error) {
		s, err := checkStatsKernel(cache, rel, lhs, rhs)
		return s.Rows, s.Violations, err
	})
	return expert.FDSupport{Rows: rows, Violations: violations}, err
}

// checkStatsKernel is the dense joint-counting pass behind CheckStats,
// falling back to the grouped legacy kernel on sparse products.
func checkStatsKernel(cache *stats.Cache, rel string, lhs []string, rhs string) (expert.FDSupport, error) {
	lg, nLHS, nonNull, err := cache.GroupVector(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, err
	}
	rg, nRHS, _, err := cache.GroupVector(rel, []string{rhs})
	if err != nil {
		return expert.FDSupport{}, err
	}
	stride := nRHS + 1
	product := int64(nLHS) * int64(stride)
	if product > int64(checkDenseSlack*len(lg)+checkDenseFloor) {
		return CheckStatsLegacy(cache, rel, lhs, rhs)
	}
	counts := cache.AcquireInts(int(product))
	maxPer := cache.AcquireInts(nLHS)
	for i, g := range lg {
		if g < 0 {
			continue // NULL in the left-hand side: tuple skipped
		}
		k := int(g)*stride + int(rg[i]) + 1
		n := counts[k] + 1
		counts[k] = n
		if n > maxPer[g] {
			maxPer[g] = n
		}
	}
	kept := 0
	for _, m := range maxPer {
		kept += int(m)
	}
	cache.ReleaseInts(counts)
	cache.ReleaseInts(maxPer)
	return expert.FDSupport{Rows: nonNull, Violations: nonNull - kept}, nil
}

// CheckStatsSketch is CheckStats behind the approximate triage tier. Two
// fast paths may settle a check without the joint counting pass, and
// both are certain, never probabilistic:
//
//   - Superkey: if ‖r[X]‖ equals the number of NULL-free-X tuples, every
//     group is a singleton and the dependency holds with exactly zero
//     violations — the rhs projection and the O(rows) joint pass are
//     skipped and the returned support is bit-identical to CheckStats's.
//     (‖r[X]‖ is exact and O(1) amortized here: the lhs group vector is
//     built once per candidate and shared across all its rhs checks, so
//     on the columnar engine the exact count is as cheap as its sketch
//     estimate — the tier uses it directly.)
//   - Sample refutation (only when sampleRefute): two rows of the
//     deterministic bottom-k row sample in the same lhs group with
//     different rhs codes witness the dependency as refuted. The
//     returned violation count is a certain lower bound, not the exact
//     count, so callers may enable this path only when the oracle's
//     EnforceFD is support-insensitive (expert.IsSupportInsensitive) —
//     Holds() and every accepted result are then identical.
//
// Neither path fires -> pruned is false and the exact kernel runs.
func CheckStatsSketch(cache *stats.Cache, rel string, lhs []string, rhs string, sampleRefute bool) (support expert.FDSupport, pruned bool, err error) {
	lg, nLHS, nonNull, err := cache.GroupVector(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	if nLHS == nonNull {
		return expert.FDSupport{Rows: nonNull, Violations: 0}, true, nil
	}
	if sampleRefute {
		sample, err := cache.SampleRows(rel)
		if err != nil {
			return expert.FDSupport{}, false, err
		}
		if sample != nil {
			rg, _, _, err := cache.GroupVector(rel, []string{rhs})
			if err != nil {
				return expert.FDSupport{}, false, err
			}
			seen := cache.AcquireInts(nLHS)
			viol := refuteSample(sample, lg, rg, seen)
			cache.ReleaseCleanInts(seen)
			if viol > 0 {
				return expert.FDSupport{Rows: nonNull, Violations: viol}, true, nil
			}
		}
	}
	support, err = CheckStats(cache, rel, lhs, rhs)
	return support, false, err
}

// refuteSample counts the lhs groups in which two sampled rows disagree
// on the rhs: each such group has at least one exact violation, so the
// count is a certain lower bound on the exact violation count. seen is
// an all-zero scratch vector indexed by lhs group id holding, per group,
// 0 while unseen, the first sampled rhs code + 2 (a NULL rhs, code −1,
// is one regular value, exactly Check's semantics), or −1 once the
// group disagreed. The slots touched are zeroed again before returning,
// so a call costs O(sample) whatever the group count.
func refuteSample(sample, lg, rg, seen []int32) int {
	viol := 0
	for _, ri := range sample {
		i := int(ri)
		if i >= len(lg) {
			continue // sample ahead of the cached projection
		}
		g := lg[i]
		if g < 0 {
			continue // NULL in the left-hand side: tuple skipped
		}
		switch prev, r := seen[g], rg[i]+2; {
		case prev == 0:
			seen[g] = r
		case prev > 0 && prev != r:
			viol++
			seen[g] = -1
		}
	}
	for _, ri := range sample {
		if i := int(ri); i < len(lg) && lg[i] >= 0 {
			seen[lg[i]] = 0
		}
	}
	return viol
}

// CheckStatsLegacy is the pre-overhaul grouped kernel: per-group
// majority counting over the materialized group slices, with a touched
// list resetting the shared count vector between groups. It remains the
// fallback for products too sparse to joint-count densely, the baseline
// leg of the B12 ablation (Opts.Legacy), and a differential reference
// for the dense kernel.
func CheckStatsLegacy(cache *stats.Cache, rel string, lhs []string, rhs string) (expert.FDSupport, error) {
	groups, err := cache.GroupSlices(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, err
	}
	rg, nRHS, err := cache.RowGroups(rel, []string{rhs})
	if err != nil {
		return expert.FDSupport{}, err
	}
	// counts is indexed by rhs group id; the extra slot collects NULL
	// right-hand sides, which Check treats as one regular value.
	counts := make([]int32, nRHS+1)
	touched := make([]int32, 0, 16)
	rows, violations := 0, 0
	for _, g := range groups {
		rows += len(g)
		if len(g) == 1 {
			continue // a singleton group cannot violate
		}
		max := int32(0)
		for _, i := range g {
			rid := rg[i]
			if rid < 0 {
				rid = int32(nRHS)
			}
			n := counts[rid] + 1
			counts[rid] = n
			if n == 1 {
				touched = append(touched, rid)
			}
			if n > max {
				max = n
			}
		}
		violations += len(g) - int(max)
		for _, rid := range touched {
			counts[rid] = 0
		}
		touched = touched[:0]
	}
	return expert.FDSupport{Rows: rows, Violations: violations}, nil
}

// CheckNaive tests lhs → rhs by comparing every pair of tuples — the
// textbook O(n²) definition. It exists as the ablation baseline for the
// hash-grouping Check (benchmark B3) and for differential testing.
func CheckNaive(tab *table.Table, lhs []string, rhs string) (expert.FDSupport, error) {
	cols := make([]int, len(lhs))
	for i, a := range lhs {
		c, ok := tab.ColIndex(a)
		if !ok {
			return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	rcol, ok := tab.ColIndex(rhs)
	if !ok {
		return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, rhs)
	}
	sameLHS := func(a, b table.Row) bool {
		for _, c := range cols {
			if a[c].IsNull() || b[c].IsNull() || !a[c].Equal(b[c]) {
				return false
			}
		}
		return true
	}
	rows := 0
	violating := make(map[int]bool)
	n := tab.Len()
	// Materialize every tuple once up front: the pairwise loop reads each
	// row n times, which on the columnar engine would decode it n times.
	mat := make([]table.Row, n)
	for i := 0; i < n; i++ {
		mat[i] = tab.Row(i)
	}
	for i := 0; i < n; i++ {
		ri := mat[i]
		nullLHS := false
		for _, c := range cols {
			if ri[c].IsNull() {
				nullLHS = true
			}
		}
		if nullLHS {
			continue
		}
		rows++
		for j := i + 1; j < n; j++ {
			rj := mat[j]
			if sameLHS(ri, rj) && !ri[rcol].Equal(rj[rcol]) {
				// Blame the later tuple, approximating Check's
				// majority-based count.
				violating[j] = true
			}
		}
	}
	return expert.FDSupport{Rows: rows, Violations: len(violating)}, nil
}

// Partition is a stripped partition: the row-index groups of size ≥ 2
// induced by grouping on some attribute set. Singleton groups carry no
// refutation power and are dropped (TANE's representation).
type Partition struct {
	Groups [][]int
	rows   int
}

// NewPartition groups the table's rows by the given attributes; NULL is a
// regular value here (data-mining semantics).
func NewPartition(tab *table.Table, attrs []string) (*Partition, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := tab.ColIndex(a)
		if !ok {
			return nil, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	groups := make(map[string][]int)
	var buf table.Row
	for i := 0; i < tab.Len(); i++ {
		row := tab.ReadRow(i, buf)
		buf = row
		var key strings.Builder
		for _, c := range cols {
			key.WriteString(row[c].Key())
			key.WriteByte(0x1f)
		}
		k := key.String()
		groups[k] = append(groups[k], i)
	}
	p := &Partition{rows: tab.Len()}
	for _, g := range groups {
		if len(g) >= 2 {
			p.Groups = append(p.Groups, g)
		}
	}
	return p, nil
}

// Error is TANE's e(X): the minimum number of rows to remove so that X
// becomes a superkey — Σ(|group| - 1) over stripped groups.
func (p *Partition) Error() int {
	e := 0
	for _, g := range p.Groups {
		e += len(g) - 1
	}
	return e
}

// Refine intersects the partition with the grouping of a single column:
// π_{X ∪ {a}} from π_X, the incremental step of the level-wise search.
func (p *Partition) Refine(tab *table.Table, attr string) (*Partition, error) {
	col, ok := tab.ColIndex(attr)
	if !ok {
		return nil, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, attr)
	}
	out := &Partition{rows: p.rows}
	sub := make(map[string][]int)
	for _, g := range p.Groups {
		for k := range sub {
			delete(sub, k)
		}
		for _, i := range g {
			k := tab.Value(i, col).Key()
			sub[k] = append(sub[k], i)
		}
		for _, s := range sub {
			if len(s) >= 2 {
				out.Groups = append(out.Groups, append([]int{}, s...))
			}
		}
	}
	return out, nil
}

// RefinesTo reports whether X → a holds given π_X and π_{X∪{a}}: the FD
// holds iff both partitions have the same error.
func RefinesTo(px, pxa *Partition) bool { return px.Error() == pxa.Error() }
