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

// checkDenseSlack and checkDenseFloor bound the joint-count table the
// dense CheckStats kernel will allocate: nLHS × (nRHS+1) slots are
// admitted up to checkDenseSlack × rows (the kernel reads every row
// anyway, so scratch proportional to the row count is already paid for)
// plus a floor that keeps small relations always dense.
const (
	checkDenseSlack = 4
	checkDenseFloor = 1 << 16
)

// CheckStats tests the functional dependency lhs → rhs on relation rel
// and reports its support: the tuples inspected and the violating tuples
// (those outside the majority right-hand-side value of their left-hand-
// side group). Tuples with a NULL in the left-hand side are skipped,
// matching how the elicitation treats missing identifiers; a NULL
// right-hand side counts as a regular value.
//
// The count goes through the shared column-statistics cache and a dense
// joint-counting kernel. The cached lhs projection is built (or reused)
// once and serves every right-hand-side candidate tested against the
// same left-hand side — exactly RHS-Discovery's access pattern, which
// probes one A against every surviving b — and the rhs column's own
// projection reduces the per-group majority count to pure group-id
// arithmetic over two int32 vectors:
//
//	violations = nonNull(lhs) − Σ_g max_r counts[g][r]
//
// where counts is the joint (lhs group, rhs group) contingency table,
// laid out flat with stride nRHS+1 so a NULL right-hand side (group id
// −1) lands branchlessly in slot 0. Scratch comes from the cache's
// arena, so warmed checks run allocation-free. When the flat table would
// exceed the budget — sparse products on very wide group counts — the
// grouped kernel (checkStatsSparse) takes over; both count the same
// groups and the same majorities.
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
// falling back to the grouped kernel on sparse products.
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
		return checkStatsSparse(cache, rel, lhs, rhs)
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

// CheckStatsSketch is CheckStats behind the approximate triage tier:
// when sampleRefute is set, two rows of the deterministic bottom-k row
// sample in the same lhs group with different rhs codes witness the
// dependency as refuted — a certain refutation, never a probabilistic
// one. The returned violation count is then a certain lower bound, not
// the exact count, so callers may enable refutation only when the
// oracle's EnforceFD is support-insensitive (expert.IsSupportInsensitive)
// — Holds() and every accepted result are then identical.
//
// No refutation -> pruned is false and the exact kernel runs.
func CheckStatsSketch(cache *stats.Cache, rel string, lhs []string, rhs string, sampleRefute bool) (support expert.FDSupport, pruned bool, err error) {
	if sampleRefute {
		lg, nLHS, nonNull, err := cache.GroupVector(rel, lhs)
		if err != nil {
			return expert.FDSupport{}, false, err
		}
		sample, err := cache.SampleRows(rel)
		if err != nil {
			return expert.FDSupport{}, false, err
		}
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
	support, err = CheckStats(cache, rel, lhs, rhs)
	return support, false, err
}

// refuteSample counts the lhs groups in which two sampled rows disagree
// on the rhs: each such group has at least one exact violation, so the
// count is a certain lower bound on the exact violation count. seen is
// an all-zero scratch vector indexed by lhs group id holding, per group,
// 0 while unseen, the first sampled rhs code + 2 (a NULL rhs, code −1,
// is one regular value, as in CheckStats), or −1 once the group
// disagreed. The slots touched are zeroed again before returning, so a
// call costs O(sample) whatever the group count.
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

// checkStatsSparse is the grouped kernel for products too sparse to
// joint-count densely: per-group majority counting over the materialized
// group slices, with a touched list resetting the shared count vector
// between groups.
func checkStatsSparse(cache *stats.Cache, rel string, lhs []string, rhs string) (expert.FDSupport, error) {
	groups, err := cache.GroupSlices(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, err
	}
	rg, nRHS, _, err := cache.GroupVector(rel, []string{rhs})
	if err != nil {
		return expert.FDSupport{}, err
	}
	// counts is indexed by rhs group id; the extra slot collects NULL
	// right-hand sides, one regular value.
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
