// Package fd implements the functional-dependency side of the method: the
// extension checks behind RHS-Discovery (Section 6.2.2), the RHS-Discovery
// algorithm itself, and an exhaustive TANE-style discovery baseline (the
// data-only alternative the paper cites as Mannila & Räihä [12]).
package fd

import (
	"dbre/internal/expert"
	"dbre/internal/stats"
)

// CheckStats tests the functional dependency lhs → rhs on relation rel
// and reports its support: the tuples inspected and the violating tuples
// (those outside the majority right-hand-side value of their left-hand-
// side group). Tuples with a NULL in the left-hand side are skipped,
// matching how the elicitation treats missing identifiers; a NULL
// right-hand side counts as a regular value. It is the one exact check
// on the extension; RHS-Discovery's triage and re-validation tiers
// (DiscoverRHSCtx) fall back to it.
//
// The count goes through the shared column-statistics cache: the cached
// lhs projection's group slices are built (or reused) once and serve
// every right-hand-side candidate tested against the same left-hand side
// — exactly RHS-Discovery's access pattern, which probes one A against
// every surviving b — and the rhs column's own projection reduces each
// group's majority count to counting rhs group ids (checkKernel).
//
// The support itself is a pure function of the dependency at the
// cache's commit point, so it is memoized through stats.SupportMemo: a
// repeat of the same check — in particular a warm job delegating to the
// resident pool's shared cache — skips the kernel entirely and the
// kernel runs once per commit point across every consumer.
func CheckStats(cache *stats.Cache, rel string, lhs []string, rhs string) (expert.FDSupport, error) {
	rows, violations, err := cache.SupportMemo(rel, lhs, rhs, func() (int, int, error) {
		return checkKernel(cache, rel, lhs, rhs)
	})
	return expert.FDSupport{Rows: rows, Violations: violations}, err
}

// checkKernel is the grouped pass behind CheckStats: per lhs group, it
// counts the rhs group ids of the group's rows and keeps the majority,
// so violations = nonNull(lhs) − Σ_g max_r counts[g][r]. The count
// vector comes from the cache's arena, indexed by rhs group id + 1 so a
// NULL right-hand side (group id −1) lands in slot 0 as one regular
// value. After each group the slots its rows touched are zeroed again,
// so the vector goes back to the arena clean and a check costs O(rows),
// whatever the group counts.
func checkKernel(cache *stats.Cache, rel string, lhs []string, rhs string) (rows, violations int, err error) {
	starts, grouped, err := cache.GroupRows(rel, lhs)
	if err != nil {
		return 0, 0, err
	}
	rg, nRHS, _, err := cache.GroupVector(rel, []string{rhs})
	if err != nil {
		return 0, 0, err
	}
	counts := cache.AcquireInts(nRHS + 1)
	for id := 1; id < len(starts); id++ {
		g := grouped[starts[id-1]:starts[id]]
		if len(g) == 1 {
			continue // a singleton group cannot violate
		}
		max := int32(0)
		for _, i := range g {
			k := rg[i] + 1
			counts[k]++
			if counts[k] > max {
				max = counts[k]
			}
		}
		violations += len(g) - int(max)
		for _, i := range g {
			counts[rg[i]+1] = 0
		}
	}
	cache.ReleaseCleanInts(counts)
	return len(grouped), violations, nil
}

// sampleRefute is RHS-Discovery's triage tier: two rows of the
// deterministic bottom-k row sample in the same lhs group with different
// rhs codes witness lhs → rhs as refuted — a certain refutation, never a
// probabilistic one. The returned violation count is then a certain
// lower bound, not the exact count, so DiscoverRHSCtx takes this tier
// only when the oracle's EnforceFD is support-insensitive
// (expert.IsSupportInsensitive) — Holds() and every accepted result are
// then identical. refuted is false when the sample shows no violation;
// the exact check must then run.
func sampleRefute(cache *stats.Cache, rel string, lhs []string, rhs string) (support expert.FDSupport, refuted bool, err error) {
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
	return expert.FDSupport{Rows: nonNull, Violations: viol}, viol > 0, nil
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
