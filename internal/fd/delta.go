// Targeted FD re-validation after a batch append. A new tuple can only
// *break* a functional dependency, never repair one that held — adding
// rows never removes a violating pair — so a previously-clean A → b
// needs only its delta rows checked: each appended row either lands in
// an existing group of A (then its b-value must match that group's
// established value, read off the group representative) or founds a new
// group (trivially clean). Previously-violated checks replay their
// refutation outright when the enforcement policy ignores support —
// violations are monotone non-decreasing under appends (each appended
// tuple raises its group's majority count by at most one while raising
// the non-NULL row count by exactly one), so a support that carries
// violations keeps carrying them — and are recomputed in full otherwise,
// because their exact violation counts — which a support-sensitive
// enforcement policy reads — change in ways the delta alone cannot
// reproduce. DiscoverRHSCtx takes this path when Opts.Prev is set; the
// decision loop then runs unchanged over the refreshed supports, so
// results (FDs, hidden set, traces, expert consultation order) are
// bit-identical to a cold run on the same state.
package fd

import (
	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// SupportMap is the per-(candidate-key, attribute) support table of one
// RHS-Discovery run — the warm state a re-validation starts from.
type SupportMap map[[2]string]expert.FDSupport

// DeltaStats summarizes how a run classified its extension checks.
type DeltaStats struct {
	// Reused counts checks whose relation did not change: the previous
	// support is still exact and no kernel ran.
	Reused int
	// DeltaChecked counts previously-clean checks proven still clean by
	// scanning only the appended rows.
	DeltaChecked int
	// Refuted counts previously-violated checks whose refutation was
	// replayed without any kernel: appends can only add violations, so
	// under a support-insensitive enforcement policy
	// (expert.IsSupportInsensitive) the decision cannot change. The
	// carried support is the stale one — a certain lower bound, never
	// read by such a policy.
	Refuted int
	// Escalated counts checks recomputed by the full kernel: the
	// previous support already carried violations under a
	// support-sensitive enforcement policy, no previous support exists
	// (new relation or attribute), or a delta check found a fresh
	// violation.
	Escalated int
	// Broken counts the subset of Escalated where a previously-clean
	// check was dirtied by the delta — the re-escalations proper, whose
	// decisions go back through the expert's enforcement policy.
	Broken int
}

// CheckDelta proves a previously-clean FD lhs → rhs still clean by
// checking only rows [baseRows, len) against the group representatives,
// or reports dirty=true on the first fresh violation. The returned
// support is exact only when dirty=false: Rows is the non-NULL-lhs row
// count over the full grown extension and Violations is 0, which is
// bit-identical to what the full kernels return for a clean FD.
func CheckDelta(cache *stats.Cache, rel string, lhs []string, rhs string, baseRows int) (support expert.FDSupport, dirty bool, err error) {
	gx, _, nonNull, err := cache.GroupVector(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	ga, _, _, err := cache.GroupVector(rel, []string{rhs})
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	reps, err := cache.GroupReps(rel, lhs)
	if err != nil {
		return expert.FDSupport{}, false, err
	}
	// Old groups have old representatives (their b-value is the group's
	// established one — the FD held over the prefix); delta-founded
	// groups have their first delta row as representative, so intra-delta
	// splits are caught too. NULL b is one regular value (code -1), the
	// same convention as every full kernel.
	for i := baseRows; i < len(gx); i++ {
		g := gx[i]
		if g < 0 {
			continue
		}
		if ga[i] != ga[reps[g]] {
			return expert.FDSupport{}, true, nil
		}
	}
	return expert.FDSupport{Rows: nonNull, Violations: 0}, false, nil
}

// checkKind classifies how one A → b support was served. The zero value
// is checkFull, so a cold run — no history — runs every check through
// the full kernel.
type checkKind int8

const (
	// checkFull: no previous support (new relation or attribute, or a
	// cold run), or a violated support under a support-sensitive policy:
	// the full kernel runs.
	checkFull checkKind = iota
	// checkReused: the relation did not change; the previous support is
	// still exact.
	checkReused
	// checkDeltaClean: a previously-clean check the appended rows left
	// clean (CheckDelta).
	checkDeltaClean
	// checkBroken: a previously-clean check the delta dirtied; the full
	// kernel recomputes it.
	checkBroken
	// checkRefuted: a previously-violated check replayed under a
	// support-insensitive policy.
	checkRefuted
)

// count tallies one check's kind.
func (ds *DeltaStats) count(k checkKind) {
	switch k {
	case checkReused:
		ds.Reused++
	case checkDeltaClean:
		ds.DeltaChecked++
	case checkRefuted:
		ds.Refuted++
	case checkBroken:
		ds.Escalated++
		ds.Broken++
	default:
		ds.Escalated++
	}
}

// fromHistory serves the check cand → b from the previous run's support
// where the appends allow it: unchanged relations reuse it, previously
// violated checks replay their refusal under a support-insensitive
// policy (violations only accumulate under appends; the stale support is
// carried forward as a certain lower bound), and previously-clean checks
// on the columnar engine are verified against the delta rows only. It
// reports checkFull or checkBroken when the full kernel must run.
func (o Opts) fromHistory(db *table.Database, cand relation.Ref, b string, insensitive bool) (expert.FDSupport, checkKind, error) {
	base, known := o.BaseRows[cand.Rel]
	prev, have := o.Prev[[2]string{cand.Key(), b}]
	if !have || !known {
		return expert.FDSupport{}, checkFull, nil
	}
	tab := db.MustTable(cand.Rel)
	switch n := tab.Len(); {
	case n == base:
		return prev, checkReused, nil
	case n < base:
		return expert.FDSupport{}, checkFull, nil
	case prev.Violations > 0 && insensitive:
		return prev, checkRefuted, nil
	case prev.Violations == 0 && tab.Engine() == table.EngineColumnar:
		sup, dirty, err := CheckDelta(o.Stats, cand.Rel, cand.Attrs.Names(), b, base)
		if err != nil || !dirty {
			return sup, checkDeltaClean, err
		}
		return expert.FDSupport{}, checkBroken, nil
	}
	return expert.FDSupport{}, checkFull, nil
}
