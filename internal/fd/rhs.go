package fd

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Opts configures the extension-checking phase of RHS-Discovery. The
// zero value is a cold, serial run through a private statistics cache.
type Opts struct {
	// Stats is the column-statistics cache every A → b check reads
	// through, so the projection on each candidate left-hand side is
	// built once and reused by every right-hand-side probe. A caller
	// sharing it with other phases (or auditing its metrics) passes it
	// here; nil gives the run a private stats.NewCache(db).
	Stats *stats.Cache
	// Workers fans the checks over a bounded worker pool
	// (stats.ForEach): 1 checks serially, ≤ 0 selects GOMAXPROCS. The
	// pipeline resolves its own "0 = serial" before passing it here.
	Workers int
	// Sketch puts the triage tier (sampleRefute) in front of the exact
	// checks: certain refutation from the deterministic row sample, only
	// when the oracle's EnforceFD is support-insensitive
	// (expert.IsSupportInsensitive). Accepted FDs, hidden objects, traces
	// and counters are bit-identical to the exact-only run; the tier
	// only skips kernel work, surfaced via the sketch-prunes and
	// sketch-escalations counters. Ignored when re-validating (escalated
	// checks take the exact kernel).
	Sketch bool
	// Prev is the support table of the previous run (Result.Supports);
	// with it the run re-validates that run's checks after batch
	// appends (see delta.go), through Stats or a private cache alike.
	// nil is a cold run.
	Prev SupportMap
	// BaseRows maps each relation to its row count at Prev's run (absent
	// means the relation is new).
	BaseRows map[string]int
}

// CandidateTrace records how one element of LHS ∪ H was processed by
// RHS-Discovery.
type CandidateTrace struct {
	Candidate relation.Ref
	// Pruned is the candidate RHS set after the key/not-null reduction.
	Pruned relation.AttrSet
	// Accepted lists the attributes that entered B (held or enforced).
	Accepted relation.AttrSet
	// Enforced lists attributes the expert forced despite violations.
	Enforced relation.AttrSet
	// Outcome is one of "fd", "hidden-object", "given-up",
	// "stays-hidden", "fd-rejected".
	Outcome string
}

// String renders the trace line.
func (c CandidateTrace) String() string {
	return fmt.Sprintf("%s: T=%s B=%s -> %s", c.Candidate, c.Pruned, c.Accepted, c.Outcome)
}

// Result is the output of RHS-Discovery.
type Result struct {
	FDs []deps.FD
	// Hidden is the final set H of hidden objects.
	Hidden []relation.Ref
	Traces []CandidateTrace
	// ExtensionChecks counts A → b tests against the extension, the work
	// measure compared with the exhaustive baseline.
	ExtensionChecks int
	// Supports is the per-(candidate, attribute) support table the
	// decisions were made from: the warm state a later re-validation
	// passes back as Opts.Prev.
	Supports SupportMap
	// Delta classifies how the checks were served. A cold run (no
	// Opts.Prev) escalates every check to the full kernel.
	Delta DeltaStats
}

// DiscoverRHSCtx runs the paper's RHS-Discovery algorithm. Inputs are
// the database (for the extension and the catalog's keys and NOT NULLs),
// the candidate left-hand sides LHS and the hidden-object seeds H produced
// by LHS-Discovery, and the expert (nil means expert.NewAuto()).
// Candidates are processed in canonical order so runs are deterministic.
//
// The A → b extension checks are pure reads and independent of every
// expert decision, so they run first, fanned out over o.Workers; the
// decision loop then consumes the support table sequentially, which keeps
// outcomes, traces, counters and the exact order of expert consultations
// independent of the checking configuration. Every check goes through
// one dispatch (Opts.check): the history tiers when re-validating, the
// sample triage on a cold run with Opts.Sketch, and the exact CheckStats
// for whatever those leave open.
//
// When a tracer is installed (obs.NewContext), the stages become child
// spans — plan/check/decide, or plan-delta/check-delta/decide-delta when
// re-validating — and the fd-checks, fd-rhs-pruned and re-escalation
// counters are published. Untraced contexts cost nothing (nil-span
// no-ops).
func DiscoverRHSCtx(ctx context.Context, db *table.Database, lhs, hidden []relation.Ref, oracle expert.Oracle, o Opts) (*Result, error) {
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	if o.Stats == nil {
		o.Stats = stats.NewCache(db)
	}
	delta := o.Prev != nil
	planSpan, checkSpan, decideSpan := "plan", "check", "decide"
	if delta {
		planSpan, checkSpan, decideSpan = "plan-delta", "check-delta", "decide-delta"
	}
	tr := obs.FromContext(ctx)
	_, psp := obs.StartSpan(ctx, planSpan)
	plan, err := planRHS(db, lhs, hidden)
	if err != nil {
		psp.End()
		return nil, err
	}
	psp.SetInt("candidates", int64(len(plan.candidates)))
	psp.End()
	tr.Add(obs.CtrRHSPruned, int64(plan.prunedAway))

	checks := plan.checks
	results := make([]expert.FDSupport, len(checks))
	errs := make([]error, len(checks))
	kinds := make([]checkKind, len(checks))
	insensitive := expert.IsSupportInsensitive(oracle)
	_, ksp := obs.StartSpan(ctx, checkSpan)
	stats.ForEach(len(checks), o.Workers, func(i int) {
		results[i], kinds[i], errs[i] = o.check(db, plan.candidates[checks[i].cand], checks[i].attr, insensitive)
	})
	supports := make(SupportMap, len(checks))
	var ds DeltaStats
	for i, err := range errs {
		if err != nil {
			ksp.End()
			return nil, err
		}
		supports[plan.key(checks[i])] = results[i]
		ds.count(kinds[i])
	}
	ksp.SetInt("checks", int64(len(checks)))
	ksp.SetInt("workers", int64(o.Workers))
	if delta {
		ksp.SetInt("reused", int64(ds.Reused))
		ksp.SetInt("delta-checked", int64(ds.DeltaChecked))
		ksp.SetInt("refuted", int64(ds.Refuted))
		ksp.SetInt("escalated", int64(ds.Escalated))
	}
	if o.Sketch && !delta {
		ksp.SetInt("sketch-prunes", int64(ds.Sampled))
		tr.Add(obs.CtrSketchPrunes, int64(ds.Sampled))
		tr.Add(obs.CtrSketchEscalations, int64(len(checks)-ds.Sampled))
	}
	ksp.End()
	tr.Add(obs.CtrFDChecks, int64(ds.DeltaChecked+ds.Escalated+ds.Sampled))
	tr.Add(obs.CtrReescalations, int64(ds.Broken))

	_, dsp := obs.StartSpan(ctx, decideSpan)
	res, err := plan.decide(ctx, db, oracle, supports)
	if err == nil {
		dsp.SetInt("fds", int64(len(res.FDs)))
		dsp.SetInt("hidden", int64(len(res.Hidden)))
	}
	dsp.End()
	if err != nil {
		return nil, err
	}
	res.Supports, res.Delta = supports, ds
	return res, nil
}

// check serves one A → b support of DiscoverRHSCtx, cand → b, through
// the first tier that can settle it:
//
//   - with Opts.Prev, from the previous run's support where the appends
//     allow it (delta.go): an unchanged relation reuses it; a
//     previously-violated check replays its refusal under a
//     support-insensitive policy (violations only accumulate under
//     appends; the stale support is carried forward as a certain lower
//     bound); a previously-clean check is verified against the delta
//     rows only (checkDelta);
//   - on a cold run with Opts.Sketch and a support-insensitive policy,
//     from a row-sample refutation (sampleRefute);
//   - otherwise — and whenever a tier cannot settle the check — from
//     the exact CheckStats.
func (o Opts) check(db *table.Database, cand relation.Ref, b string, insensitive bool) (expert.FDSupport, checkKind, error) {
	rel, lhs := cand.Rel, cand.Attrs.Names()
	kind := checkFull
	if o.Prev != nil {
		base, known := o.BaseRows[rel]
		prev, have := o.Prev[[2]string{cand.Key(), b}]
		switch n := db.MustTable(rel).Len(); {
		case !have || !known || n < base:
		case n == base:
			return prev, checkReused, nil
		case prev.Violations > 0 && insensitive:
			return prev, checkRefuted, nil
		case prev.Violations == 0:
			sup, dirty, err := checkDelta(o.Stats, rel, lhs, b, base)
			if err != nil || !dirty {
				return sup, checkDeltaClean, err
			}
			kind = checkBroken
		}
	} else if o.Sketch && insensitive {
		sup, refuted, err := sampleRefute(o.Stats, rel, lhs, b)
		if err != nil || refuted {
			return sup, checkSampled, err
		}
	}
	sup, err := CheckStats(o.Stats, rel, lhs, b)
	return sup, kind, err
}

// rhsPlan is the deterministic candidate schedule of one run.
type rhsPlan struct {
	candidates []relation.Ref
	pruned     []relation.AttrSet // T per candidate
	checks     []rhsCheck         // every (candidate, b ∈ T), in order
	// prunedAway counts the attributes the key/not-null reduction
	// removed from the candidates' schemas (the fd-rhs-pruned counter).
	prunedAway int
	seen       map[string]bool
	inHidden   map[string]bool
	hidden     []relation.Ref
}

// rhsCheck is one A → b extension check: candidate index and b.
type rhsCheck struct {
	cand int
	attr string
}

// key is the check's SupportMap key.
func (plan *rhsPlan) key(c rhsCheck) [2]string {
	return [2]string{plan.candidates[c.cand].Key(), c.attr}
}

// planRHS enumerates LHS ∪ H in canonical order and computes each
// candidate's pruned right-hand-side set T from the catalog. It reads
// only schema metadata, so it can run ahead of any extension check.
func planRHS(db *table.Database, lhs, hidden []relation.Ref) (*rhsPlan, error) {
	plan := &rhsPlan{
		seen:     make(map[string]bool),
		inHidden: make(map[string]bool, len(hidden)),
		hidden:   hidden,
	}
	for _, h := range hidden {
		plan.inHidden[h.Key()] = true
	}
	// LHS ∪ H, deduplicated, in canonical order.
	for _, r := range append(append([]relation.Ref{}, lhs...), hidden...) {
		if !plan.seen[r.Key()] {
			plan.seen[r.Key()] = true
			plan.candidates = append(plan.candidates, r)
		}
	}
	relation.SortRefs(plan.candidates)
	for _, cand := range plan.candidates {
		schema, ok := db.Catalog().Get(cand.Rel)
		if !ok {
			return nil, fmt.Errorf("fd: unknown relation %q", cand.Rel)
		}
		key, _ := schema.PrimaryKey()
		notNull := schema.NotNullSet()
		// T = X_i - A - K_i; if A ∉ N, also remove N ∩ X_i.
		all := schema.AttrSet()
		t := all.Minus(cand.Attrs).Minus(key)
		if !notNull.ContainsAll(cand.Attrs) {
			t = t.Minus(notNull)
		}
		plan.prunedAway += all.Len() - cand.Attrs.Len() - t.Len()
		plan.pruned = append(plan.pruned, t)
		for _, b := range t.Names() {
			plan.checks = append(plan.checks, rhsCheck{len(plan.pruned) - 1, b})
		}
	}
	return plan, nil
}

// decide replays the algorithm's decision branches over the planned
// candidates, reading each A → b support from the precomputed table. A
// cancelled context stops the loop between candidates, so a cancelled run
// performs at most one more candidate's expert dialogue (which a
// ContextAware oracle aborts immediately anyway).
func (plan *rhsPlan) decide(ctx context.Context, db *table.Database, oracle expert.Oracle, supports SupportMap) (*Result, error) {
	res := &Result{}
	inHidden := plan.inHidden
	for ci, cand := range plan.candidates {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fd: cancelled after %d of %d candidates: %w", ci, len(plan.candidates), err)
		}
		tab := db.MustTable(cand.Rel)
		t := plan.pruned[ci]
		trace := CandidateTrace{Candidate: cand, Pruned: t}
		var accepted relation.AttrSet
		for _, b := range t.Names() {
			support := supports[[2]string{cand.Key(), b}]
			res.ExtensionChecks++
			switch {
			case support.Holds():
				accepted = accepted.Add(b) // branch (i)
			case oracle.EnforceFD(cand.Rel, cand.Attrs, b, support):
				accepted = accepted.Add(b) // branch (ii)
				trace.Enforced = trace.Enforced.Add(b)
			}
		}
		trace.Accepted = accepted

		hiddenKey := cand.Key()
		if !accepted.IsEmpty() {
			fd := deps.NewFD(cand.Rel, cand.Attrs, accepted)
			support := expert.FDSupport{Rows: tab.Len()}
			if oracle.ValidateFD(fd, support) { // expert validation
				res.FDs = append(res.FDs, fd)
				if inHidden[hiddenKey] {
					inHidden[hiddenKey] = false // now conceptualized in F
				}
				trace.Outcome = "fd"
			} else {
				trace.Outcome = "fd-rejected"
			}
			res.Traces = append(res.Traces, trace)
			continue
		}
		// Empty right-hand side.
		switch {
		case inHidden[hiddenKey]:
			trace.Outcome = "stays-hidden" // already a hidden object
		case oracle.ConceptualizeHidden(cand):
			inHidden[hiddenKey] = true // branch (iv)
			trace.Outcome = "hidden-object"
		default:
			trace.Outcome = "given-up" // branch (v)
		}
		res.Traces = append(res.Traces, trace)
	}

	// Materialize the final H in canonical order.
	for _, cand := range plan.candidates {
		if inHidden[cand.Key()] {
			res.Hidden = append(res.Hidden, cand)
		}
	}
	// Hidden seeds never visited as candidates (defensive; LHS-Discovery
	// always lists them) survive too.
	for _, h := range plan.hidden {
		if inHidden[h.Key()] && !plan.seen[h.Key()] {
			res.Hidden = append(res.Hidden, h)
		}
	}
	relation.SortRefs(res.Hidden)
	deps.SortFDs(res.FDs)
	return res, nil
}
