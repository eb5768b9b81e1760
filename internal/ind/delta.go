// Targeted IND re-validation after a batch append. Appends can only
// grow a projection's distinct set, so the three counts of an equi-join
// move monotonically — and an unchanged (N_k, N_l, N_kl) triple implies
// an unchanged intersection *set* (a grown-only intersection of the
// same size is the same set), which means the previous decision and any
// NEI concept relation built from that intersection are still exact.
// Only joins whose evidence actually moved re-enter the decision
// branches (and the expert dialogue); a previously-conceptualized NEI
// relation whose join is re-decided is retracted first, so
// re-conceptualization lands on the same relation name a cold run
// would pick. DiscoverCtx takes this path when Opts.Prev is set. With a
// deterministic oracle the result is bit-identical to a cold run on the
// same state, except that relation naming can diverge when suggested NEI
// names collide across distinct joins (a cold run numbers them in
// decision order; the delta run keeps surviving names stable).
package ind

import (
	"dbre/internal/deps"
	"dbre/internal/table"
)

// DeltaStats summarizes how a run classified the joins.
type DeltaStats struct {
	// Reused counts joins over unchanged relations: the previous
	// outcome is replayed without any extension query.
	Reused int
	// Recounted counts joins that reran their three extension queries
	// but whose counts came back unchanged, so the previous decision
	// (and NEI relation, if any) is kept without consulting the expert.
	Recounted int
	// Redecided counts joins whose evidence changed (or that have no
	// usable history): the full decision branch re-runs, including the
	// expert dialogue and NEI re-conceptualization.
	Redecided int
}

// joinKind classifies how one join of a run is served. The zero value is
// kindFull, so a cold run — no history — counts and decides every join.
type joinKind int8

const (
	// kindFull: no usable history, or evidence that moved: the join is
	// counted and decided.
	kindFull joinKind = iota
	// kindReuse: both relations are unchanged; the previous outcome is
	// replayed without any extension query.
	kindReuse
	// kindRecount: a relation grew; the join is recounted and, if its
	// counts did not move, its previous outcome is replayed.
	kindRecount
)

// history is the previous run's evidence, aligned with the sorted joins
// of Q: prev[i] is join i's previous outcome (nil without one) and
// kinds[i] how the join is served.
type history struct {
	prev  []*Outcome
	kinds []joinKind
}

// newHistory classifies the joins against o.Prev and o.BaseRows: joins
// over unchanged relations are reused outright, joins touching grown
// relations are recounted, and joins with no outcome or a failed one are
// decided afresh.
func newHistory(db *table.Database, joins []deps.EquiJoin, o Opts) history {
	h := history{prev: make([]*Outcome, len(joins)), kinds: make([]joinKind, len(joins))}
	if o.Prev == nil {
		return h
	}
	byKey := make(map[string]*Outcome, len(o.Prev.Outcomes))
	for i := range o.Prev.Outcomes {
		po := &o.Prev.Outcomes[i]
		byKey[po.Join.Key()] = po
	}
	grown := func(rel string) bool {
		tab, ok := db.Table(rel)
		base, known := o.BaseRows[rel]
		return !ok || !known || tab.Len() != base
	}
	for i, j := range joins {
		po := byKey[j.Key()]
		h.prev[i] = po
		switch {
		case po == nil || po.Err != nil:
		case grown(j.Left.Rel) || grown(j.Right.Rel):
			h.kinds[i] = kindRecount
		default:
			h.kinds[i] = kindReuse
		}
	}
	return h
}

// settle promotes recounted joins whose evidence moved (or whose recount
// failed) to a full re-decision, then retracts the stale NEI concept
// relations of re-decided joins before any decision runs, so freed names
// cannot collide with the re-created ones and downstream phases never see
// the outdated extensions. It returns the number of re-escalations:
// re-decided joins that had a previous outcome.
func (h history) settle(db *table.Database, counts []joinCounts, o Opts) (int, error) {
	reescalated := 0
	for i, po := range h.prev {
		if po == nil {
			continue
		}
		if c := counts[i]; h.kinds[i] == kindRecount && (c.err != nil || c.nk != po.NK || c.nl != po.NL || c.nkl != po.NKL) {
			h.kinds[i] = kindFull
		}
		if h.kinds[i] != kindFull {
			continue
		}
		reescalated++
		if po.NewRelation != "" && db.Catalog().Has(po.NewRelation) {
			if err := db.RemoveRelation(po.NewRelation); err != nil {
				return reescalated, err
			}
			o.Stats.Invalidate(po.NewRelation)
			delete(o.BaseRows, po.NewRelation)
		}
	}
	return reescalated, nil
}

// replay re-emits a previous outcome whose evidence did not move: the
// decision and any NEI relation built from the unchanged intersection
// are kept without consulting the expert.
func (res *Result) replay(join deps.EquiJoin, po *Outcome) {
	out := Outcome{Join: join, NK: po.NK, NL: po.NL, NKL: po.NKL, Case: po.Case, NewRelation: po.NewRelation}
	for _, d := range po.Added {
		if res.INDs.Add(d) {
			out.Added = append(out.Added, d)
		}
	}
	if po.Case == CaseNEINewRelation {
		res.NewRelations = append(res.NewRelations, po.NewRelation)
	}
	res.Outcomes = append(res.Outcomes, out)
}
