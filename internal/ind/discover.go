// Package ind implements the paper's IND-Discovery algorithm (Section 6.1):
// inclusion dependencies are elicited by checking each equi-join of Q
// against the database extension, with the expert user arbitrating
// non-empty intersections. The package also implements an exhaustive,
// data-only discovery baseline (in baseline.go) used to quantify the
// paper's central efficiency claim: query guidance examines only the
// attribute pairs programmers actually navigate.
package ind

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/sketch"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Case classifies what IND-Discovery did with one equi-join.
type Case int

// Outcome cases, mirroring the algorithm's branches.
const (
	// CaseEmpty: the two value sets do not intersect (branch (i)); a data
	// integrity problem may exist and nothing is elicited.
	CaseEmpty Case = iota
	// CaseInclusion: the intersection equals one (or both) of the value
	// sets; inclusion dependencies are elicited (branches (ii)/(iii)).
	CaseInclusion
	// CaseNEINewRelation: the expert conceptualized the intersection as a
	// new relation in S (branch (iv)).
	CaseNEINewRelation
	// CaseNEIForced: the expert enforced one direction against the
	// extension (branches (v)/(vi)).
	CaseNEIForced
	// CaseNEIIgnored: the expert dropped the non-empty intersection
	// (branch (vii)).
	CaseNEIIgnored
	// CaseError: the join refers to unknown relations or attributes.
	CaseError
)

// String names the case.
func (c Case) String() string {
	switch c {
	case CaseEmpty:
		return "empty-intersection"
	case CaseInclusion:
		return "inclusion"
	case CaseNEINewRelation:
		return "nei-new-relation"
	case CaseNEIForced:
		return "nei-forced"
	case CaseNEIIgnored:
		return "nei-ignored"
	case CaseError:
		return "error"
	default:
		return "?"
	}
}

// Outcome records how one equi-join was processed.
type Outcome struct {
	Join        deps.EquiJoin
	NK, NL, NKL int
	Case        Case
	Added       []deps.IND
	NewRelation string // set for CaseNEINewRelation
	Err         error  // set for CaseError
}

// String renders the outcome.
func (o Outcome) String() string {
	s := fmt.Sprintf("%s: Nk=%d Nl=%d Nkl=%d -> %s", o.Join, o.NK, o.NL, o.NKL, o.Case)
	if o.NewRelation != "" {
		s += " " + o.NewRelation
	}
	return s
}

// Result is the output of IND-Discovery: the elicited set IND, the new
// relations S, and a full trace.
type Result struct {
	INDs *deps.INDSet
	// NewRelations lists the names of the relations added to S, in
	// creation order; their schemas live in the database catalog.
	NewRelations []string
	Outcomes     []Outcome
	// ExtensionQueries counts the count-distinct/join queries issued
	// against the extension (three per equi-join), the cost measure the
	// efficiency claim is about.
	ExtensionQueries int
	// Delta classifies how the joins were served. A cold run (no
	// Opts.Prev) re-decides every join.
	Delta DeltaStats
}

// Opts configures IND-Discovery. The zero value is a cold, serial run
// through a private statistics cache.
type Opts struct {
	// Stats is the column-statistics cache every count-distinct/join
	// query reads through, so projections scanned once are reused across
	// joins (N_k of a side appearing in several joins, N_kl against the
	// sets already built for N_k/N_l) and across later pipeline phases.
	// nil gives the run a private stats.NewCache(db).
	Stats *stats.Cache
	// Workers fans the counting phase over a bounded worker pool
	// (stats.ForEach): 1 counts serially, ≤ 0 selects GOMAXPROCS. The
	// pipeline resolves its own "0 = serial" before passing it here.
	Workers int
	// Sketch puts the approximate triage tier in front of the join
	// intersection count: for a unary join whose two column signatures
	// are complete (unsaturated) and disjoint, N_kl = 0 with certainty —
	// the values behind disjoint complete signatures share no member —
	// so the exact join count is skipped and the join resolves to the
	// empty case immediately. Every other join escalates to the exact
	// counts, because the expert's NEI dialogue consumes the exact
	// N_k/N_l/N_kl ratios and the outcome log records them: nothing else
	// is soundly skippable here. Outcomes, accepted INDs and the expert
	// dialogue are bit-identical to the exact-only run (a pruned join's
	// outcome carries the same N_kl = 0 the exact count would have
	// found); only ExtensionQueries shrinks, by one per pruned join. The
	// split is published as the sketch-prunes / sketch-escalations
	// counters. Ignored with Prev: a re-validation recounts exactly.
	Sketch bool
	// Prev is the previous run's result over the same Q; with it the run
	// re-validates that result after batch appends (see delta.go). nil is
	// a cold run.
	Prev *Result
	// BaseRows maps each relation to its row count at Prev's run (absent
	// means the relation is new). The entries of NEI relations the
	// re-validation retracts are deleted from it.
	BaseRows map[string]int
}

// DiscoverCtx runs IND-Discovery over the equi-joins of q against db,
// consulting oracle (nil means expert.NewAuto()) for every non-empty
// intersection. New relations conceptualized from NEIs are added to db
// (schema and extension).
//
// The three extension queries per equi-join are independent pure reads,
// so they run first, fanned out over o.Workers; the decision phase —
// branching, expert consultation, NEI conceptualization (which mutates
// the database) — then runs sequentially in the canonical order of q, so
// outcomes and the expert dialogue do not depend on the counting
// configuration. A cold run is a re-validation without history: every
// join is counted and decided.
//
// When a tracer is installed (obs.NewContext), the counting and decision
// stages become child spans — count/decide, or count-delta/decide-delta
// when re-validating — and the joins-tested / INDs-accepted /
// NEI-escalation / extension-query / re-escalation counters are
// published. Untraced contexts cost nothing (nil-span no-ops).
func DiscoverCtx(ctx context.Context, db *table.Database, q *deps.JoinSet, oracle expert.Oracle, o Opts) (*Result, error) {
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	if o.Stats == nil {
		o.Stats = stats.NewCache(db)
	}
	tr := obs.FromContext(ctx)
	joins := q.Sorted()
	h := newHistory(db, joins, o)
	sketchOn := o.Sketch && o.Prev == nil
	countSpan, decideSpan := "count", "decide"
	if o.Prev != nil {
		countSpan, decideSpan = "count-delta", "decide-delta"
	}

	results := make([]joinCounts, len(joins))
	_, csp := obs.StartSpan(ctx, countSpan)
	stats.ForEach(len(joins), o.Workers, func(i int) {
		if po := h.prev[i]; h.kinds[i] == kindReuse {
			results[i] = joinCounts{nk: po.NK, nl: po.NL, nkl: po.NKL}
			return
		}
		results[i] = measureJoin(db, joins[i], o.Stats, sketchOn)
	})
	csp.SetInt("joins", int64(len(joins)))
	csp.SetInt("workers", int64(o.Workers))
	if sketchOn {
		var prunes, escalations int64
		for i := range results {
			switch {
			case results[i].sketchPruned:
				prunes++
			case results[i].err == nil:
				escalations++
			}
		}
		csp.SetInt("sketch-prunes", prunes)
		tr.Add(obs.CtrSketchPrunes, prunes)
		tr.Add(obs.CtrSketchEscalations, escalations)
	}
	csp.End()
	reescalated, err := h.settle(db, results, o)
	if err != nil {
		return nil, err
	}

	_, dsp := obs.StartSpan(ctx, decideSpan)
	res := &Result{INDs: deps.NewINDSet()}
	nei := 0
	for i, join := range joins {
		// A cancelled run stops between joins: the current expert
		// consultation (which a ContextAware oracle already aborts on
		// cancellation) is the last work performed.
		if err := ctx.Err(); err != nil {
			dsp.End()
			return res, fmt.Errorf("ind: cancelled after %d of %d joins: %w", i, len(joins), err)
		}
		switch h.kinds[i] {
		case kindReuse:
			res.Delta.Reused++
			res.replay(join, h.prev[i])
			continue
		case kindRecount:
			res.Delta.Recounted++
			res.ExtensionQueries += 3
			res.replay(join, h.prev[i])
			continue
		}
		res.Delta.Redecided++
		c := results[i]
		if c.err != nil {
			res.Outcomes = append(res.Outcomes, Outcome{Join: join, Case: CaseError, Err: c.err})
			continue
		}
		if c.sketchPruned {
			res.ExtensionQueries += 2 // N_kl was settled by the signatures
		} else {
			res.ExtensionQueries += 3
		}
		out := decideJoin(db, join, c.nk, c.nl, c.nkl, oracle, o.Stats, res)
		switch out.Case {
		case CaseNEINewRelation, CaseNEIForced, CaseNEIIgnored:
			nei++
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	dsp.SetInt("inds", int64(res.INDs.Len()))
	dsp.SetInt("nei", int64(nei))
	if o.Prev != nil {
		dsp.SetInt("reused", int64(res.Delta.Reused))
		dsp.SetInt("recounted", int64(res.Delta.Recounted))
		dsp.SetInt("redecided", int64(res.Delta.Redecided))
	}
	dsp.End()
	tr.Add(obs.CtrINDsTested, int64(len(joins)))
	tr.Add(obs.CtrINDsAccepted, int64(res.INDs.Len()))
	tr.Add(obs.CtrNEIEscalated, int64(nei))
	tr.Add(obs.CtrDistinctQueries, int64(res.ExtensionQueries))
	tr.Add(obs.CtrReescalations, int64(reescalated))
	return res, nil
}

// joinCounts carries the three counts of one equi-join. sketchPruned
// marks a join whose N_kl the triage tier settled as certainly zero
// without the exact join count.
type joinCounts struct {
	nk, nl, nkl  int
	sketchPruned bool
	err          error
}

// measureJoin computes the three counts of one equi-join through the
// statistics cache. With sketchOn, N_k and N_l are exact (and O(1) on
// the columnar engine), then for unary joins the column signatures may
// prove N_kl = 0 (sketch.DisjointSets) and skip the exact join count.
// Any uncertainty — saturated or missing signatures, multi-attribute
// joins — escalates to the exact count.
func measureJoin(db *table.Database, join deps.EquiJoin, cache *stats.Cache, sketchOn bool) (c joinCounts) {
	for _, rel := range []string{join.Left.Rel, join.Right.Rel} {
		if _, ok := db.Table(rel); !ok {
			c.err = fmt.Errorf("ind: unknown relation %q", rel)
			return c
		}
	}
	if c.nk, c.err = cache.DistinctCount(join.Left.Rel, join.Left.Attrs); c.err == nil {
		c.nl, c.err = cache.DistinctCount(join.Right.Rel, join.Right.Attrs)
	}
	if c.err != nil {
		return c
	}
	if sketchOn && len(join.Left.Attrs) == 1 && len(join.Right.Attrs) == 1 &&
		sketch.DisjointSets(joinSig(cache, join.Left.Rel, join.Left.Attrs[0]), joinSig(cache, join.Right.Rel, join.Right.Attrs[0])) {
		c.sketchPruned = true
		return c
	}
	c.nkl, c.err = cache.JoinDistinctCount(join.Left.Rel, join.Left.Attrs, join.Right.Rel, join.Right.Attrs)
	return c
}

// joinSig resolves a column's bottom-k signature for the triage tier,
// nil when unavailable (row engine, unknown attribute) — unavailable
// signatures never prune.
func joinSig(cache *stats.Cache, rel, attr string) *sketch.BottomK {
	col, _ := cache.SketchColumn(rel, attr)
	if col == nil {
		return nil
	}
	return col.Sig
}

// decideJoin applies the algorithm's branches given the join's counts.
func decideJoin(db *table.Database, join deps.EquiJoin, nk, nl, nkl int, oracle expert.Oracle, cache *stats.Cache, res *Result) Outcome {
	out := Outcome{Join: join, NK: nk, NL: nl, NKL: nkl}
	add := func(d deps.IND) {
		if res.INDs.Add(d) {
			out.Added = append(out.Added, d)
		}
	}
	left := deps.Side{Rel: join.Left.Rel, Attrs: join.Left.Attrs}
	right := deps.Side{Rel: join.Right.Rel, Attrs: join.Right.Attrs}
	switch {
	case nkl == 0:
		out.Case = CaseEmpty
	case nkl == nk || nkl == nl:
		out.Case = CaseInclusion
		if nkl == nk {
			add(deps.NewIND(left, right))
		}
		if nkl == nl {
			add(deps.NewIND(right, left))
		}
	default:
		decision := oracle.DecideNEI(expert.NEIContext{Join: join, NK: nk, NL: nl, NKL: nkl})
		switch decision.Action {
		case expert.NEINewRelation:
			name, newRel, err := conceptualizeNEI(db, join, decision.Name, oracle, cache)
			if err != nil {
				out.Case, out.Err = CaseError, err
				return out
			}
			out.Case, out.NewRelation = CaseNEINewRelation, name
			res.NewRelations = append(res.NewRelations, name)
			add(deps.NewIND(deps.Side{Rel: name, Attrs: newRel}, left))
			add(deps.NewIND(deps.Side{Rel: name, Attrs: newRel}, right))
		case expert.NEIForceLeft:
			out.Case = CaseNEIForced
			add(deps.NewIND(left, right))
		case expert.NEIForceRight:
			out.Case = CaseNEIForced
			add(deps.NewIND(right, left))
		default:
			out.Case = CaseNEIIgnored
		}
	}
	return out
}

// conceptualizeNEI creates the relation R_p(A_p) for a non-empty
// intersection, keyed on all its attributes, and fills its extension with
// the shared value combinations. Attribute names and types are taken from
// the join's left side.
func conceptualizeNEI(db *table.Database, join deps.EquiJoin, name string, oracle expert.Oracle, cache *stats.Cache) (string, []string, error) {
	tk := db.MustTable(join.Left.Rel)
	base := relation.Ref{Rel: join.Left.Rel, Attrs: relation.NewAttrSet(join.Left.Attrs...)}
	if name == "" {
		suggested := uniqueName(db.Catalog(), join.Left.Rel+"-"+join.Right.Rel)
		name = oracle.NameRelation(expert.NameNEI, base, suggested)
	}
	if db.Catalog().Has(name) {
		name = uniqueName(db.Catalog(), name)
	}
	attrs := make([]relation.Attribute, len(join.Left.Attrs))
	for i, a := range join.Left.Attrs {
		src, ok := tk.Schema().Attr(a)
		if !ok {
			return "", nil, fmt.Errorf("ind: relation %s has no attribute %q", join.Left.Rel, a)
		}
		attrs[i] = relation.Attribute{Name: src.Name, Type: src.Type}
	}
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	schema, err := relation.NewSchema(name, attrs, relation.NewAttrSet(names...))
	if err != nil {
		return "", nil, err
	}
	if err := db.AddRelation(schema); err != nil {
		return "", nil, err
	}
	// Extension: the distinct intersection of the two projections — the
	// left side's distinct rows kept by right-side membership, tested
	// against the cached projection the counting phase built for N_l.
	contains, err := cache.Membership(join.Right.Rel, join.Right.Attrs)
	if err != nil {
		return "", nil, err
	}
	if _, err := tk.ProjectDistinct(db.MustTable(name), join.Left.Attrs, nil, contains); err != nil {
		return "", nil, err
	}
	return name, names, nil
}

// uniqueName derives a relation name not yet present in the catalog.
func uniqueName(cat *relation.Catalog, base string) string {
	if !cat.Has(base) {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s-%d", base, i)
		if !cat.Has(name) {
			return name
		}
	}
}

// Verify checks every IND of the set against the extension and returns the
// ones that do not hold (possible after forced decisions, which the paper
// warns desynchronize the data structure from the extension). The
// containments are answered by a private stats cache.
func Verify(db *table.Database, set *deps.INDSet) ([]deps.IND, error) {
	cache := stats.NewCache(db)
	var violated []deps.IND
	for _, d := range set.Sorted() {
		for _, rel := range []string{d.Left.Rel, d.Right.Rel} {
			if cache.TableFor(rel) == nil {
				return nil, fmt.Errorf("ind: unknown relation %q", rel)
			}
		}
		holds, err := cache.ContainedIn(d.Left.Rel, d.Left.Attrs, d.Right.Rel, d.Right.Attrs)
		if err != nil {
			return nil, err
		}
		if !holds {
			violated = append(violated, d)
		}
	}
	return violated, nil
}
