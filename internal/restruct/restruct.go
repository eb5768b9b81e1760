package restruct

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

// Result is the output of the Restruct algorithm: the restructured catalog
// (in db), the final key set, the rewritten inclusion dependencies and the
// referential integrity constraints.
type Result struct {
	// Keys is the final set K, one Ref per declared key.
	Keys []relation.Ref
	// INDs is the rewritten inclusion dependency set.
	INDs *deps.INDSet
	// RIC holds the key-based inclusion dependencies, canonically sorted.
	RIC []deps.IND
	// NewRelations lists relations created by Restruct, in creation order
	// (hidden objects first, then FD splits).
	NewRelations []string
	// MappedFDs holds the elicited FDs rewritten onto the relations that
	// now carry them (e.g. Department: emp → skill,proj becomes
	// Manager: emp → skill,proj); used to verify the 3NF postcondition.
	MappedFDs []deps.FD
	// ConflictRows counts tuples that could not be migrated into a split
	// relation because an enforced-but-dirty FD made the key collide.
	ConflictRows int
}

// Opts configures a Restruct run.
type Opts struct {
	// Oracle names the new relations; nil means expert.NewAuto().
	Oracle expert.Oracle
	// Workers fans the distinct projections that populate each step's
	// new relations over a bounded worker pool (stats.ForEach): 1 projects
	// serially, ≤ 0 selects GOMAXPROCS. The result does not depend on it.
	Workers int
}

// RunCtx executes the paper's Restruct algorithm against the database:
//
//  1. every hidden object R_i.A_i becomes a new keyed relation R_p(A_i),
//     with R_i[A_i] ≪ R_p[A_i] added and R_i[A_i] replaced by R_p[A_i]
//     elsewhere in IND;
//  2. every FD R_i: A_i → B_i is split into a new relation R_p(A_i, B_i)
//     keyed on A_i, B_i is removed from R_i, and IND is rewritten;
//  3. RIC collects the inclusion dependencies whose right-hand side is a
//     key.
//
// The database extension is migrated along with the schema: new relations
// are populated from the data and split-out attributes are projected away,
// so every emitted constraint can be verified against the restructured
// extension. Hidden objects and FDs are processed in canonical order, and
// naming goes through the oracle. Within steps 1 and 2 every new relation
// is first planned serially (named, registered, checked against the
// schema as the step's earlier splits leave it), then all of the step's
// projections run on o.Workers, then each is committed serially (the
// attribute drop, the IND rewriting). A projection reads only the columns
// it keeps, and an attribute drop shares those columns' codes and
// dictionaries, so projecting every split from the tables as the step
// found them gives the rows the one-at-a-time order gives; the first
// error in canonical order is the one returned.
//
// When a tracer is installed in ctx, the three steps become child spans
// (hidden-objects, fd-splits, ric). Untraced contexts cost nothing.
func RunCtx(ctx context.Context, db *table.Database, fds []deps.FD, hidden []relation.Ref, inds *deps.INDSet, o Opts) (*Result, error) {
	oracle := o.Oracle
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	res := &Result{INDs: inds.Clone()}

	// Step 1: hidden objects.
	_, hsp := obs.StartSpan(ctx, "hidden-objects")
	sortedHidden := append([]relation.Ref{}, hidden...)
	relation.SortRefs(sortedHidden)
	err := runStep(len(sortedHidden), o.Workers, res,
		func(i int) (*projection, error) {
			h := sortedHidden[i]
			return planProjection(db, h.Rel, h.Attrs, relation.AttrSet{}, relation.AttrSet{}, expert.NameHiddenObject, oracle, res)
		},
		func(i int, p *projection) error {
			h := sortedHidden[i]
			added := deps.NewIND(sideOf(db, h.Rel, h.Attrs), sideOf(db, p.name, h.Attrs))
			replaceRel(res.INDs, h.Rel, h.Attrs, p.name, added)
			res.INDs.Add(added)
			return nil
		})
	if err != nil {
		hsp.End()
		return nil, err
	}
	hsp.SetInt("hidden", int64(len(sortedHidden)))
	hsp.End()

	// Step 2: FD splits. dropped[R] holds the attributes the planned
	// splits on R will have removed by the time the next one commits.
	_, fsp := obs.StartSpan(ctx, "fd-splits")
	sortedFDs := append([]deps.FD{}, fds...)
	deps.SortFDs(sortedFDs)
	dropped := make(map[string]relation.AttrSet)
	err = runStep(len(sortedFDs), o.Workers, res,
		func(i int) (*projection, error) {
			f := sortedFDs[i]
			p, err := planProjection(db, f.Rel, f.LHS, f.RHS, dropped[f.Rel], expert.NameFDSplit, oracle, res)
			dropped[f.Rel] = dropped[f.Rel].Union(f.RHS)
			return p, err
		},
		func(i int, p *projection) error {
			f := sortedFDs[i]
			// Remove B_i from R_i (schema and extension).
			if err := db.DropAttrs(f.Rel, f.RHS); err != nil {
				return fmt.Errorf("restruct: projecting %s: %w", f.Rel, err)
			}
			added := deps.NewIND(sideOf(db, f.Rel, f.LHS), sideOf(db, p.name, f.LHS))
			// Replace R_i[A_i] by R_p[A_i] and R_i[B_i] by R_p[B_i]: any
			// IND side on R_i fully inside A_i ∪ B_i that mentions a
			// removed or determining attribute moves to R_p.
			replaceSplit(res.INDs, f.Rel, f.LHS, f.RHS, p.name, added)
			res.INDs.Add(added)
			res.MappedFDs = append(res.MappedFDs, deps.NewFD(p.name, f.LHS, f.RHS))
			return nil
		})
	if err != nil {
		fsp.End()
		return nil, err
	}
	fsp.SetInt("fds", int64(len(sortedFDs)))
	fsp.End()

	// Step 3: referential integrity constraints. Trivial INDs (identical
	// sides, typically born from self-joins in Q) are tautologies: they
	// were useful evidence for LHS-Discovery but are not constraints.
	_, rsp := obs.StartSpan(ctx, "ric")
	defer func() { rsp.SetInt("ric", int64(len(res.RIC))); rsp.End() }()
	for _, d := range res.INDs.Sorted() {
		if d.Left.Equal(d.Right) {
			continue
		}
		s, ok := db.Catalog().Get(d.Right.Rel)
		if !ok {
			return nil, fmt.Errorf("restruct: IND references unknown relation %q", d.Right.Rel)
		}
		if s.IsKey(relation.NewAttrSet(d.Right.Attrs...)) {
			res.RIC = append(res.RIC, d)
		}
	}
	res.Keys = db.Catalog().Keys()
	return res, nil
}

// projection is one new relation of a Restruct step: named, registered
// and empty once planned, populated by populate.
type projection struct {
	name      string
	src, dst  *table.Table
	cols, key []string
	conflicts int
	err       error
}

// populate fills dst with the distinct projection of src: its distinct
// NULL-free rows in value order, the first of each key winning (an
// enforced-but-dirty FD leaves two B values for one A; the later ones are
// conflicts). It reads src and writes only dst, so the projections of a
// step may run concurrently.
func (p *projection) populate() {
	p.conflicts, p.err = p.src.ProjectDistinct(p.dst, p.cols, p.key, nil)
}

// runStep runs one Restruct step of n new relations: plan(i) in order
// until the first error, the planned projections on workers, then, in
// order, each projection's outcome and commit(i). The error returned is
// the first in that order, the planning error last.
func runStep(n, workers int, res *Result, plan func(i int) (*projection, error), commit func(i int, p *projection) error) error {
	planned := make([]*projection, 0, n)
	var planErr error
	for i := 0; i < n; i++ {
		p, err := plan(i)
		if err != nil {
			planErr = err
			break
		}
		planned = append(planned, p)
	}
	stats.ForEach(len(planned), workers, func(i int) { planned[i].populate() })
	for i, p := range planned {
		res.ConflictRows += p.conflicts
		if p.err != nil {
			return fmt.Errorf("restruct: populating %s: %w", p.name, p.err)
		}
		if err := commit(i, p); err != nil {
			return err
		}
	}
	return planErr
}

// sideOf builds an IND side with the relation's schema attribute order.
func sideOf(db *table.Database, rel string, attrs relation.AttrSet) deps.Side {
	s, ok := db.Catalog().Get(rel)
	if !ok {
		return deps.Side{Rel: rel, Attrs: attrs.Names()}
	}
	var ordered []string
	for _, a := range s.Attrs {
		if attrs.Contains(a.Name) {
			ordered = append(ordered, a.Name)
		}
	}
	if len(ordered) != attrs.Len() {
		return deps.Side{Rel: rel, Attrs: attrs.Names()}
	}
	return deps.Side{Rel: rel, Attrs: ordered}
}

// planProjection adds a new relation named by the oracle, to hold the
// distinct projection of rel on lhs ∪ rhs (rows with NULLs in lhs are
// skipped), keyed on lhs ∪ rhs when rhs is empty and on lhs otherwise.
// dropped names attributes of rel that earlier splits of the step remove
// before this one commits; the projection may not use them.
func planProjection(db *table.Database, rel string, lhs, rhs, dropped relation.AttrSet,
	kind expert.NameKind, oracle expert.Oracle, res *Result) (*projection, error) {

	src, ok := db.Catalog().Get(rel)
	if !ok {
		return nil, fmt.Errorf("restruct: unknown relation %q", rel)
	}
	base := relation.Ref{Rel: rel, Attrs: lhs}
	suggested := suggestName(db.Catalog(), rel, lhs)
	name := oracle.NameRelation(kind, base, suggested)
	if name == "" || db.Catalog().Has(name) {
		name = uniqueName(db.Catalog(), name, suggested)
	}

	// Schema: lhs then rhs attributes, in the source schema's order.
	var attrs []relation.Attribute
	for _, a := range src.Attrs {
		if (lhs.Contains(a.Name) || rhs.Contains(a.Name)) && !dropped.Contains(a.Name) {
			attrs = append(attrs, relation.Attribute{Name: a.Name, Type: a.Type})
		}
	}
	if len(attrs) != lhs.Union(rhs).Len() {
		return nil, fmt.Errorf("restruct: relation %s lacks attributes %v", rel, lhs.Union(rhs))
	}
	key := lhs
	if lhs.IsEmpty() {
		key = rhs
	}
	schema, err := relation.NewSchema(name, attrs, key)
	if err != nil {
		return nil, err
	}
	if err := db.AddRelation(schema); err != nil {
		return nil, err
	}
	res.NewRelations = append(res.NewRelations, name)
	cols := make([]string, len(attrs))
	for i, a := range attrs {
		cols[i] = a.Name
	}
	return &projection{name: name, src: db.MustTable(rel), dst: db.MustTable(name), cols: cols, key: key.Names()}, nil
}

// replaceRel rewrites IND sides on (rel, attrs) — matched as a set — to the
// new relation, keeping attribute order, except in the just-added IND.
func replaceRel(inds *deps.INDSet, rel string, attrs relation.AttrSet, newRel string, except deps.IND) {
	rewrite(inds, except, func(s deps.Side) deps.Side {
		if s.Rel == rel && relation.NewAttrSet(s.Attrs...).Equal(attrs) {
			return deps.Side{Rel: newRel, Attrs: s.Attrs}
		}
		return s
	})
}

// replaceSplit rewrites IND sides on rel that live entirely inside
// lhs ∪ rhs — either the determining side A_i or (parts of) the removed
// side B_i — to the split relation.
func replaceSplit(inds *deps.INDSet, rel string, lhs, rhs relation.AttrSet, newRel string, except deps.IND) {
	all := lhs.Union(rhs)
	rewrite(inds, except, func(s deps.Side) deps.Side {
		set := relation.NewAttrSet(s.Attrs...)
		if s.Rel == rel && all.ContainsAll(set) && (set.Equal(lhs) || !set.Intersect(rhs).IsEmpty()) {
			return deps.Side{Rel: newRel, Attrs: s.Attrs}
		}
		return s
	})
}

// rewrite maps every IND side through fn, skipping the excluded IND.
func rewrite(inds *deps.INDSet, except deps.IND, fn func(deps.Side) deps.Side) {
	old := inds.All()
	fresh := make([]deps.IND, 0, len(old))
	for _, d := range old {
		if d.Equal(except) {
			fresh = append(fresh, d)
			continue
		}
		fresh = append(fresh, deps.NewIND(fn(d.Left), fn(d.Right)))
	}
	*inds = *deps.NewINDSet(fresh...)
}

// Verify3NF checks the paper's postcondition: every relation of the
// restructured catalog is in at least third normal form with respect to
// the elicited dependencies (as mapped by Restruct) plus its declared
// keys. It returns one message per violating relation; nil means the
// catalog verifies.
func Verify3NF(catalog *relation.Catalog, mappedFDs []deps.FD) []string {
	byRel := make(map[string][]deps.FD)
	for _, f := range mappedFDs {
		byRel[f.Rel] = append(byRel[f.Rel], f)
	}
	var violations []string
	for _, s := range catalog.Schemas() {
		nf := deps.Analyze(s.Name, s.AttrSet(), s.Uniques, byRel[s.Name])
		if nf < deps.NF3 {
			violations = append(violations,
				fmt.Sprintf("%s is only in %v (FDs: %v)", s.Name, nf, byRel[s.Name]))
		}
	}
	return violations
}

// suggestName derives a default name for a new relation from its source
// attribute(s): "Department-emp" etc., made unique within the catalog.
func suggestName(cat *relation.Catalog, rel string, attrs relation.AttrSet) string {
	base := rel
	if attrs.Len() >= 1 {
		base = rel + "-" + attrs.Names()[0]
	}
	return uniqueName(cat, base, base)
}

// uniqueName returns name if free, otherwise fallback or a numbered
// variant of it.
func uniqueName(cat *relation.Catalog, name, fallback string) string {
	if name != "" && !cat.Has(name) {
		return name
	}
	if name == "" {
		name = fallback
	}
	if !cat.Has(name) {
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s-%d", name, i)
		if !cat.Has(cand) {
			return cand
		}
	}
}
