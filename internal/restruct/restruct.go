package restruct

import (
	"context"
	"fmt"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
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

// Run executes the paper's Restruct algorithm against the database:
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
// extension. Hidden objects and FDs are processed in canonical order;
// naming goes through the oracle.
func Run(db *table.Database, fds []deps.FD, hidden []relation.Ref, inds *deps.INDSet, oracle expert.Oracle) (*Result, error) {
	return RunCtx(context.Background(), db, fds, hidden, inds, oracle)
}

// RunCtx is Run with observability threaded through the context: when a
// tracer is installed, the three Restruct steps become child spans
// (hidden-objects, fd-splits, ric). Untraced contexts cost nothing.
func RunCtx(ctx context.Context, db *table.Database, fds []deps.FD, hidden []relation.Ref, inds *deps.INDSet, oracle expert.Oracle) (*Result, error) {
	if oracle == nil {
		oracle = expert.NewAuto()
	}
	res := &Result{INDs: inds.Clone()}

	// Step 1: hidden objects.
	_, hsp := obs.StartSpan(ctx, "hidden-objects")
	sortedHidden := append([]relation.Ref{}, hidden...)
	relation.SortRefs(sortedHidden)
	for _, h := range sortedHidden {
		name, err := createProjection(db, h.Rel, h.Attrs, relation.AttrSet{}, expert.NameHiddenObject, oracle, res)
		if err != nil {
			hsp.End()
			return nil, err
		}
		added := deps.NewIND(sideOf(db, h.Rel, h.Attrs), sideOf(db, name, h.Attrs))
		replaceRel(res.INDs, h.Rel, h.Attrs, name, added)
		res.INDs.Add(added)
	}
	hsp.SetInt("hidden", int64(len(sortedHidden)))
	hsp.End()

	// Step 2: FD splits.
	_, fsp := obs.StartSpan(ctx, "fd-splits")
	sortedFDs := append([]deps.FD{}, fds...)
	deps.SortFDs(sortedFDs)
	for _, f := range sortedFDs {
		name, err := createProjection(db, f.Rel, f.LHS, f.RHS, expert.NameFDSplit, oracle, res)
		if err != nil {
			fsp.End()
			return nil, err
		}
		// Remove B_i from R_i (schema and extension).
		if err := db.DropAttrs(f.Rel, f.RHS); err != nil {
			fsp.End()
			return nil, fmt.Errorf("restruct: projecting %s: %w", f.Rel, err)
		}
		added := deps.NewIND(sideOf(db, f.Rel, f.LHS), sideOf(db, name, f.LHS))
		// Replace R_i[A_i] by R_p[A_i] and R_i[B_i] by R_p[B_i]: any IND
		// side on R_i fully inside A_i ∪ B_i that mentions a removed or
		// determining attribute moves to R_p.
		replaceSplit(res.INDs, f.Rel, f.LHS, f.RHS, name, added)
		res.INDs.Add(added)
		res.MappedFDs = append(res.MappedFDs, deps.NewFD(name, f.LHS, f.RHS))
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

// createProjection adds a new relation named by the oracle, holding the
// distinct projection of rel on lhs ∪ rhs (rows with NULLs in lhs are
// skipped), keyed on lhs ∪ rhs when rhs is empty and on lhs otherwise.
func createProjection(db *table.Database, rel string, lhs, rhs relation.AttrSet,
	kind expert.NameKind, oracle expert.Oracle, res *Result) (string, error) {

	src, ok := db.Catalog().Get(rel)
	if !ok {
		return "", fmt.Errorf("restruct: unknown relation %q", rel)
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
		if lhs.Contains(a.Name) || rhs.Contains(a.Name) {
			attrs = append(attrs, relation.Attribute{Name: a.Name, Type: a.Type})
		}
	}
	if len(attrs) != lhs.Union(rhs).Len() {
		return "", fmt.Errorf("restruct: relation %s lacks attributes %v", rel, lhs.Union(rhs))
	}
	key := lhs
	if lhs.IsEmpty() {
		key = rhs
	}
	schema, err := relation.NewSchema(name, attrs, key)
	if err != nil {
		return "", err
	}
	if err := db.AddRelation(schema); err != nil {
		return "", err
	}
	res.NewRelations = append(res.NewRelations, name)

	// Populate from the source extension: its distinct NULL-free rows in
	// value order, the first of each key winning (an enforced-but-dirty
	// FD leaves two B values for one A; the later ones are conflicts).
	cols := make([]string, len(attrs))
	for i, a := range attrs {
		cols[i] = a.Name
	}
	conflicts, err := db.MustTable(rel).ProjectDistinct(db.MustTable(name), cols, key.Names(), nil)
	res.ConflictRows += conflicts
	if err != nil {
		return "", fmt.Errorf("restruct: populating %s: %w", name, err)
	}
	return name, nil
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
