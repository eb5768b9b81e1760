// Package workload generates synthetic denormalized legacy databases with
// known ground truth. The paper evaluated its method on real 1990s systems
// (schemas, extensions and COBOL/ESQL application programs) that are not
// available; this generator is the documented substitution: it starts from
// a ground-truth conceptual design, maps it to relations, denormalizes by
// embedding referenced entities (optionally dropping them — the paper's
// hidden objects), generates a consistent extension with controllable
// corruption, and emits application programs containing exactly the
// equi-joins a programmer of the era would have written. Because the ground
// truth is known, pipeline output can be scored for precision and recall.
package workload

import (
	"fmt"
	"math/rand"

	"dbre/internal/deps"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Spec parameterizes a generated workload.
type Spec struct {
	Seed int64
	// Dimensions is the number of referenced entity relations ("D<i>").
	Dimensions int
	// Facts is the number of referencing relations ("F<i>").
	Facts int
	// FKsPerFact is how many distinct dimensions each fact references.
	FKsPerFact int
	// AttrsPerDimension is the number of non-key attributes per dimension.
	AttrsPerDimension int
	// DimensionRows and FactRows size the extension.
	DimensionRows int
	FactRows      int
	// EmbedProb is the probability that a fact-dimension link is
	// denormalized: the dimension's attributes are copied into the fact,
	// planting the FD fk → attrs.
	EmbedProb float64
	// DropProb is the probability that an embedded dimension is dropped
	// from the schema entirely, turning it into a hidden object.
	DropProb float64
	// Corruption is the fraction of fact rows whose foreign key dangles
	// (violating the IND) — the paper's dirty legacy extensions.
	Corruption float64
	// ProgramsPerJoin is how many application programs mention each join.
	ProgramsPerJoin int
	// CompositeDims makes the first n dimensions use two-attribute keys,
	// so their links become k-ary equi-joins and k-ary inclusion
	// dependencies throughout the pipeline.
	CompositeDims int
	// NearMissAttrs adds per-fact int attributes ("f<i>_nm<j>") drawn
	// from one range shared by every fact, salted with rare per-attribute
	// sentinel values at rate NearMissNoise: the columns are near-equal
	// sets differing only in a handful of values, so cross-fact
	// containment candidates are adversarial near-miss INDs — exact
	// counting must reject them, and sketch signatures usually cannot
	// (the sentinel witness is rarely retained), forcing escalations at
	// scale. The shared range is disjoint from every key, foreign-key and
	// far-miss range, so no true INDs are added against existing columns.
	NearMissAttrs int
	// NearMissNoise is the per-row probability that a near-miss attribute
	// takes one of its two private sentinel values (0 disables the salt,
	// making the columns genuinely equal sets).
	NearMissNoise float64
	// FarMissAttrs adds per-fact int attributes ("f<i>_fm<j>") drawn from
	// per-attribute disjoint ranges: every candidate pairing one of them
	// (in either direction, or against keys and near-miss columns) is a
	// far-below-threshold non-IND that complete-signature refutation
	// prunes with certainty — the pruning mass of the sketch-tier
	// benchmarks, quadratic in the attribute count.
	FarMissAttrs int
}

// DefaultSpec returns a medium-sized workload.
func DefaultSpec(seed int64) Spec {
	return Spec{
		Seed:              seed,
		Dimensions:        6,
		Facts:             4,
		FKsPerFact:        3,
		AttrsPerDimension: 3,
		DimensionRows:     200,
		FactRows:          2000,
		EmbedProb:         0.5,
		DropProb:          0.3,
		Corruption:        0,
		ProgramsPerJoin:   1,
	}
}

// Link is one fact→dimension reference in the ground truth.
type Link struct {
	Fact   string
	FK     string // first foreign-key attribute in the fact
	Dim    string // dimension relation name
	DimKey string // first dimension key attribute
	// FKs and DimKeys carry the full (possibly composite) correspondence;
	// for single-attribute keys they equal {FK} and {DimKey}.
	FKs      []string
	DimKeys  []string
	Embedded bool // dimension attributes copied into the fact
	Dropped  bool // dimension relation removed from the schema
	// EmbeddedAttrs lists the fact attributes carrying the embedded
	// dimension attributes (empty unless Embedded).
	EmbeddedAttrs []string
}

// GroundTruth is what the generator knows and the pipeline should recover.
type GroundTruth struct {
	Links []Link
	// ExpectedINDs holds fact[fk] ≪ dim[key] for links whose dimension
	// survives in the schema.
	ExpectedINDs []deps.IND
	// ExpectedFDs holds fact: fk → embedded attributes for embedded links.
	ExpectedFDs []deps.FD
	// HiddenRefs lists the fk attributes of dropped dimensions that are
	// recoverable (some join evidence exists), i.e. candidate hidden
	// objects.
	HiddenRefs []relation.Ref
}

// Workload bundles everything the pipeline consumes plus the ground truth.
type Workload struct {
	Spec     Spec
	DB       *table.Database
	Programs map[string]string // file name → source
	Truth    GroundTruth
	// Joins is the exact equi-join set planted in the programs.
	Joins *deps.JoinSet
}

// dimName, factName and attribute naming helpers.
func dimName(i int) string  { return fmt.Sprintf("D%d", i) }
func factName(i int) string { return fmt.Sprintf("F%d", i) }

// Generate builds the workload deterministically from the spec.
func Generate(spec Spec) (*Workload, error) {
	if spec.Dimensions < 1 || spec.Facts < 1 {
		return nil, fmt.Errorf("workload: need at least one dimension and one fact")
	}
	if spec.FKsPerFact > spec.Dimensions {
		spec.FKsPerFact = spec.Dimensions
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	w := &Workload{Spec: spec, Programs: make(map[string]string)}

	// 1. Choose links and their denormalization fate.
	type dimInfo struct {
		name    string
		keys    []string // one or two key attributes
		attrs   []string
		kinds   []value.Kind
		dropped bool
		usedBy  []int // fact indexes referencing it
	}
	dims := make([]*dimInfo, spec.Dimensions)
	for i := range dims {
		d := &dimInfo{name: dimName(i), keys: []string{fmt.Sprintf("d%d_id", i)}}
		if i < spec.CompositeDims {
			d.keys = []string{fmt.Sprintf("d%d_id", i), fmt.Sprintf("d%d_sub", i)}
		}
		for j := 0; j < spec.AttrsPerDimension; j++ {
			d.attrs = append(d.attrs, fmt.Sprintf("d%d_a%d", i, j))
			if j%2 == 0 {
				d.kinds = append(d.kinds, value.KindString)
			} else {
				d.kinds = append(d.kinds, value.KindInt)
			}
		}
		dims[i] = d
	}
	var links []*Link
	linkByFact := make([][]*Link, spec.Facts)
	for f := 0; f < spec.Facts; f++ {
		perm := rng.Perm(spec.Dimensions)[:spec.FKsPerFact]
		for _, di := range perm {
			l := &Link{
				Fact:   factName(f),
				Dim:    dims[di].name,
				DimKey: dims[di].keys[0],
			}
			l.FK = fmt.Sprintf("f%d_fk_d%d", f, di)
			for k := range dims[di].keys {
				name := l.FK
				if k > 0 {
					name = fmt.Sprintf("%s_sub%d", l.FK, k)
				}
				l.FKs = append(l.FKs, name)
				l.DimKeys = append(l.DimKeys, dims[di].keys[k])
			}
			if rng.Float64() < spec.EmbedProb {
				l.Embedded = true
			}
			links = append(links, l)
			linkByFact[f] = append(linkByFact[f], l)
			dims[di].usedBy = append(dims[di].usedBy, f)
		}
	}
	// A dimension is dropped only if every link to it is embedded
	// (otherwise its data would be unreachable) — decided per dimension.
	dimIndex := func(name string) int {
		var i int
		fmt.Sscanf(name, "D%d", &i)
		return i
	}
	for _, d := range dims {
		if len(d.usedBy) == 0 {
			continue
		}
		allEmbedded := true
		for _, l := range links {
			if l.Dim == d.name && !l.Embedded {
				allEmbedded = false
			}
		}
		if allEmbedded && rng.Float64() < spec.DropProb {
			d.dropped = true
		}
	}
	for _, l := range links {
		l.Dropped = dims[dimIndex(l.Dim)].dropped
	}

	// 2. Build the catalog.
	var schemas []*relation.Schema
	for _, d := range dims {
		if d.dropped {
			continue
		}
		var attrs []relation.Attribute
		for _, k := range d.keys {
			attrs = append(attrs, relation.Attribute{Name: k, Type: value.KindInt})
		}
		for j, a := range d.attrs {
			attrs = append(attrs, relation.Attribute{Name: a, Type: d.kinds[j]})
		}
		schemas = append(schemas, relation.MustSchema(d.name, attrs, relation.NewAttrSet(d.keys...)))
	}
	for f := 0; f < spec.Facts; f++ {
		name := factName(f)
		attrs := []relation.Attribute{
			{Name: fmt.Sprintf("f%d_id", f), Type: value.KindInt},
			{Name: fmt.Sprintf("f%d_load", f), Type: value.KindFloat},
		}
		for _, l := range linkByFact[f] {
			for _, fk := range l.FKs {
				attrs = append(attrs, relation.Attribute{Name: fk, Type: value.KindInt})
			}
			if l.Embedded {
				d := dims[dimIndex(l.Dim)]
				for j, a := range d.attrs {
					emb := fmt.Sprintf("%s_%s", l.FK, a)
					attrs = append(attrs, relation.Attribute{Name: emb, Type: d.kinds[j]})
					l.EmbeddedAttrs = append(l.EmbeddedAttrs, emb)
				}
			}
		}
		for j := 0; j < spec.NearMissAttrs; j++ {
			attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("f%d_nm%d", f, j), Type: value.KindInt})
		}
		for j := 0; j < spec.FarMissAttrs; j++ {
			attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("f%d_fm%d", f, j), Type: value.KindInt})
		}
		schemas = append(schemas, relation.MustSchema(name, attrs,
			relation.NewAttrSet(fmt.Sprintf("f%d_id", f))))
	}
	cat, err := relation.NewCatalog(schemas...)
	if err != nil {
		return nil, err
	}
	w.DB = table.NewDatabase(cat)

	// 3. Populate the extension.
	dimRows := make([][]table.Row, spec.Dimensions)
	for di, d := range dims {
		rows := make([]table.Row, spec.DimensionRows)
		for r := 0; r < spec.DimensionRows; r++ {
			row := table.Row{value.NewInt(int64(r + 1))}
			if len(d.keys) == 2 {
				// Composite key: (id, sub) with sub = id%5, still unique.
				row = append(row, value.NewInt(int64(r%5)))
			}
			for j, k := range d.kinds {
				if k == value.KindString {
					row = append(row, value.NewString(fmt.Sprintf("%s-%d-%d", d.attrs[j], r%40, j)))
				} else {
					row = append(row, value.NewInt(int64((r*7+j)%100)))
				}
			}
			rows[r] = row
		}
		dimRows[di] = rows
		if !d.dropped {
			tab := w.DB.MustTable(d.name)
			enc := table.NewChunkEncoder(tab)
			for _, row := range rows {
				if err := enc.AppendRow(row); err != nil {
					return nil, err
				}
			}
			if _, err := tab.NewAppender().AppendBatch(enc, true); err != nil {
				return nil, err
			}
		}
	}
	for f := 0; f < spec.Facts; f++ {
		tab := w.DB.MustTable(factName(f))
		enc := table.NewChunkEncoder(tab)
		// Facts reference only the first 80% of each dimension's keys, so
		// the dimension side always has unmatched values: a clean link is
		// a proper inclusion and a corrupted one a genuine NEI, matching
		// the shapes the paper's algorithm distinguishes.
		coverage := spec.DimensionRows * 4 / 5
		if coverage < 1 {
			coverage = spec.DimensionRows
		}
		for r := 0; r < spec.FactRows; r++ {
			row := table.Row{
				value.NewInt(int64(r + 1)),
				value.NewFloat(float64(rng.Intn(10000)) / 100),
			}
			for _, l := range linkByFact[f] {
				di := dimIndex(l.Dim)
				ref := rng.Intn(coverage)
				fkVal := int64(ref + 1)
				if spec.Corruption > 0 && rng.Float64() < spec.Corruption {
					// Legacy corruption looks like a handful of sentinel
					// or typo codes, not uniformly random garbage.
					fkVal = int64(spec.DimensionRows + 1 + rng.Intn(3))
				}
				row = append(row, value.NewInt(fkVal))
				if len(l.FKs) == 2 {
					// Composite reference: mirror the dimension's
					// (id, sub) construction so the pair matches.
					row = append(row, value.NewInt((fkVal-1)%5))
				}
				if l.Embedded {
					// Embedded attributes stay FD-consistent with the
					// foreign key even when it dangles: the FD fk → attrs
					// is a property of the denormalization copy, not of
					// referential integrity.
					src := dimRows[di][int(fkVal-1)%spec.DimensionRows]
					row = append(row, src[len(l.FKs):]...)
				}
			}
			// Adversarial sketch-tier columns; value-range layout (all
			// disjoint from the small key/fk/attr integers):
			//   far-miss  g: [1e6 + g*1e4, 1e6 + g*1e4 + span)  per-attr
			//   near-miss:   [4e6, 4e6 + span)                  shared
			//   sentinels g: {4e6 + span + 2g, 4e6 + span + 2g + 1}
			span := spec.DimensionRows
			if span < 2 {
				span = 2
			}
			for j := 0; j < spec.NearMissAttrs; j++ {
				v := int64(4_000_000 + rng.Intn(span))
				if spec.NearMissNoise > 0 && rng.Float64() < spec.NearMissNoise {
					g := f*spec.NearMissAttrs + j
					v = int64(4_000_000 + span + 2*g + rng.Intn(2))
				}
				row = append(row, value.NewInt(v))
			}
			for j := 0; j < spec.FarMissAttrs; j++ {
				g := f*spec.FarMissAttrs + j
				row = append(row, value.NewInt(int64(1_000_000+g*10_000+rng.Intn(span))))
			}
			if err := enc.AppendRow(row); err != nil {
				return nil, err
			}
		}
		if _, err := tab.NewAppender().AppendBatch(enc, true); err != nil {
			return nil, err
		}
	}

	// 4. Plant the programs and record the ground truth.
	w.Joins = deps.NewJoinSet()
	progIdx := 0
	addProgram := func(join deps.EquiJoin, comment string) {
		w.Joins.Add(join)
		for c := 0; c < max(1, spec.ProgramsPerJoin); c++ {
			name, src := renderProgram(progIdx, join, comment)
			w.Programs[name] = src
			progIdx++
		}
	}
	for _, l := range links {
		if !l.Dropped {
			join := deps.NewEquiJoin(deps.NewSide(l.Fact, l.FKs...), deps.NewSide(l.Dim, l.DimKeys...))
			addProgram(join, fmt.Sprintf("lookup %s via %s", l.Dim, l.FK))
			w.Truth.ExpectedINDs = append(w.Truth.ExpectedINDs,
				deps.NewIND(deps.NewSide(l.Fact, l.FKs...), deps.NewSide(l.Dim, l.DimKeys...)))
		}
		// An embedded link is recoverable only when join evidence exists:
		// the dimension survives (fact-dim join) or it was dropped but
		// shared by several facts (fact-fact join). A dropped, unshared
		// dimension leaves no trace in the programs — that knowledge is
		// genuinely lost, so the ground truth does not expect it.
		shared := len(dims[dimIndex(l.Dim)].usedBy) >= 2
		if l.Embedded && (!l.Dropped || shared) {
			var attrs []string
			attrs = append(attrs, l.EmbeddedAttrs...)
			w.Truth.ExpectedFDs = append(w.Truth.ExpectedFDs,
				deps.NewFD(l.Fact, relation.NewAttrSet(l.FK), relation.NewAttrSet(attrs...)))
		}
		w.Truth.Links = append(w.Truth.Links, *l)
	}
	// Dropped dimensions referenced by two or more facts leave join
	// evidence between the facts (the paper's Department–Assignment
	// pattern).
	for _, d := range dims {
		if !d.dropped || len(d.usedBy) < 2 {
			continue
		}
		var refs []*Link
		for _, l := range links {
			if l.Dim == d.name {
				refs = append(refs, l)
			}
		}
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if refs[i].Fact == refs[j].Fact {
					continue
				}
				join := deps.NewEquiJoin(
					deps.NewSide(refs[i].Fact, refs[i].FKs...),
					deps.NewSide(refs[j].Fact, refs[j].FKs...))
				addProgram(join, fmt.Sprintf("reconcile dropped %s", d.name))
			}
		}
		for _, l := range refs {
			w.Truth.HiddenRefs = append(w.Truth.HiddenRefs,
				relation.NewRef(l.Fact, l.FK))
		}
	}
	deps.SortINDs(w.Truth.ExpectedINDs)
	deps.SortFDs(w.Truth.ExpectedFDs)
	relation.SortRefs(w.Truth.HiddenRefs)
	return w, nil
}

// renderProgram writes one application program containing the join, in a
// rotating host language.
func renderProgram(idx int, join deps.EquiJoin, comment string) (string, string) {
	l, r := join.Left, join.Right
	cond := make([]string, len(l.Attrs))
	for i := range l.Attrs {
		cond[i] = fmt.Sprintf("x.%s = y.%s", l.Attrs[i], r.Attrs[i])
	}
	where := cond[0]
	for _, c := range cond[1:] {
		where += " AND " + c
	}
	variant := idx % 5
	if join.Arity() > 1 && variant > 2 {
		// The UPDATE/DELETE shapes spell the join through a
		// single-column IN subquery and cannot carry a composite
		// correspondence; fall back to a SELECT shape.
		variant = idx % 3
	}
	switch variant {
	case 0:
		src := fmt.Sprintf(`-- %s
SELECT x.%s
FROM %s x, %s y
WHERE %s;
`, comment, l.Attrs[0], l.Rel, r.Rel, where)
		return fmt.Sprintf("reports/prog%03d.sql", idx), src
	case 1:
		src := fmt.Sprintf(`000100 IDENTIFICATION DIVISION.
000200 PROGRAM-ID. PROG%03d.
000300* %s
000400 PROCEDURE DIVISION.
000500     EXEC SQL
000600         SELECT x.%s INTO :ws-out
000700         FROM %s x, %s y
000800         WHERE %s
000900     END-EXEC.
`, idx, comment, l.Attrs[0], l.Rel, r.Rel, where)
		return fmt.Sprintf("forms/prog%03d.cob", idx), src
	case 2:
		src := fmt.Sprintf(`/* %s */
#include <stdio.h>
int prog%03d(void) {
	char *q = "SELECT x.%s FROM %s x, %s y "
	          "WHERE %s";
	return run_query(q);
}
`, comment, idx, l.Attrs[0], l.Rel, r.Rel, where)
		return fmt.Sprintf("batch/prog%03d.c", idx), src
	case 3:
		// Maintenance batch: the join spelled through an IN subquery in
		// an UPDATE statement.
		src := fmt.Sprintf(`-- %s (maintenance)
UPDATE %s SET %s = %s WHERE %s IN (SELECT %s FROM %s);
`, comment, l.Rel, l.Attrs[0], l.Attrs[0], l.Attrs[0], r.Attrs[0], r.Rel)
		return fmt.Sprintf("batch/prog%03d.sql", idx), src
	default:
		// Purge batch: the join spelled through a DELETE with NOT IN is
		// NOT a join path (negation); use a plain IN instead.
		src := fmt.Sprintf(`-- %s (purge)
DELETE FROM %s WHERE %s IN (SELECT %s FROM %s WHERE %s IS NOT NULL);
`, comment, l.Rel, l.Attrs[0], r.Attrs[0], r.Rel, r.Attrs[0])
		return fmt.Sprintf("batch/prog%03d.sql", idx), src
	}
}
