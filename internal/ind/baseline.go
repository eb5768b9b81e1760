package ind

import (
	"context"
	"sort"

	"dbre/internal/deps"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/sketch"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// BaselineOptions configures the exhaustive data-driven discovery.
type BaselineOptions struct {
	// MaxArity bounds the generated IND arity; 1 tests only single
	// attributes, 2 additionally composes binary candidates from valid
	// unary ones (the MIND-style level-wise step).
	MaxArity int
	// TypePruning skips attribute pairs of different kinds, as any
	// practical discovery algorithm would.
	TypePruning bool
	// KeysOnlyRHS restricts right-hand sides to declared keys (a common
	// heuristic restriction when hunting foreign keys only).
	KeysOnlyRHS bool
	// Workers fans the per-attribute projection builds over a bounded
	// worker pool (stats.ForEach): 1 builds serially, ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// Sketch puts the approximate triage tier in front of the exact
	// containment kernel: instead of materializing every attribute's
	// distinct set up front, the unary pass consults per-column bottom-k
	// signatures and prunes candidates they refute with certainty (a
	// signature witness proves a value of the left side is absent from
	// the right — see sketch.RefuteContainment); only the surviving
	// candidates escalate to the exact kernel. Accepted INDs are
	// bit-identical to the exact-only run by construction — the tier can
	// only skip tests whose exact outcome is a proven rejection. The
	// split is surfaced via SketchPruned/SketchEscalated and the
	// sketch-prunes / sketch-escalations counters. Size and type pruning
	// use exact O(1) dictionary cardinalities, so the prune set is
	// unchanged. Row-engine tables have no sketches; their candidates all
	// escalate.
	Sketch bool
}

// DefaultBaselineOptions matches the usual unary-discovery setup.
func DefaultBaselineOptions() BaselineOptions {
	return BaselineOptions{MaxArity: 1, TypePruning: true}
}

// BaselineResult is the output of the exhaustive discovery.
type BaselineResult struct {
	INDs *deps.INDSet
	// CandidatesTested counts the containment tests actually performed
	// (after pruning); this is the work measure compared against
	// IND-Discovery's ExtensionQueries in the benchmarks.
	CandidatesTested int
	// CandidatesPruned counts pairs skipped by type/size pruning — and,
	// with Sketch, by certain signature refutation.
	CandidatesPruned int
	// SketchPruned / SketchEscalated split the post-size/type-pruning
	// unary candidates by triage outcome when Sketch is on: pruned ones
	// were refuted with certainty and never reached the exact kernel;
	// escalated ones did. SketchPruned + SketchEscalated equals the
	// exact-only run's unary CandidatesTested.
	SketchPruned    int
	SketchEscalated int
}

// attrInfo caches per-attribute discovery state.
type attrInfo struct {
	rel   string
	attr  string
	kind  value.Kind
	set   map[string]struct{}
	isKey bool
	// Sketch-mode state: the exact distinct cardinality (the dictionary
	// length — same number len(set) would have) and the column's
	// signature (nil on the row engine: always escalate).
	distinct int
	sig      *sketch.BottomK
}

// DiscoverBaseline performs exhaustive IND discovery against the extension
// alone — no application programs, no expert: every type-compatible ordered
// attribute pair is a candidate. This is the method the paper's
// query-guided elicitation is implicitly compared against.
func DiscoverBaseline(db *table.Database, opts BaselineOptions) (*BaselineResult, error) {
	return DiscoverBaselineCtx(context.Background(), db, opts)
}

// DiscoverBaselineCtx is DiscoverBaseline with observability threaded
// through the context: with a tracer installed (obs.NewContext) the
// sketch triage outcomes are published as the sketch-prunes and
// sketch-escalations counters. Untraced contexts cost nothing. Every
// projection build and containment test reads through one private
// statistics cache.
func DiscoverBaselineCtx(ctx context.Context, db *table.Database, opts BaselineOptions) (*BaselineResult, error) {
	if opts.MaxArity < 1 {
		opts.MaxArity = 1
	}
	res := &BaselineResult{INDs: deps.NewINDSet()}
	cache := stats.NewCache(db)

	var infos []*attrInfo
	for _, relName := range db.Catalog().Names() {
		schema := db.MustTable(relName).Schema()
		for _, a := range schema.Attrs {
			infos = append(infos, &attrInfo{
				rel:   relName,
				attr:  a.Name,
				kind:  a.Type,
				isKey: schema.IsKey(relation.NewAttrSet(a.Name)),
			})
		}
	}
	// The per-attribute scans are independent pure reads, so they run on
	// the shared worker kernel. The exact path materializes each
	// attribute's distinct set; the sketch path gets away with the O(1)
	// cardinality plus the column's incrementally maintained signature.
	errs := make([]error, len(infos))
	stats.ForEach(len(infos), opts.Workers, func(i int) {
		info := infos[i]
		if opts.Sketch {
			info.distinct, info.sig, errs[i] = attrTriageState(cache, info.rel, info.attr)
			return
		}
		info.set, errs[i] = cache.KeySet(info.rel, []string{info.attr})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].rel != infos[j].rel {
			return infos[i].rel < infos[j].rel
		}
		return infos[i].attr < infos[j].attr
	})

	// Unary pass.
	type unary struct{ li, ri int }
	var valid []unary
	for li, l := range infos {
		sizeL := l.size(opts.Sketch)
		for ri, r := range infos {
			if li == ri {
				continue
			}
			if opts.TypePruning && l.kind != r.kind {
				res.CandidatesPruned++
				continue
			}
			if opts.KeysOnlyRHS && !r.isKey {
				res.CandidatesPruned++
				continue
			}
			if sizeL == 0 || sizeL > r.size(opts.Sketch) {
				res.CandidatesPruned++
				continue
			}
			var holds bool
			if opts.Sketch {
				if sketch.RefuteContainment(l.sig, r.sig) {
					res.CandidatesPruned++
					res.SketchPruned++
					continue
				}
				res.CandidatesTested++
				res.SketchEscalated++
				var err error
				holds, err = cache.ContainedIn(l.rel, []string{l.attr}, r.rel, []string{r.attr})
				if err != nil {
					return nil, err
				}
			} else {
				res.CandidatesTested++
				holds = subset(l.set, r.set)
			}
			if holds {
				res.INDs.Add(deps.NewIND(
					deps.NewSide(l.rel, l.attr),
					deps.NewSide(r.rel, r.attr),
				))
				valid = append(valid, unary{li, ri})
			}
		}
	}
	if opts.Sketch {
		tr := obs.FromContext(ctx)
		tr.Add(obs.CtrSketchPrunes, int64(res.SketchPruned))
		tr.Add(obs.CtrSketchEscalations, int64(res.SketchEscalated))
	}

	// Level 2: compose binary candidates from unary ones sharing the same
	// relation pair, then test against the data (projection containment
	// is not implied by attribute-wise containment). The sketch tier has
	// no multi-column signatures, so this level is exact in both modes —
	// and identical, because the valid unary set feeding it is.
	if opts.MaxArity >= 2 {
		for i := 0; i < len(valid); i++ {
			for j := i + 1; j < len(valid); j++ {
				a, b := valid[i], valid[j]
				la, lb := infos[a.li], infos[b.li]
				ra, rb := infos[a.ri], infos[b.ri]
				if la.rel != lb.rel || ra.rel != rb.rel {
					continue
				}
				if la.attr == lb.attr || ra.attr == rb.attr {
					continue
				}
				res.CandidatesTested++
				holds, err := cache.ContainedIn(la.rel, []string{la.attr, lb.attr}, ra.rel, []string{ra.attr, rb.attr})
				if err != nil {
					return nil, err
				}
				if holds {
					res.INDs.Add(deps.NewIND(
						deps.NewSide(la.rel, la.attr, lb.attr),
						deps.NewSide(ra.rel, ra.attr, rb.attr),
					))
				}
			}
		}
	}
	return res, nil
}

// size is the attribute's distinct cardinality under either mode; the
// sketch path's exact dictionary count equals len(set) by construction,
// so size pruning is mode-independent.
func (a *attrInfo) size(sketchMode bool) int {
	if sketchMode {
		return a.distinct
	}
	return len(a.set)
}

// attrTriageState resolves the sketch-mode per-attribute state: the exact
// distinct count and the column signature (nil when the backing table is
// on the row engine, which has no sketches).
func attrTriageState(cache *stats.Cache, rel, attr string) (int, *sketch.BottomK, error) {
	distinct, err := cache.DistinctCount(rel, []string{attr})
	if err != nil {
		return 0, nil, err
	}
	col, err := cache.SketchColumn(rel, attr)
	if err != nil || col == nil {
		return distinct, nil, err
	}
	return distinct, col.Sig, nil
}

func subset(a, b map[string]struct{}) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// CandidateSpace reports the raw number of ordered unary attribute pairs a
// fully exhaustive search faces, before any pruning — the denominator of
// the efficiency comparison.
func CandidateSpace(db *table.Database) int {
	n := 0
	for _, name := range db.Catalog().Names() {
		s, _ := db.Catalog().Get(name)
		n += len(s.Attrs)
	}
	return n * (n - 1)
}
