package ind

import (
	"sort"

	"dbre/internal/deps"
	"dbre/internal/relation"
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
	// CandidatesPruned counts pairs skipped by type/size pruning.
	CandidatesPruned int
}

// attrInfo caches per-attribute discovery state.
type attrInfo struct {
	rel   string
	attr  string
	kind  value.Kind
	set   map[string]struct{}
	isKey bool
}

// DiscoverBaseline performs exhaustive IND discovery against the extension
// alone — no application programs, no expert: every type-compatible ordered
// attribute pair is a candidate. This is the method the paper's
// query-guided elicitation is implicitly compared against. Every
// projection build and containment test reads through one private
// statistics cache.
func DiscoverBaseline(db *table.Database, opts BaselineOptions) (*BaselineResult, error) {
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
	// the shared worker kernel, each materializing one distinct set.
	errs := make([]error, len(infos))
	stats.ForEach(len(infos), opts.Workers, func(i int) {
		info := infos[i]
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
		sizeL := len(l.set)
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
			if sizeL == 0 || sizeL > len(r.set) {
				res.CandidatesPruned++
				continue
			}
			res.CandidatesTested++
			if subset(l.set, r.set) {
				res.INDs.Add(deps.NewIND(
					deps.NewSide(l.rel, l.attr),
					deps.NewSide(r.rel, r.attr),
				))
				valid = append(valid, unary{li, ri})
			}
		}
	}

	// Level 2: compose binary candidates from unary ones sharing the same
	// relation pair, then test against the data (projection containment
	// is not implied by attribute-wise containment).
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
