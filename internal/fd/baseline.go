package fd

import (
	"sort"

	"dbre/internal/deps"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// BaselineOptions configures the exhaustive level-wise FD discovery.
type BaselineOptions struct {
	// MaxLHS bounds the left-hand-side size searched (TANE levels).
	MaxLHS int
	// SkipKeys removes declared key attributes from left-hand-side
	// candidates: their dependencies are already known from K.
	SkipKeys bool
	// Workers fans DiscoverBaselineAll over a bounded worker pool
	// (stats.ForEach), one task per relation: 1 runs serially, ≤ 0
	// selects GOMAXPROCS. Per-relation results are aggregated in catalog
	// order, so the output is identical.
	Workers int
}

// DefaultBaselineOptions searches up to two-attribute left-hand sides.
func DefaultBaselineOptions() BaselineOptions { return BaselineOptions{MaxLHS: 2} }

// BaselineResult is the output of the exhaustive discovery on one relation.
type BaselineResult struct {
	// FDs holds the minimal functional dependencies found (singleton
	// right-hand sides).
	FDs []deps.FD
	// CandidatesTested counts the X → a partition checks performed.
	CandidatesTested int
	// CandidatesPruned counts candidates skipped through the minimality
	// pruning rule.
	CandidatesPruned int
}

// DiscoverBaseline performs a level-wise, partition-based search for all
// minimal functional dependencies X → a with |X| ≤ MaxLHS on one relation —
// the data-only discovery à la TANE / Mannila & Räihä that needs no
// application programs. The benchmarks compare its candidate count with
// RHS-Discovery's handful of targeted checks.
func DiscoverBaseline(tab *table.Table, opts BaselineOptions) (*BaselineResult, error) {
	if opts.MaxLHS < 1 {
		opts.MaxLHS = 1
	}
	res := &BaselineResult{}
	schema := tab.Schema()

	var attrs []string
	keyAttrs := relation.AttrSet{}
	for _, u := range schema.Uniques {
		keyAttrs = keyAttrs.Union(u)
	}
	for _, a := range schema.Attrs {
		if opts.SkipKeys && keyAttrs.Contains(a.Name) {
			continue
		}
		attrs = append(attrs, a.Name)
	}
	sort.Strings(attrs)

	// Partitions are cached per attribute set, built by refinement from
	// the previous level.
	parts := make(map[string]*Partition)
	partition := func(set relation.AttrSet) (*Partition, error) {
		if p, ok := parts[set.Key()]; ok {
			return p, nil
		}
		// Refine from a one-smaller cached subset when possible.
		names := set.Names()
		if len(names) > 1 {
			smaller := set.Minus(relation.NewAttrSet(names[len(names)-1]))
			if p, ok := parts[smaller.Key()]; ok {
				ref, err := p.Refine(tab, names[len(names)-1])
				if err != nil {
					return nil, err
				}
				parts[set.Key()] = ref
				return ref, nil
			}
		}
		p, err := NewPartition(tab, names)
		if err != nil {
			return nil, err
		}
		parts[set.Key()] = p
		return p, nil
	}

	// minimalLHS[a] lists the minimal left-hand sides found so far for a.
	minimalLHS := make(map[string][]relation.AttrSet)
	hasSubsetLHS := func(a string, x relation.AttrSet) bool {
		for _, m := range minimalLHS[a] {
			if x.ContainsAll(m) {
				return true
			}
		}
		return false
	}

	for size := 1; size <= opts.MaxLHS && size < len(attrs); size++ {
		err := combos(len(attrs), size, func(pick []int) error {
			names := make([]string, size)
			for i, p := range pick {
				names[i] = attrs[p]
			}
			x := relation.NewAttrSet(names...)
			px, err := partition(x)
			if err != nil {
				return err
			}
			for _, a := range attrs {
				if x.Contains(a) {
					continue
				}
				if hasSubsetLHS(a, x) {
					res.CandidatesPruned++
					continue // a smaller LHS already determines a
				}
				res.CandidatesTested++
				pxa, err := partition(x.Add(a))
				if err != nil {
					return err
				}
				if RefinesTo(px, pxa) {
					res.FDs = append(res.FDs, deps.NewFD(schema.Name, x, relation.NewAttrSet(a)))
					minimalLHS[a] = append(minimalLHS[a], x)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	deps.SortFDs(res.FDs)
	return res, nil
}

// combos invokes fn for every size-k index combination of [0,n), stopping
// on error.
func combos(n, k int, fn func([]int) error) error {
	if k > n {
		return nil
	}
	pick := make([]int, k)
	var rec func(start, depth int) error
	rec = func(start, depth int) error {
		if depth == k {
			return fn(pick)
		}
		for i := start; i < n; i++ {
			pick[depth] = i
			if err := rec(i+1, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0)
}

// DiscoverBaselineAll runs the exhaustive discovery over every relation of
// the database and aggregates the counters. Relations are independent, so
// with opts.Workers > 1 they run on the shared worker kernel; aggregation
// stays in catalog order either way.
func DiscoverBaselineAll(db *table.Database, opts BaselineOptions) (*BaselineResult, error) {
	names := db.Catalog().Names()
	results := make([]*BaselineResult, len(names))
	errs := make([]error, len(names))
	stats.ForEach(len(names), opts.Workers, func(i int) {
		results[i], errs[i] = DiscoverBaseline(db.MustTable(names[i]), opts)
	})
	agg := &BaselineResult{}
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		agg.FDs = append(agg.FDs, r.FDs...)
		agg.CandidatesTested += r.CandidatesTested
		agg.CandidatesPruned += r.CandidatesPruned
	}
	deps.SortFDs(agg.FDs)
	return agg, nil
}
