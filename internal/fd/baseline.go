package fd

import (
	"sort"
	"strings"

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
// RHS-Discovery's handful of targeted checks. The only error is a lazily
// restored column of tab that fails to load.
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

	// π_X is a row → group vector over the production refiner
	// (table.Refiner.Step), with its group count. TANE's e(X) is rows −
	// |π_X|, so X → a holds iff refining π_X by a leaves the group count
	// unchanged. Each attribute's codes remap NULL (−1) to a fresh code:
	// NULL is a regular value here (data-mining semantics), where the
	// refiner would otherwise drop the row.
	if err := tab.Preload(); err != nil {
		return nil, err
	}
	n := tab.Len()
	codes := make(map[string][]int32, len(attrs))
	dict := make(map[string]int, len(attrs))
	for _, a := range attrs {
		c, _ := tab.ColIndex(a)
		codes[a], dict[a] = nullAsValue(tab.ColumnCodes(c))
	}
	type partition struct {
		g      []int32
		groups int
	}
	// parts caches π_X for |X| ≤ MaxLHS, keyed by X's sorted names, each
	// refined from π of X without its last name; the empty set is the
	// one group of every row.
	parts := map[string]partition{"": {make([]int32, n), min(n, 1)}}
	var r table.Refiner
	var part func(names []string) partition
	part = func(names []string) partition {
		k := strings.Join(names, "\x00")
		p, ok := parts[k]
		if !ok {
			last := names[len(names)-1]
			parent := part(names[:len(names)-1])
			p.g = make([]int32, n)
			p.groups, _ = r.Step(p.g, parent.g, codes[last], parent.groups, dict[last])
			parts[k] = p
		}
		return p
	}
	scratch := make([]int32, n)

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
		_ = combos(len(attrs), size, func(pick []int) error { // never fails
			names := make([]string, size)
			for i, p := range pick {
				names[i] = attrs[p]
			}
			x := relation.NewAttrSet(names...)
			px := part(names)
			for _, a := range attrs {
				if x.Contains(a) {
					continue
				}
				if hasSubsetLHS(a, x) {
					res.CandidatesPruned++
					continue // a smaller LHS already determines a
				}
				res.CandidatesTested++
				if groups, _ := r.Step(scratch, px.g, codes[a], px.groups, dict[a]); groups == px.groups {
					res.FDs = append(res.FDs, deps.NewFD(schema.Name, x, relation.NewAttrSet(a)))
					minimalLHS[a] = append(minimalLHS[a], x)
				}
			}
			return nil
		})
	}
	deps.SortFDs(res.FDs)
	return res, nil
}

// nullAsValue copies a column's code vector with NULL (−1) remapped to
// one fresh code, and returns it with the number of codes it uses.
func nullAsValue(codes []int32) ([]int32, int) {
	null := int32(0)
	for _, c := range codes {
		null = max(null, c+1)
	}
	out := make([]int32, len(codes))
	for i, c := range codes {
		if c < 0 {
			c = null
		}
		out[i] = c
	}
	return out, int(null) + 1
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
