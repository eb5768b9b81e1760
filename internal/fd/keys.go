package fd

import (
	"context"
	"fmt"
	"sort"

	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// KeyInferenceOptions configures candidate-key inference from data.
type KeyInferenceOptions struct {
	// MaxSize bounds the size of inferred keys.
	MaxSize int
	// RequireNotNull restricts key candidates to columns without NULLs
	// (a data-supported key with NULLs cannot be declared UNIQUE anyway).
	RequireNotNull bool
	// Stats is the column-statistics cache over the searched database
	// that every distinct count and NULL scan reads through (the
	// level-wise search re-counts many overlapping attribute sets, so the
	// reuse is substantial); nil gives the search a private
	// stats.NewCache(db).
	Stats *stats.Cache
}

// DefaultKeyInferenceOptions searches keys of up to three attributes over
// NULL-free columns.
func DefaultKeyInferenceOptions() KeyInferenceOptions {
	return KeyInferenceOptions{MaxSize: 3, RequireNotNull: true}
}

// InferKeys discovers the minimal attribute sets whose values are unique
// across the extension of relation rel — candidate keys supported by the
// data. The paper assumes UNIQUE declarations exist in the dictionary,
// but motivates the whole enterprise by noting that "old versions of
// DBMSs do not support such declarations"; this inference closes that gap
// so the pipeline can run against dictionaries with no declared keys at
// all.
//
// Only data-supported presumptions are returned; like every elicited
// dependency in the method, they should be validated by the expert user
// before being promoted to constraints.
func InferKeys(db *table.Database, rel string, opts KeyInferenceOptions) ([]relation.AttrSet, error) {
	if opts.MaxSize < 1 {
		opts.MaxSize = 1
	}
	cache := opts.Stats
	if cache == nil {
		cache = stats.NewCache(db)
	}
	tab := cache.TableFor(rel)
	if tab == nil {
		return nil, fmt.Errorf("fd: unknown relation %q", rel)
	}
	n := tab.Len()
	var attrs []string
	for _, a := range tab.Schema().Attrs {
		if opts.RequireNotNull {
			nonNull, err := cache.NonNullRows(rel, []string{a.Name})
			if err != nil {
				return nil, err
			}
			if nonNull < n {
				continue
			}
		}
		attrs = append(attrs, a.Name)
	}
	sort.Strings(attrs)

	var keys []relation.AttrSet
	coveredBy := func(x relation.AttrSet) bool {
		for _, k := range keys {
			if x.ContainsAll(k) {
				return true
			}
		}
		return false
	}
	for size := 1; size <= opts.MaxSize && size <= len(attrs); size++ {
		var level [][]string
		if err := combos(len(attrs), size, func(pick []int) error {
			names := make([]string, size)
			for i, p := range pick {
				names[i] = attrs[p]
			}
			level = append(level, names)
			return nil
		}); err != nil {
			return nil, err
		}
		for _, names := range level {
			x := relation.NewAttrSet(names...)
			if coveredBy(x) {
				continue // superset of a found key: not minimal
			}
			// Unique iff the distinct count over NULL-free rows equals
			// the number of NULL-free rows.
			distinct, err := cache.DistinctCount(rel, names)
			if err != nil {
				return nil, err
			}
			rows := n
			if !opts.RequireNotNull {
				if rows, err = cache.NonNullRows(rel, names); err != nil {
					return nil, err
				}
			}
			if distinct == rows && rows > 0 {
				keys = append(keys, x)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys, nil
}

// InferMissingKeysCtx runs key inference over every relation of the
// database that has no declared UNIQUE constraint, declares the smallest
// inferred key (ties broken lexicographically) as the relation's primary
// key, and returns what was declared. Relations with no data-supported key
// (or no data) are left untouched. Each keyless relation's level-wise
// search becomes an "infer-keys" child span of the context's current span;
// untraced contexts cost nothing.
func InferMissingKeysCtx(ctx context.Context, db *table.Database, opts KeyInferenceOptions) ([]relation.Ref, error) {
	if opts.Stats == nil {
		opts.Stats = stats.NewCache(db)
	}
	var declared []relation.Ref
	for _, name := range db.Catalog().Names() {
		schema, _ := db.Catalog().Get(name)
		if len(schema.Uniques) > 0 {
			continue
		}
		tab := db.MustTable(name)
		if tab.Len() == 0 {
			continue
		}
		_, sp := obs.StartSpan(ctx, "infer-keys")
		sp.SetAttr("relation", name)
		keys, err := InferKeys(db, name, opts)
		sp.SetInt("keys", int64(len(keys)))
		sp.End()
		if err != nil {
			return nil, err
		}
		if len(keys) == 0 {
			continue
		}
		best := keys[0] // Compare order: smallest first, then lexicographic
		if err := schema.AddUnique(best); err != nil {
			return nil, err
		}
		declared = append(declared, relation.Ref{Rel: name, Attrs: best})
	}
	return declared, nil
}
