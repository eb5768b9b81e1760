package deps

import (
	"sort"

	"dbre/internal/relation"
)

// Closure computes the attribute closure X+ of attrs under the FDs of a
// single relation (FDs whose Rel differs are ignored; pass rel == "" to use
// all FDs regardless of relation, which is convenient in tests).
func Closure(rel string, attrs relation.AttrSet, fds []FD) relation.AttrSet {
	closure := attrs
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			if rel != "" && f.Rel != rel {
				continue
			}
			if closure.ContainsAll(f.LHS) && !closure.ContainsAll(f.RHS) {
				closure = closure.Union(f.RHS)
				changed = true
			}
		}
	}
	return closure
}

// Implies reports whether the given FD is a logical consequence of fds
// (Armstrong derivability, decided via attribute closure).
func Implies(fds []FD, f FD) bool {
	return Closure(f.Rel, f.LHS, fds).ContainsAll(f.RHS)
}

// MinimalCover computes a minimal (canonical) cover of the FDs of one
// relation: singleton right-hand sides, no extraneous left-hand-side
// attributes, no redundant dependencies. The result is deterministic.
func MinimalCover(fds []FD) []FD {
	// 1. Split right-hand sides into singletons and drop trivial FDs.
	var work []FD
	for _, f := range fds {
		for _, b := range f.RHS.Minus(f.LHS).Names() {
			work = append(work, FD{Rel: f.Rel, LHS: f.LHS, RHS: relation.NewAttrSet(b)})
		}
	}
	SortFDs(work)
	// 2. Remove extraneous LHS attributes.
	for i := range work {
		f := work[i]
		for _, a := range f.LHS.Names() {
			if f.LHS.Len() == 1 {
				break
			}
			reduced := f.LHS.Minus(relation.NewAttrSet(a))
			if Closure(f.Rel, reduced, work).ContainsAll(f.RHS) {
				f = FD{Rel: f.Rel, LHS: reduced, RHS: f.RHS}
				work[i] = f
			}
		}
	}
	// 3. Remove redundant FDs.
	var out []FD
	for i := range work {
		rest := make([]FD, 0, len(work)-1)
		rest = append(rest, out...)
		rest = append(rest, work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	// Dedup (step 2 can create duplicates).
	SortFDs(out)
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || !f.Equal(out[i-1]) {
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// IsSuperkey reports whether attrs functionally determines all attributes
// of the relation under fds.
func IsSuperkey(rel string, attrs, all relation.AttrSet, fds []FD) bool {
	return Closure(rel, attrs, fds).ContainsAll(all)
}

// CandidateKeys computes all candidate keys of a relation with attribute
// set all under fds. It uses the standard core/exterior reduction: the
// attributes appearing in no RHS belong to every key. The search is
// breadth-first over the remaining attributes, pruning supersets of found
// keys, and is intended for the at-most-a-few-dozen-attribute relations of
// the domain.
func CandidateKeys(rel string, all relation.AttrSet, fds []FD) []relation.AttrSet {
	var rhsAll relation.AttrSet
	for _, f := range fds {
		if rel != "" && f.Rel != rel {
			continue
		}
		rhsAll = rhsAll.Union(f.RHS.Minus(f.LHS))
	}
	core := all.Minus(rhsAll) // in every key
	if IsSuperkey(rel, core, all, fds) {
		return []relation.AttrSet{core}
	}
	rest := all.Minus(core).Names()
	var keys []relation.AttrSet
	isSupersetOfKey := func(s relation.AttrSet) bool {
		for _, k := range keys {
			if s.ContainsAll(k) {
				return true
			}
		}
		return false
	}
	// Level-wise over subset size of `rest`.
	for size := 1; size <= len(rest); size++ {
		combos(len(rest), size, func(pick []int) {
			names := append([]string{}, core.Names()...)
			for _, i := range pick {
				names = append(names, rest[i])
			}
			cand := relation.NewAttrSet(names...)
			if isSupersetOfKey(cand) {
				return
			}
			if IsSuperkey(rel, cand, all, fds) {
				keys = append(keys, cand)
			}
		})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys
}

// combos invokes fn for every size-k index combination of [0,n).
func combos(n, k int, fn func([]int)) {
	if k > n {
		return
	}
	pick := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(pick)
			return
		}
		for i := start; i < n; i++ {
			pick[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// NormalForm is the highest classical normal form a relation satisfies.
type NormalForm int

// Normal forms in increasing strength. NF1 is assumed (the paper requires
// at least 1NF: atomic attributes).
const (
	NF1 NormalForm = iota + 1
	NF2
	NF3
	BCNF
)

// String renders "1NF" … "BCNF".
func (n NormalForm) String() string {
	switch n {
	case NF1:
		return "1NF"
	case NF2:
		return "2NF"
	case NF3:
		return "3NF"
	case BCNF:
		return "BCNF"
	default:
		return "?NF"
	}
}

// primeAttrs returns the attributes belonging to some candidate key.
func primeAttrs(keys []relation.AttrSet) relation.AttrSet {
	var p relation.AttrSet
	for _, k := range keys {
		p = p.Union(k)
	}
	return p
}

// Analyze classifies the relation (attribute set all, FD set fds over it)
// into its highest normal form. Declared keys may be passed to seed the
// candidate-key computation; they are recomputed from the FDs regardless,
// with each declared key contributing a key FD.
func Analyze(rel string, all relation.AttrSet, declaredKeys []relation.AttrSet, fds []FD) NormalForm {
	work := append([]FD{}, fds...)
	for _, k := range declaredKeys {
		work = append(work, FD{Rel: rel, LHS: k, RHS: all})
	}
	keys := CandidateKeys(rel, all, work)
	prime := primeAttrs(keys)

	isSuper := func(x relation.AttrSet) bool { return IsSuperkey(rel, x, all, work) }

	bcnf, nf3, nf2 := true, true, true
	for _, f := range MinimalCover(work) {
		if f.IsTrivial() {
			continue
		}
		if !isSuper(f.LHS) {
			bcnf = false
			for _, b := range f.RHS.Minus(f.LHS).Names() {
				if !prime.Contains(b) {
					nf3 = false
					// 2NF violation: a non-prime attribute partially
					// depends on a candidate key (LHS strictly inside
					// some key).
					for _, k := range keys {
						if k.ContainsAll(f.LHS) && !k.Equal(f.LHS) {
							nf2 = false
						}
					}
				}
			}
		}
	}
	switch {
	case bcnf:
		return BCNF
	case nf3:
		return NF3
	case nf2:
		return NF2
	default:
		return NF1
	}
}
