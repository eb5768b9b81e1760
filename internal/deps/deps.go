// Package deps defines functional dependencies, inclusion dependencies and
// equi-joins — the Δ = (F ∪ IND) of the paper — together with the classical
// dependency theory (attribute closure, minimal cover, candidate keys,
// normal forms) the restructuring phase relies on.
package deps

import (
	"fmt"
	"sort"
	"strings"

	"dbre/internal/relation"
)

// FD is a functional dependency R : LHS → RHS over a single relation.
type FD struct {
	Rel string
	LHS relation.AttrSet
	RHS relation.AttrSet
}

// NewFD builds a functional dependency.
func NewFD(rel string, lhs, rhs relation.AttrSet) FD {
	return FD{Rel: rel, LHS: lhs, RHS: rhs}
}

// IsTrivial reports whether RHS ⊆ LHS.
func (f FD) IsTrivial() bool { return f.LHS.ContainsAll(f.RHS) }

// Equal reports structural equality.
func (f FD) Equal(o FD) bool {
	return f.Rel == o.Rel && f.LHS.Equal(o.LHS) && f.RHS.Equal(o.RHS)
}

// Compare orders FDs deterministically (relation, LHS, RHS).
func (f FD) Compare(o FD) int {
	if c := strings.Compare(f.Rel, o.Rel); c != 0 {
		return c
	}
	if c := f.LHS.Compare(o.LHS); c != 0 {
		return c
	}
	return f.RHS.Compare(o.RHS)
}

// String renders the FD in the paper's "R: X → Y" notation (ASCII arrow).
func (f FD) String() string {
	lhs := strings.Join(f.LHS.Names(), ", ")
	rhs := strings.Join(f.RHS.Names(), ", ")
	return fmt.Sprintf("%s: %s -> %s", f.Rel, lhs, rhs)
}

// SortFDs orders a slice of FDs deterministically in place.
func SortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool { return fds[i].Compare(fds[j]) < 0 })
}

// Side is one side of an inclusion dependency or equi-join: a relation name
// plus an *ordered* attribute list (order carries the positional
// correspondence between the two sides).
type Side struct {
	Rel   string
	Attrs []string
}

// NewSide builds a side.
func NewSide(rel string, attrs ...string) Side {
	return Side{Rel: rel, Attrs: append([]string{}, attrs...)}
}

// Equal reports equality of relation and ordered attribute list.
func (s Side) Equal(o Side) bool {
	if s.Rel != o.Rel || len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

// Ref converts the side to an unordered qualified attribute set.
func (s Side) Ref() relation.Ref {
	return relation.Ref{Rel: s.Rel, Attrs: relation.NewAttrSet(s.Attrs...)}
}

// String renders "R[a, b]".
func (s Side) String() string {
	return s.Rel + "[" + strings.Join(s.Attrs, ", ") + "]"
}

func (s Side) key() string { return s.Rel + "\x01" + strings.Join(s.Attrs, "\x00") }

// compare orders sides by relation, then attribute list element by
// element with a proper prefix first — the order of the lists joined
// with NUL separators, without building the joined strings.
func (s Side) compare(o Side) int {
	if c := strings.Compare(s.Rel, o.Rel); c != 0 {
		return c
	}
	for i := 0; i < len(s.Attrs) && i < len(o.Attrs); i++ {
		if c := strings.Compare(s.Attrs[i], o.Attrs[i]); c != 0 {
			return c
		}
	}
	return len(s.Attrs) - len(o.Attrs)
}

// IND is an inclusion dependency Left ≪ Right: the projection of the left
// relation on its attributes is contained in the projection of the right
// relation on its attributes, positionally.
type IND struct {
	Left  Side
	Right Side
}

// NewIND builds an inclusion dependency.
func NewIND(left, right Side) IND { return IND{Left: left, Right: right} }

// Equal reports structural equality.
func (d IND) Equal(o IND) bool { return d.Left.Equal(o.Left) && d.Right.Equal(o.Right) }

// String renders "R[a] << S[b]" (ASCII for the paper's ≪).
func (d IND) String() string { return d.Left.String() + " << " + d.Right.String() }

// Key returns a canonical map key.
func (d IND) Key() string { return d.Left.key() + "\x02" + d.Right.key() }

// Compare orders INDs deterministically.
func (d IND) Compare(o IND) int {
	if c := d.Left.compare(o.Left); c != 0 {
		return c
	}
	return d.Right.compare(o.Right)
}

// SortINDs orders a slice of INDs deterministically in place.
func SortINDs(inds []IND) {
	sort.Slice(inds, func(i, j int) bool { return inds[i].Compare(inds[j]) < 0 })
}

// INDSet is an insertion-ordered, duplicate-free set of INDs, mirroring the
// paper's IND which is built with ⊔ (disjoint union) and later rewritten by
// the Restruct algorithm.
type INDSet struct {
	inds []IND
	keys map[string]bool
}

// NewINDSet builds a set from the given INDs, ignoring duplicates.
func NewINDSet(inds ...IND) *INDSet {
	s := &INDSet{keys: make(map[string]bool)}
	for _, d := range inds {
		s.Add(d)
	}
	return s
}

// Add inserts the IND unless an equal one is present; it reports whether it
// was inserted.
func (s *INDSet) Add(d IND) bool {
	k := d.Key()
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	s.inds = append(s.inds, d)
	return true
}

// Contains reports membership.
func (s *INDSet) Contains(d IND) bool { return s.keys[d.Key()] }

// Len reports the number of INDs.
func (s *INDSet) Len() int { return len(s.inds) }

// All returns the INDs in insertion order; the caller must not modify them.
func (s *INDSet) All() []IND { return s.inds }

// Sorted returns the INDs in canonical order.
func (s *INDSet) Sorted() []IND {
	out := append([]IND{}, s.inds...)
	SortINDs(out)
	return out
}

// Clone returns a copy of the set.
func (s *INDSet) Clone() *INDSet { return NewINDSet(s.inds...) }

// String renders the set one IND per line, in insertion order.
func (s *INDSet) String() string {
	parts := make([]string, len(s.inds))
	for i, d := range s.inds {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// EquiJoin is one element of the paper's set Q: an equi-join
// R_k[A_k] ⋈ R_l[A_l] extracted from an application program. The sides are
// positional: Left.Attrs[i] is compared with Right.Attrs[i].
type EquiJoin struct {
	Left  Side
	Right Side
}

// NewEquiJoin builds an equi-join.
func NewEquiJoin(left, right Side) EquiJoin { return EquiJoin{Left: left, Right: right} }

// Canonical returns the equi-join with its sides and attribute pairs in a
// canonical order, so that syntactically different spellings of the same
// join compare equal. Pairs are sorted by (left attr, right attr); sides
// are ordered by (relation, attrs).
func (q EquiJoin) Canonical() EquiJoin {
	type pair struct{ l, r string }
	pairs := make([]pair, len(q.Left.Attrs))
	for i := range q.Left.Attrs {
		pairs[i] = pair{q.Left.Attrs[i], q.Right.Attrs[i]}
	}
	left, right := q.Left, q.Right
	if left.compare(right) > 0 {
		left, right = right, left
		for i := range pairs {
			pairs[i] = pair{pairs[i].r, pairs[i].l}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].l != pairs[j].l {
			return pairs[i].l < pairs[j].l
		}
		return pairs[i].r < pairs[j].r
	})
	la := make([]string, len(pairs))
	ra := make([]string, len(pairs))
	for i, p := range pairs {
		la[i], ra[i] = p.l, p.r
	}
	return EquiJoin{Left: Side{Rel: left.Rel, Attrs: la}, Right: Side{Rel: right.Rel, Attrs: ra}}
}

// Arity is the number of attribute pairs compared by the join.
func (q EquiJoin) Arity() int { return len(q.Left.Attrs) }

// String renders "R[a] |><| S[b]" (ASCII bowtie).
func (q EquiJoin) String() string { return q.Left.String() + " |><| " + q.Right.String() }

// Key returns a canonical map key (canonicalized first).
func (q EquiJoin) Key() string { return q.Canonical().key() }

// key is Key of an already canonical join.
func (q EquiJoin) key() string { return q.Left.key() + "\x02" + q.Right.key() }

// JoinSet is a duplicate-free set of equi-joins — the paper's Q.
type JoinSet struct {
	joins []EquiJoin
	keys  map[string]bool
}

// NewJoinSet builds a set from the given joins, ignoring duplicates (up to
// canonicalization).
func NewJoinSet(joins ...EquiJoin) *JoinSet {
	s := &JoinSet{keys: make(map[string]bool)}
	for _, q := range joins {
		s.Add(q)
	}
	return s
}

// Add inserts the join unless an equivalent one is present.
func (s *JoinSet) Add(q EquiJoin) bool {
	k := q.Key()
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	s.joins = append(s.joins, q)
	return true
}

// Contains reports membership up to canonicalization.
func (s *JoinSet) Contains(q EquiJoin) bool { return s.keys[q.Key()] }

// Len reports the number of joins.
func (s *JoinSet) Len() int { return len(s.joins) }

// Sorted returns the joins, canonicalized, in key order. Each join is
// canonicalized and keyed once, so the cost is linear in the set size
// plus the comparisons of cached keys.
func (s *JoinSet) Sorted() []EquiJoin {
	type keyed struct {
		key string
		q   EquiJoin
	}
	ks := make([]keyed, len(s.joins))
	for i, q := range s.joins {
		c := q.Canonical()
		ks[i] = keyed{c.key(), c}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]EquiJoin, len(ks))
	for i, k := range ks {
		out[i] = k.q
	}
	return out
}

// String renders the set one join per line.
func (s *JoinSet) String() string {
	parts := make([]string, len(s.joins))
	for i, q := range s.joins {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}
