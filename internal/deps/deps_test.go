package deps

import (
	"strings"
	"testing"

	"dbre/internal/relation"
)

func as(names ...string) relation.AttrSet { return relation.NewAttrSet(names...) }

func TestFDBasics(t *testing.T) {
	f := NewFD("Department", as("emp"), as("skill", "proj"))
	if f.String() != "Department: emp -> proj, skill" {
		t.Errorf("String = %q", f.String())
	}
	if f.IsTrivial() {
		t.Error("non-trivial FD reported trivial")
	}
	if !NewFD("R", as("a", "b"), as("a")).IsTrivial() {
		t.Error("trivial FD not reported")
	}
	if !f.Equal(NewFD("Department", as("emp"), as("proj", "skill"))) {
		t.Error("Equal insensitive to attr order failed")
	}
	if f.Equal(NewFD("Other", f.LHS, f.RHS)) {
		t.Error("Equal across relations")
	}
}

func TestSortFDs(t *testing.T) {
	fds := []FD{
		NewFD("B", as("x"), as("y")),
		NewFD("A", as("z"), as("y")),
		NewFD("A", as("a"), as("y")),
	}
	SortFDs(fds)
	if fds[0].Rel != "A" || !fds[0].LHS.Equal(as("a")) || fds[2].Rel != "B" {
		t.Errorf("SortFDs = %v", fds)
	}
}

func TestSideAndIND(t *testing.T) {
	d := NewIND(NewSide("HEmployee", "no"), NewSide("Person", "id"))
	if d.String() != "HEmployee[no] << Person[id]" {
		t.Errorf("String = %q", d.String())
	}
	// Order of attributes matters for sides.
	a := NewSide("R", "x", "y")
	b := NewSide("R", "y", "x")
	if a.Equal(b) {
		t.Error("ordered sides compared as sets")
	}
	if got := a.Ref(); !got.Attrs.Equal(as("x", "y")) || got.Rel != "R" {
		t.Errorf("Ref = %v", got)
	}
}

func TestINDSet(t *testing.T) {
	d1 := NewIND(NewSide("A", "x"), NewSide("B", "y"))
	d2 := NewIND(NewSide("B", "y"), NewSide("A", "x")) // reverse is distinct
	s := NewINDSet(d1, d1, d2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(d1) || !s.Contains(d2) {
		t.Error("Contains failed")
	}
	if s.Add(d1) {
		t.Error("duplicate Add succeeded")
	}
	cl := s.Clone()
	cl.Add(NewIND(NewSide("C", "z"), NewSide("B", "y")))
	if s.Len() != 2 {
		t.Error("Clone shares storage")
	}
	if !strings.Contains(s.String(), "A[x] << B[y]") {
		t.Errorf("String = %q", s.String())
	}
}

func TestEquiJoinCanonical(t *testing.T) {
	q1 := NewEquiJoin(NewSide("Person", "id"), NewSide("HEmployee", "no"))
	q2 := NewEquiJoin(NewSide("HEmployee", "no"), NewSide("Person", "id"))
	if q1.Key() != q2.Key() {
		t.Error("swapped joins have different keys")
	}
	// Multi-attribute pair reordering.
	q3 := NewEquiJoin(NewSide("R", "b", "a"), NewSide("S", "y", "x"))
	q4 := NewEquiJoin(NewSide("R", "a", "b"), NewSide("S", "x", "y"))
	if q3.Key() != q4.Key() {
		t.Error("pair reordering not canonicalized")
	}
	// Positional correspondence preserved: (a-y, b-x) differs from (a-x, b-y).
	q5 := NewEquiJoin(NewSide("R", "a", "b"), NewSide("S", "y", "x"))
	if q4.Key() == q5.Key() {
		t.Error("different correspondences compared equal")
	}
	if got := q1.String(); got != "Person[id] |><| HEmployee[no]" {
		t.Errorf("String = %q", got)
	}
}

func TestJoinSet(t *testing.T) {
	q1 := NewEquiJoin(NewSide("A", "x"), NewSide("B", "y"))
	q1r := NewEquiJoin(NewSide("B", "y"), NewSide("A", "x"))
	s := NewJoinSet(q1, q1r)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, joins not canonicalized", s.Len())
	}
	if !s.Contains(q1r) {
		t.Error("Contains failed")
	}
	s.Add(NewEquiJoin(NewSide("C", "z"), NewSide("B", "y")))
	if s.Len() != 2 {
		t.Error("distinct join not added")
	}
	sorted := s.Sorted()
	if len(sorted) != 2 || sorted[0].Left.Rel > sorted[1].Left.Rel {
		t.Errorf("Sorted = %v", sorted)
	}
	if !strings.Contains(s.String(), "|><|") {
		t.Errorf("String = %q", s.String())
	}
}
