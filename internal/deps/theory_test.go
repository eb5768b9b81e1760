package deps

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dbre/internal/relation"
)

func TestClosure(t *testing.T) {
	fds := []FD{
		NewFD("R", as("a"), as("b")),
		NewFD("R", as("b"), as("c")),
		NewFD("R", as("c", "d"), as("e")),
	}
	cases := []struct {
		start relation.AttrSet
		want  relation.AttrSet
	}{
		{as("a"), as("a", "b", "c")},
		{as("a", "d"), as("a", "b", "c", "d", "e")},
		{as("e"), as("e")},
		{as(), as()},
	}
	for _, c := range cases {
		if got := Closure("R", c.start, fds); !got.Equal(c.want) {
			t.Errorf("Closure(%v) = %v, want %v", c.start, got, c.want)
		}
	}
	// Relation filter: FDs of other relations don't apply.
	if got := Closure("S", as("a"), fds); !got.Equal(as("a")) {
		t.Errorf("cross-relation closure = %v", got)
	}
	// Empty rel means all FDs apply.
	if got := Closure("", as("a"), fds); !got.Equal(as("a", "b", "c")) {
		t.Errorf("wildcard closure = %v", got)
	}
}

func TestImplies(t *testing.T) {
	fds := []FD{
		NewFD("R", as("a"), as("b")),
		NewFD("R", as("b"), as("c")),
	}
	if !Implies(fds, NewFD("R", as("a"), as("c"))) {
		t.Error("transitivity not derived")
	}
	if !Implies(fds, NewFD("R", as("a", "z"), as("b"))) {
		t.Error("augmentation not derived")
	}
	if Implies(fds, NewFD("R", as("c"), as("a"))) {
		t.Error("reverse wrongly derived")
	}
	if !Implies(nil, NewFD("R", as("a", "b"), as("a"))) {
		t.Error("reflexivity not derived")
	}
}

// equivalentCovers reports whether two FD sets over the same relation
// imply each other: the reference MinimalCover's result is checked against.
func equivalentCovers(a, b []FD) bool {
	for _, f := range a {
		if !Implies(b, f) {
			return false
		}
	}
	for _, f := range b {
		if !Implies(a, f) {
			return false
		}
	}
	return true
}

func TestMinimalCover(t *testing.T) {
	// Classic example: redundant and extraneous parts.
	fds := []FD{
		NewFD("R", as("a"), as("b", "c")),
		NewFD("R", as("b"), as("c")),
		NewFD("R", as("a", "b"), as("c")), // redundant, extraneous b
		NewFD("R", as("a"), as("a")),      // trivial
	}
	mc := MinimalCover(fds)
	if !equivalentCovers(fds, mc) {
		t.Fatalf("cover not equivalent: %v", mc)
	}
	for _, f := range mc {
		if f.RHS.Len() != 1 {
			t.Errorf("non-singleton RHS: %v", f)
		}
		if f.IsTrivial() {
			t.Errorf("trivial FD kept: %v", f)
		}
	}
	if len(mc) != 2 { // a→b, b→c (a→c derivable)
		t.Errorf("MinimalCover = %v, want 2 FDs", mc)
	}
}

func TestCandidateKeys(t *testing.T) {
	// R(a,b,c,d) with a→b, b→c: keys must contain a and d.
	fds := []FD{
		NewFD("R", as("a"), as("b")),
		NewFD("R", as("b"), as("c")),
	}
	keys := CandidateKeys("R", as("a", "b", "c", "d"), fds)
	if len(keys) != 1 || !keys[0].Equal(as("a", "d")) {
		t.Errorf("CandidateKeys = %v", keys)
	}
	// Cyclic: a→b, b→a over R(a,b): two keys.
	fds2 := []FD{
		NewFD("R", as("a"), as("b")),
		NewFD("R", as("b"), as("a")),
	}
	keys2 := CandidateKeys("R", as("a", "b"), fds2)
	if len(keys2) != 2 {
		t.Errorf("cyclic CandidateKeys = %v", keys2)
	}
	// No FDs: the whole attribute set is the key.
	keys3 := CandidateKeys("R", as("a", "b"), nil)
	if len(keys3) != 1 || !keys3[0].Equal(as("a", "b")) {
		t.Errorf("no-FD CandidateKeys = %v", keys3)
	}
}

func TestNormalFormString(t *testing.T) {
	if NF1.String() != "1NF" || NF2.String() != "2NF" || NF3.String() != "3NF" || BCNF.String() != "BCNF" {
		t.Error("NormalForm strings wrong")
	}
	if NormalForm(0).String() != "?NF" {
		t.Error("unknown NF string")
	}
}

// The paper's Section 5 comments each relation with its normal form:
// Person 2NF (zip-code → state), HEmployee 3NF, Department 2NF
// (emp → skill, proj partial? emp is non-key → transitive), Assignment 1NF
// (proj → project-name with proj ⊂ key).
func TestAnalyzePaperRelations(t *testing.T) {
	cases := []struct {
		name string
		all  relation.AttrSet
		keys []relation.AttrSet
		fds  []FD
		want NormalForm
	}{
		{
			"Person", as("id", "name", "street", "number", "zip-code", "state"),
			[]relation.AttrSet{as("id")},
			[]FD{NewFD("Person", as("zip-code"), as("state"))},
			NF2, // transitive dependency id → zip-code → state
		},
		{
			"HEmployee", as("no", "date", "salary"),
			[]relation.AttrSet{as("no", "date")},
			nil,
			BCNF, // no extra FDs: at least 3NF (paper says 3NF)
		},
		{
			"Department", as("dep", "emp", "skill", "location", "proj"),
			[]relation.AttrSet{as("dep")},
			[]FD{NewFD("Department", as("emp"), as("skill", "proj"))},
			NF2, // emp is not part of the key: transitive, not partial
		},
		{
			"Assignment", as("emp", "dep", "proj", "date", "project-name"),
			[]relation.AttrSet{as("emp", "dep", "proj")},
			[]FD{NewFD("Assignment", as("proj"), as("project-name"))},
			NF1, // partial dependency on a strict subset of the key
		},
	}
	for _, c := range cases {
		got := Analyze(c.name, c.all, c.keys, c.fds)
		if got != c.want {
			t.Errorf("Analyze(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAnalyzeBCNFvs3NF(t *testing.T) {
	// R(a,b,c), keys {a,b} and {a,c}, FD c→b: 3NF (b is prime) not BCNF.
	fds := []FD{NewFD("R", as("c"), as("b"))}
	got := Analyze("R", as("a", "b", "c"), []relation.AttrSet{as("a", "b")}, fds)
	if got != NF3 {
		t.Errorf("Analyze = %v, want 3NF", got)
	}
}

// Property tests over random small FD sets.

type randFDs struct {
	FDs []FD
	X   relation.AttrSet
}

var attrPool = []string{"a", "b", "c", "d", "e"}

func randAttrSet(r *rand.Rand, maxLen int) relation.AttrSet {
	n := 1 + r.Intn(maxLen)
	names := make([]string, n)
	for i := range names {
		names[i] = attrPool[r.Intn(len(attrPool))]
	}
	return relation.NewAttrSet(names...)
}

// Generate implements quick.Generator.
func (randFDs) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(6)
	fds := make([]FD, n)
	for i := range fds {
		fds[i] = NewFD("R", randAttrSet(r, 2), randAttrSet(r, 2))
	}
	return reflect.ValueOf(randFDs{FDs: fds, X: randAttrSet(r, 3)})
}

func TestQuickClosureLaws(t *testing.T) {
	f := func(p randFDs) bool {
		c := Closure("R", p.X, p.FDs)
		// Extensive: X ⊆ X+.
		if !c.ContainsAll(p.X) {
			return false
		}
		// Idempotent: (X+)+ = X+.
		if !Closure("R", c, p.FDs).Equal(c) {
			return false
		}
		// Monotone: X ⊆ Y ⇒ X+ ⊆ Y+.
		y := p.X.Add("a")
		return Closure("R", y, p.FDs).ContainsAll(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimalCoverEquivalent(t *testing.T) {
	f := func(p randFDs) bool {
		mc := MinimalCover(p.FDs)
		if !equivalentCovers(p.FDs, mc) {
			return false
		}
		for _, fd := range mc {
			if fd.RHS.Len() != 1 || fd.IsTrivial() {
				return false
			}
		}
		// No redundant member.
		for i := range mc {
			rest := append(append([]FD{}, mc[:i]...), mc[i+1:]...)
			if Implies(rest, mc[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCandidateKeysAreMinimalSuperkeys(t *testing.T) {
	all := as("a", "b", "c", "d", "e")
	f := func(p randFDs) bool {
		keys := CandidateKeys("R", all, p.FDs)
		if len(keys) == 0 {
			return false // there is always at least one key
		}
		for _, k := range keys {
			if !IsSuperkey("R", k, all, p.FDs) {
				return false
			}
			minimal := true
			k.Subsets(func(sub relation.AttrSet) bool {
				if IsSuperkey("R", sub, all, p.FDs) {
					minimal = false
					return false
				}
				return true
			})
			if !minimal {
				return false
			}
		}
		// Pairwise non-containment.
		for i := range keys {
			for j := range keys {
				if i != j && keys[i].ContainsAll(keys[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
