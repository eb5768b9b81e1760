package deps

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randAttrs draws an attribute list over a tiny alphabet, so that equal
// names, names that prefix one another ("a" / "ab") and lists that
// prefix one another are all common.
func randAttrs(rng *rand.Rand) []string {
	names := []string{"a", "ab", "abc", "b", "ba", "id", "id2"}
	out := make([]string, rng.Intn(4))
	for i := range out {
		out[i] = names[rng.Intn(len(names))]
	}
	return out
}

func randSide(rng *rand.Rand) Side {
	rels := []string{"R", "RS", "S"}
	return Side{Rel: rels[rng.Intn(len(rels))], Attrs: randAttrs(rng)}
}

// joinedCompare is the reference side order: relation, then the
// attribute lists joined with NUL separators.
func joinedCompare(s, o Side) int {
	if c := strings.Compare(s.Rel, o.Rel); c != 0 {
		return c
	}
	return strings.Compare(strings.Join(s.Attrs, "\x00"), strings.Join(o.Attrs, "\x00"))
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestSideCompareMatchesJoinedOrder proves the element-wise comparison
// orders sides exactly like comparing the NUL-joined attribute lists.
func TestSideCompareMatchesJoinedOrder(t *testing.T) {
	ref := joinedCompare
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s, o := randSide(rng), randSide(rng)
		if got, want := sign(s.compare(o)), sign(ref(s, o)); got != want {
			t.Fatalf("compare(%v, %v) = %d, joined order says %d", s, o, got, want)
		}
	}
	// The prefix cases, spelled out.
	for _, c := range []struct {
		a, b []string
		want int
	}{
		{[]string{"a"}, []string{"a", "b"}, -1},
		{[]string{"a", "b"}, []string{"a"}, 1},
		{[]string{"a"}, []string{"ab"}, -1},
		{[]string{"ab"}, []string{"a", "c"}, 1},
		{nil, []string{"a"}, -1},
		{[]string{"a", "b"}, []string{"a", "b"}, 0},
	} {
		s, o := Side{Rel: "R", Attrs: c.a}, Side{Rel: "R", Attrs: c.b}
		if got := sign(s.compare(o)); got != c.want || got != sign(ref(s, o)) {
			t.Errorf("compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// randJoinSet builds a Q of n distinct joins with arities 1..3.
func randJoinSet(rng *rand.Rand, n int) *JoinSet {
	q := NewJoinSet()
	for q.Len() < n {
		k := 1 + rng.Intn(3)
		l, r := make([]string, k), make([]string, k)
		for i := range l {
			l[i] = fmt.Sprintf("a%d", rng.Intn(6))
			r[i] = fmt.Sprintf("b%d", rng.Intn(6))
		}
		q.Add(NewEquiJoin(NewSide(fmt.Sprintf("R%d", rng.Intn(n)), l...), NewSide(fmt.Sprintf("S%d", rng.Intn(n)), r...)))
	}
	return q
}

// TestJoinSetSortedOrder pins the key-once sort to the order of sorting
// the canonical joins on Key() directly.
func TestJoinSetSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		q := randJoinSet(rng, 1+rng.Intn(40))
		want := make([]EquiJoin, q.Len())
		for i, j := range q.joins {
			want[i] = j.Canonical()
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
		got := q.Sorted()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d joins, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("round %d: position %d = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestAllocJoinSetSorted gates JoinSet.Sorted allocations: linear in the
// set size, not in the number of comparisons. Keying inside the
// comparator canonicalizes two joins per comparison, so its per-join
// count grows with log n; the key-once sort's stays flat.
func TestAllocJoinSetSorted(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(4))
	perJoin := func(n int) float64 {
		q := randJoinSet(rng, n)
		return testing.AllocsPerRun(20, func() { _ = q.Sorted() }) / float64(n)
	}
	small, large := perJoin(16), perJoin(512)
	// Canonicalization plus key building costs a fixed handful of
	// allocations per join.
	const maxPerJoin = 12
	if large > maxPerJoin {
		t.Errorf("Sorted over 512 joins: %.1f allocs/join, want <= %d", large, maxPerJoin)
	}
	if large > 1.25*small+1 {
		t.Errorf("allocs/join grows with n: %.1f at 16 joins, %.1f at 512", small, large)
	}
}

// TestAllocSideCompare pins the side comparison at zero allocations.
func TestAllocSideCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates skipped in -short mode")
	}
	a := NewIND(NewSide("R", "a", "b"), NewSide("S", "x"))
	b := NewIND(NewSide("R", "a", "c"), NewSide("S", "x"))
	if got := testing.AllocsPerRun(100, func() { _ = a.Compare(b) }); got != 0 {
		t.Errorf("IND.Compare: %.0f allocs, want 0", got)
	}
}
