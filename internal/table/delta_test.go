package table

import (
	"fmt"
	"math/rand"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Property and fuzz tests for delta partition refinement: extending a
// projection captured at a commit point over appended rows must be
// bit-identical to refining the grown table from scratch, across the
// two-attribute fast path, the packed general path, and the shared
// single-column path.

// deltaAppend grows tab by n random rows through the per-row path —
// append-only, so projections captured beforehand stay extendable.
func deltaAppend(tab *Table, rng *rand.Rand, n int) {
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat}
	for i := 0; i < n; i++ {
		r := make(Row, len(kinds))
		for j, k := range kinds {
			r[j] = randValue(rng, k)
		}
		tab.InsertUnchecked(r)
	}
}

// sameReps asserts the representative vectors match where both exist.
func sameReps(t *testing.T, label string, want, got *Projection) {
	t.Helper()
	w, g := want.Reps(), got.Reps()
	if len(w) != len(g) {
		t.Fatalf("%s: reps length %d, want %d", label, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: reps[%d] = %d, want %d", label, i, g[i], w[i])
		}
	}
}

// TestExtendProjectionBitIdentical grows randomized NULL-bearing tables
// past a captured projection and requires the extension to match the
// from-scratch rebuild exactly — group vector, non-NULL count, group
// count and representatives — for one, two and three attributes.
func TestExtendProjectionBitIdentical(t *testing.T) {
	attrSets := [][]string{{"i"}, {"i", "s"}, {"i", "s", "f"}}
	for seed := int64(0); seed < 15; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tab := New(refineSchema())
			base := 20 + rng.Intn(150)
			deltaAppend(tab, rng, base)
			prevs := make([]*Projection, len(attrSets))
			for i, attrs := range attrSets {
				prevs[i] = mustProj(t, tab, attrs)
			}
			deltaAppend(tab, rng, 1+rng.Intn(80))
			for i, attrs := range attrSets {
				label := fmt.Sprintf("attrs %v", attrs)
				got := tab.ExtendProjection(attrs, prevs[i], base)
				if got == nil {
					t.Fatalf("%s: ExtendProjection returned nil on the columnar engine", label)
				}
				want := mustProj(t, tab, attrs)
				sameProjection(t, label, want, got)
				if want.groups != got.groups {
					t.Errorf("%s: groups = %d, want %d", label, got.groups, want.groups)
				}
				sameReps(t, label, want, got)
			}
		})
	}
}

// TestExtendProjectionRefuses pins the fallback conditions: shape
// mismatches must yield nil, never a wrong partition.
func TestExtendProjectionRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(refineSchema())
	deltaAppend(tab, rng, 50)
	attrs := []string{"i", "s"}
	prev := mustProj(t, tab, attrs)
	deltaAppend(tab, rng, 10)
	if got := tab.ExtendProjection(attrs, prev, 40); got != nil {
		t.Error("prevRows mismatching the captured projection: want nil")
	}
	if got := tab.ExtendProjection(attrs, nil, 50); got != nil {
		t.Error("nil predecessor: want nil")
	}
	if got := tab.ExtendProjection([]string{"i", "nope"}, prev, 50); got != nil {
		t.Error("unknown attribute: want nil")
	}
}

// FuzzDeltaRefine lets the fuzzer choose the value domains, the NULL
// density, and the base/delta split, then requires extension ≡ rebuild
// on both multi-attribute paths. Exercised by the ci.sh fuzz smoke.
func FuzzDeltaRefine(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(40), uint8(25))
	f.Add(int64(42), uint8(1), uint8(1), uint8(0), uint8(90))
	f.Add(int64(-9), uint8(12), uint8(2), uint8(200), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, domA, domB, base, delta uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := relation.MustSchema("F", []relation.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "c", Type: value.KindInt},
		})
		tab := New(s)
		da, db := int(domA)+1, int(domB)+1
		draw := func(dom int) value.Value {
			if rng.Intn(6) == 0 {
				return value.Null
			}
			return value.NewInt(int64(rng.Intn(dom)))
		}
		insert := func(n int) {
			for i := 0; i < n; i++ {
				tab.InsertUnchecked(Row{draw(da), draw(db), draw(da * db)})
			}
		}
		insert(int(base))
		pair := mustProj(t, tab, []string{"a", "b"})
		triple := mustProj(t, tab, []string{"a", "b", "c"})
		insert(int(delta))
		for _, c := range []struct {
			attrs []string
			prev  *Projection
		}{{[]string{"a", "b"}, pair}, {[]string{"a", "b", "c"}, triple}} {
			got := tab.ExtendProjection(c.attrs, c.prev, int(base))
			if got == nil {
				t.Fatalf("attrs %v: ExtendProjection returned nil", c.attrs)
			}
			want := mustProj(t, tab, c.attrs)
			sameProjection(t, fmt.Sprintf("attrs %v", c.attrs), want, got)
			sameReps(t, fmt.Sprintf("attrs %v", c.attrs), want, got)
		}
	})
}
