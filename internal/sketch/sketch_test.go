package sketch

import "testing"

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a dense range plus avalanche sanity: no
	// two inputs in 0..99999 collide, and outputs are spread.
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestRowSampleDeterministicStable(t *testing.T) {
	// Same rows in any order -> same sample; appending extends stably.
	a := NewRowSample(32)
	for i := 0; i < 1000; i++ {
		a.AddRow(i)
	}
	b := NewRowSample(32)
	for i := 999; i >= 0; i-- {
		b.AddRow(i)
	}
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != 32 || len(rb) != 32 {
		t.Fatalf("sample sizes %d/%d, want 32", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("order-dependent sample at %d: %d vs %d", i, ra[i], rb[i])
		}
	}
}
