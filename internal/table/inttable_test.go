package table

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// get returns k's code: the lookup half of getOrPut, which only the
// tests need.
func (t *intTable) get(k int64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return s.code, true
		}
	}
}

// intEntries lists an intTable's entries as a map.
func intEntries(t *intTable) map[int64]int32 {
	m := make(map[int64]int32, t.n)
	for _, s := range t.slots {
		if s.used {
			m[s.key] = s.code
		}
	}
	return m
}

// intTableOps drives an intTable and a map[int64]int32 reference through
// the same put/get/delete/reset sequence and fails on the first
// disagreement. Each op is (kind, key): kind%8 selects getOrPut (0–3),
// get (4–5), delete (6) or reset (7); the code stored by a put is the
// reference's size, as intern assigns it.
func intTableOps(t *testing.T, ops []intOp) {
	t.Helper()
	var tab intTable
	ref := make(map[int64]int32)
	for step, op := range ops {
		k := op.key
		switch op.kind % 8 {
		case 0, 1, 2, 3:
			code := int32(len(ref))
			id, found := tab.getOrPut(k, code)
			want, had := ref[k]
			if !had {
				ref[k] = code
				want = code
			}
			if id != want || found != had {
				t.Fatalf("step %d getOrPut(%d, %d) = %d, %v; want %d, %v", step, k, code, id, found, want, had)
			}
		case 4, 5:
			id, ok := tab.get(k)
			want, had := ref[k]
			if id != want || ok != had {
				t.Fatalf("step %d get(%d) = %d, %v; want %d, %v", step, k, id, ok, want, had)
			}
		case 6:
			tab.delete(k)
			delete(ref, k)
		case 7:
			tab.reset()
			clear(ref)
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, tab.len(), len(ref))
		}
	}
	// Every reference entry is reachable, and nothing else is stored.
	for k, want := range ref {
		if id, ok := tab.get(k); !ok || id != want {
			t.Fatalf("final get(%d) = %d, %v; want %d", k, id, ok, want)
		}
	}
	if got := intEntries(&tab); len(got) != len(ref) {
		t.Fatalf("final table holds %d entries, reference %d", len(got), len(ref))
	}
	if len(tab.slots) > 0 && tab.n*4 > len(tab.slots)*3 {
		t.Fatalf("load %d/%d above 3/4", tab.n, len(tab.slots))
	}
}

type intOp struct {
	kind uint8
	key  int64
}

// edgeKeys are the keys a hash table gets wrong first: the int64
// extremes, 0 and −1, and keys that agree in their low bits.
var edgeKeys = []int64{
	math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1,
	1 << 32, 2 << 32, 3 << 32, 1 << 48, 1 << 62, -(1 << 32), -(1 << 62),
}

// TestIntTableAgainstMap runs randomized put/get/delete/reset sequences
// against a map reference, over key pools small enough that deletes hit
// and clusters form, with the edge keys mixed in.
func TestIntTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for round := 0; round < 200; round++ {
		pool := append([]int64{}, edgeKeys...)
		for i := 0; i < 1+rng.IntN(300); i++ {
			switch rng.IntN(3) {
			case 0:
				pool = append(pool, int64(rng.IntN(64)))
			case 1:
				pool = append(pool, int64(rng.IntN(64))<<40) // equal low bits
			default:
				pool = append(pool, int64(rng.Uint64()))
			}
		}
		ops := make([]intOp, 1+rng.IntN(2000))
		for i := range ops {
			kind := uint8(rng.IntN(7)) // resets are rare
			if rng.IntN(500) == 0 {
				kind = 7
			}
			ops[i] = intOp{kind: kind, key: pool[rng.IntN(len(pool))]}
		}
		intTableOps(t, ops)
	}
}

// TestIntTableDeleteEveryOrder fills a table close to its 3/4 load, so
// long clusters form, with the edge keys and keys that differ only in
// their top byte, then deletes them in random orders, checking every
// survivor after each delete: backward shifting must never cut a probe
// path.
func TestIntTableDeleteEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 50; round++ {
		var tab intTable
		keys := append([]int64{}, edgeKeys...)
		for i := 0; i < 34; i++ { // 48 keys: exactly 3/4 of 64 slots
			keys = append(keys, int64(i)<<56)
		}
		for i, k := range keys {
			tab.getOrPut(k, int32(i))
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		live := intEntries(&tab)
		for _, k := range keys {
			tab.delete(k)
			delete(live, k)
			for lk, code := range live {
				if got, ok := tab.get(lk); !ok || got != code {
					t.Fatalf("round %d: after delete(%d), get(%d) = %d, %v; want %d", round, k, lk, got, ok, code)
				}
			}
			if _, ok := tab.get(k); ok {
				t.Fatalf("round %d: deleted key %d still found", round, k)
			}
		}
		if tab.len() != 0 {
			t.Fatalf("round %d: %d entries left", round, tab.len())
		}
	}
}

// TestIntTableShape pins the layout the byte accounting charges for (a
// 16-byte slot per entry), one allocation per growth, capacity reuse
// across reset, and per-table seeds.
func TestIntTableShape(t *testing.T) {
	if got := unsafe.Sizeof(intSlot{}); got != intSlotBytes {
		t.Fatalf("slot is %d bytes, ApproxBytes charges %d", got, intSlotBytes)
	}
	var tab intTable
	allocs := testing.AllocsPerRun(1, func() {
		tab = intTable{}
		for k := int64(0); k < 6; k++ { // 6 ≤ 3/4 of the first 8 slots
			tab.getOrPut(k, int32(k))
		}
	})
	if allocs != 1 {
		t.Fatalf("6 puts: %v allocations, want 1", allocs)
	}
	tab.getOrPut(6, 6) // the 7th entry grows to 16 slots
	if len(tab.slots) != 16 {
		t.Fatalf("7 entries in %d slots, want 16", len(tab.slots))
	}
	tab.reset()
	if len(tab.slots) != 16 || tab.len() != 0 {
		t.Fatalf("reset: %d slots, %d entries", len(tab.slots), tab.len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tab.reset()
		for k := int64(0); k < 12; k++ {
			tab.getOrPut(k, int32(k))
		}
	}); allocs != 0 {
		t.Fatalf("refill after reset: %v allocations, want 0", allocs)
	}
	var r intTable
	r.reserve(100)
	if len(r.slots) != 256 {
		t.Fatalf("reserve(100): %d slots, want 256", len(r.slots))
	}
	// Seeds are drawn per table; 8 tables sharing one seed would be a
	// 2^-448 coincidence.
	seeds := make(map[uint64]bool)
	for i := 0; i < 8; i++ {
		var s intTable
		s.getOrPut(1, 0)
		seeds[s.seed] = true
	}
	if len(seeds) == 1 {
		t.Fatal("every table drew the same seed")
	}
}

// FuzzIntTable decodes the input as 9-byte ops (one kind byte, one
// little-endian key) and checks the table against a map reference.
func FuzzIntTable(f *testing.F) {
	seed := make([]byte, 0, 9*len(edgeKeys)*3)
	for _, kind := range []uint8{0, 4, 6} {
		for _, k := range edgeKeys {
			seed = append(seed, kind)
			seed = binary.LittleEndian.AppendUint64(seed, uint64(k))
		}
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80, 6, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]intOp, 0, len(data)/9)
		for ; len(data) >= 9; data = data[9:] {
			ops = append(ops, intOp{kind: data[0], key: int64(binary.LittleEndian.Uint64(data[1:9]))})
		}
		intTableOps(t, ops)
	})
}
