package table

import "math/rand/v2"

// intTable interns the value.Bits of a non-VARCHAR column's values
// (integers, BOOLEAN and DATE payloads, FLOAT bit patterns): an int64 →
// dictionary-code map by
// linear probing over one power-of-two slice of {key, code} slots, kept
// at most 3/4 full, so a growth is a single allocation and a probe
// touches one or two adjacent slots instead of a Go map's groups and
// control words. Deletion shifts the following cluster back rather than
// leaving tombstones, so a strict rollback leaves the table exactly as
// if the rolled-back keys had never been inserted. The hash is mix64
// over the key xor a seed drawn per table, so keys chosen to collide
// (say, in a served CSV) cannot be aimed at one cluster without knowing
// the seed. The zero value is an empty table.
type intTable struct {
	slots []intSlot
	n     int
	seed  uint64
}

// intSlot is one 16-byte table slot; used marks it occupied.
type intSlot struct {
	key  int64
	code int32
	used bool
}

// intSlotBytes is the size of one slot, the per-entry cost ApproxBytes
// charges an int dictionary entry for interning.
const intSlotBytes = 16

// minIntSlots is the slot count of a table's first allocation.
const minIntSlots = 8

func (t *intTable) len() int { return t.n }

// home is the slot k's probe sequence starts at.
func (t *intTable) home(k int64) int {
	return int(mix64(uint64(k)^t.seed) & uint64(len(t.slots)-1))
}

// getOrPut returns k's code if k is present, and otherwise stores k
// with code and returns code; found reports which.
func (t *intTable) getOrPut(k int64, code int32) (id int32, found bool) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.resize(max(minIntSlots, 2*len(t.slots)))
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = intSlot{key: k, code: code, used: true}
			t.n++
			return code, false
		}
		if s.key == k {
			return s.code, true
		}
	}
}

// reserve sizes an empty table for n entries in one allocation.
func (t *intTable) reserve(n int) {
	size := minIntSlots
	for n*4 > size*3 {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes every entry into size slots (a power of two). The
// seed is drawn once, at the first allocation, and kept.
func (t *intTable) resize(size int) {
	old := t.slots
	t.slots = make([]intSlot, size)
	if old == nil {
		t.seed = rand.Uint64()
	}
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// delete removes k. Each slot after it in the cluster moves back into
// the hole when the hole lies on that entry's probe path, so no probe
// sequence is broken and no tombstone is left.
func (t *intTable) delete(k int64) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for ; ; i = (i + 1) & mask {
		if !t.slots[i].used {
			return
		}
		if t.slots[i].key == k {
			break
		}
	}
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if h := t.home(t.slots[j].key); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = intSlot{}
	t.n--
}

// reset empties the table, keeping its slots and seed for reuse.
func (t *intTable) reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}
