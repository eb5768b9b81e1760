// Package sketch implements the deterministic row sample the FD triage
// reads (fd.CheckStatsSketch): the rows with the SampleK smallest hashed
// indexes. The sample is a function of the row count alone, so it needs
// no configuration and no persisted state, and it extends stably under
// append. A sampled pair of rows that disagrees is a certain refutation,
// never a probabilistic one, so discovery with the triage on stays
// bit-identical to the exact-only pipeline.
package sketch

import "sort"

// SampleK is the row sample's size: 512 sampled rows make a
// two-rows-same-group collision overwhelmingly likely on violated FDs
// over realistic group counts.
const SampleK = 512

// Mix64 is the Murmur3 64-bit finalizer — a bijection on uint64 with full
// avalanche, turning raw row indexes (and the integer-interning table's
// keys) into uniformly distributed bits.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// HashRow hashes a row index for the deterministic row sample. Mix64 is a
// bijection, so distinct rows never collide and the sample is an exact
// bottom-k order statistic over a pseudo-random permutation of the rows.
func HashRow(i int) uint64 { return Mix64(uint64(i)) }

// RowSample keeps the rows with the k smallest hashed indexes — a
// deterministic uniform sample of the table's rows that extends stably
// under append (new rows displace old ones only by hash order, never by
// recency). Mix64 is a bijection on indexes, so there are no ties.
type RowSample struct {
	k       int
	entries []rowEntry
}

type rowEntry struct {
	hash uint64
	row  int32
}

// NewRowSample returns an empty sample of capacity k > 0.
func NewRowSample(k int) *RowSample { return &RowSample{k: k} }

// AddRow observes row index i.
func (s *RowSample) AddRow(i int) {
	h := HashRow(i)
	n := len(s.entries)
	if n == s.k {
		if h >= s.entries[n-1].hash {
			return
		}
		s.entries = s.entries[:n-1]
	}
	j := sort.Search(len(s.entries), func(j int) bool { return s.entries[j].hash >= h })
	s.entries = append(s.entries, rowEntry{})
	copy(s.entries[j+1:], s.entries[j:])
	s.entries[j] = rowEntry{hash: h, row: int32(i)}
}

// Rows returns the sampled row indexes in hash order (pseudo-random).
func (s *RowSample) Rows() []int32 {
	rows := make([]int32, len(s.entries))
	for i, e := range s.entries {
		rows[i] = e.row
	}
	return rows
}
