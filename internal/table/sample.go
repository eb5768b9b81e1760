// The FD triage's deterministic row sample (fd.CheckStatsSketch): the
// rows with the sampleK smallest hashed indexes, kept per table and
// advanced on demand behind a row watermark. The sample is a function of
// the row count alone, so it needs no configuration and nothing of it is
// persisted, and it extends stably under append. A sampled pair of rows
// that disagrees is a certain refutation, never a probabilistic one, so
// discovery with the triage on stays bit-identical to the exact-only
// pipeline.
//
// Commits never feed the sample: SampleRows catches up the rows appended
// since the last read, so a table pays for it only when some reader
// consumes it. The one truncating path, the strict-mode batch rollback,
// never cuts below the pre-commit row count (see Appender.rollback), and
// readers never run inside a commit, so the watermark never exceeds what
// the table holds: the sample never has to be rebuilt.
package table

import (
	"sort"
	"sync"
)

// sampleK is the row sample's size: 512 sampled rows make a
// two-rows-same-group collision overwhelmingly likely on violated FDs
// over realistic group counts.
const sampleK = 512

// mix64 is the Murmur3 64-bit finalizer — a bijection on uint64 with full
// avalanche, turning raw row indexes (and the integer-interning table's
// keys) into uniformly distributed bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rowSample is one table's row sample: a bottom-k order statistic over
// mix64 of the row indexes. mix64 is a bijection, so distinct rows never
// tie and the sample is uniform over a pseudo-random permutation of the
// rows; new rows displace old ones only by hash order, never by recency.
// All advancement happens under mu, so concurrent readers may catch it
// up.
type rowSample struct {
	mu sync.Mutex
	// entries are the sampled rows in hash order; rows is the watermark
	// (rows [0, rows) have been fed), cache the entries' row indexes
	// memoized per state.
	entries []sampleEntry
	rows    int
	cache   []int32
}

type sampleEntry struct {
	hash uint64
	row  int32
}

// add observes row index i.
func (s *rowSample) add(i int) {
	h := mix64(uint64(i))
	n := len(s.entries)
	if n == sampleK {
		if h >= s.entries[n-1].hash {
			return
		}
		s.entries = s.entries[:n-1]
	}
	j := sort.Search(len(s.entries), func(j int) bool { return s.entries[j].hash >= h })
	s.entries = append(s.entries, sampleEntry{})
	copy(s.entries[j+1:], s.entries[j:])
	s.entries[j] = sampleEntry{hash: h, row: int32(i)}
}

// SampleRows returns the table's deterministic row sample caught up to
// its current row count, in hash order, and whether this call fed rows
// appended since the last read (the sketch-build counter's unit). No
// column is touched, so a lazily restored table loads nothing. The slice
// is shared between callers and must not be mutated.
func (t *Table) SampleRows() (rows []int32, built bool) {
	s := &t.sample
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := t.nrows; n > s.rows {
		for i := s.rows; i < n; i++ {
			s.add(i)
		}
		s.rows = n
		s.cache = nil
		built = true
	}
	if s.cache == nil {
		s.cache = make([]int32, len(s.entries))
		for i, e := range s.entries {
			s.cache[i] = e.row
		}
	}
	return s.cache, built
}
