// The FD triage's deterministic row sample (sketch.RowSample), kept per
// table and advanced on demand behind a row watermark. Commits never feed
// it: SampleRows catches up the rows appended since the last read, so a
// table pays for the sample only when some reader consumes it. The
// sample is a function of the row count alone, so nothing of it is
// persisted. The one truncating path, the strict-mode batch rollback,
// never cuts below the pre-commit row count (see Appender.rollback), and
// readers never run inside a commit, so the watermark never exceeds what
// the table holds: the sample never has to be rebuilt.
package table

import (
	"sync"

	"dbre/internal/sketch"
)

// rowSample is one table's row sample. All advancement happens under mu,
// so concurrent readers may catch it up.
type rowSample struct {
	mu sync.Mutex
	// s is nil until the first read; rows is its watermark (rows
	// [0, rows) have been fed), cache its Rows() memoized per state.
	s     *sketch.RowSample
	rows  int
	cache []int32
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
	if s.s == nil {
		s.s = sketch.NewRowSample(sketch.SampleK)
	}
	if n := t.nrows; n > s.rows {
		for i := s.rows; i < n; i++ {
			s.s.AddRow(i)
		}
		s.rows = n
		s.cache = nil
		built = true
	}
	if s.cache == nil {
		s.cache = s.s.Rows()
	}
	return s.cache, built
}
