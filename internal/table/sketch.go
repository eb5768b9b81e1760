// Table-side maintenance of the approximate discovery tier's sketches:
// per-column HyperLogLog + bottom-k signatures over the dictionary, and a
// deterministic bottom-k row sample, each advanced on demand behind its
// own consumed watermark. Commits never feed a sketch: Column catches up
// just the column it is asked for and SampleRows just the row sample, so
// a table pays only for the sketches some reader consumes. The columnar
// dictionary is append-only across commits, so "new distinct values" are
// exactly the dictionary suffix past the watermark. The one truncating
// path, the strict-mode batch rollback, never cuts below the
// pre-commit dictionary length or row count (see Appender.rollback),
// and readers never run inside a commit, so no watermark can exceed
// what the table holds: a sketch never has to be rebuilt.
package table

import (
	"sync"

	"dbre/internal/sketch"
)

// TableSketches is the incremental sketch set of one table. All
// advancement happens under an internal mutex, so concurrent readers may
// catch up the same or different sketches; the returned sketch objects
// are safe to read once caught up, under the engine-wide rule that reads
// and mutations of a table are not concurrent.
type TableSketches struct {
	mu  sync.Mutex
	t   *Table
	cfg sketch.Config
	// cols[i] sketches column i; consumed[i] is the dictionary watermark
	// (entries [0, consumed[i]) have been fed to cols[i]).
	cols     []*sketch.Column
	consumed []int
	// sample holds the bottom-k row sample; sampleRows is its row
	// watermark, sampleCache the rows slice memoized per sample state.
	sample      *sketch.RowSample
	sampleRows  int
	sampleCache []int32
	builds      int64
}

// EnableSketches turns on on-demand sketch maintenance for the table,
// returning the (possibly pre-existing) sketch set. The zero Config
// selects defaults; a later call's config is ignored if sketches already
// exist. Safe for concurrent callers.
func (t *Table) EnableSketches(cfg sketch.Config) *TableSketches {
	if s := t.sketches.Load(); s != nil {
		return s
	}
	s := &TableSketches{
		t:        t,
		cfg:      cfg.WithDefaults(),
		cols:     make([]*sketch.Column, len(t.columns)),
		consumed: make([]int, len(t.columns)),
	}
	for i := range s.cols {
		s.cols[i] = sketch.NewColumn(s.cfg)
	}
	s.sample = sketch.NewRowSample(s.cfg.SampleK)
	if t.sketches.CompareAndSwap(nil, s) {
		return s
	}
	return t.sketches.Load()
}

// Sketches returns the table's sketch set, or nil if never enabled.
func (t *Table) Sketches() *TableSketches { return t.sketches.Load() }

// Config returns the knobs the sketch set was built with.
func (s *TableSketches) Config() sketch.Config { return s.cfg }

// Column returns the caught-up sketch of the column holding attr, or nil
// if the attribute does not exist.
func (s *TableSketches) Column(attr string) *sketch.Column {
	col, _ := s.CatchUpColumn(attr)
	return col
}

// CatchUpColumn is Column that also reports the catch-up passes it ran:
// 1 when it fed dictionary entries appended since the last read of this
// column (the sketch-build counter's unit), 0 otherwise. A deferred
// column section is materialized first.
func (s *TableSketches) CatchUpColumn(attr string) (*sketch.Column, int) {
	ci, ok := s.t.cols[attr]
	if !ok {
		return nil, 0
	}
	s.t.ensureCol(ci)
	s.mu.Lock()
	defer s.mu.Unlock()
	dict := s.t.columns[ci].dict
	if len(dict) <= s.consumed[ci] {
		return s.cols[ci], 0
	}
	col := s.cols[ci]
	for _, v := range dict[s.consumed[ci]:] {
		col.AddValue(v)
	}
	s.consumed[ci] = len(dict)
	s.builds++
	return col, 1
}

// SampleRows returns the caught-up deterministic row sample, in hash
// order. The slice is shared between callers and must not be mutated.
func (s *TableSketches) SampleRows() []int32 {
	rows, _ := s.CatchUpSample()
	return rows
}

// CatchUpSample is SampleRows that also reports the catch-up passes it
// ran: 1 when it fed rows appended since the last read, 0 otherwise.
// No column is touched.
func (s *TableSketches) CatchUpSample() ([]int32, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	work := 0
	if n := s.t.nrows; n > s.sampleRows {
		for i := s.sampleRows; i < n; i++ {
			s.sample.AddRow(i)
		}
		s.sampleRows = n
		s.sampleCache = nil
		s.builds++
		work = 1
	}
	if s.sampleCache == nil {
		s.sampleCache = s.sample.Rows()
	}
	return s.sampleCache, work
}

// Builds returns the cumulative number of catch-up passes that did work.
func (s *TableSketches) Builds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}
