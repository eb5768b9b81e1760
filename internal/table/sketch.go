// Table-side maintenance of the approximate discovery tier's sketches:
// per-column HyperLogLog + bottom-k signatures over the dictionary, and a
// deterministic bottom-k row sample, all advanced incrementally behind
// consumed-watermark bookkeeping. The columnar dictionary is append-only
// under every mutation path except the strict-mode batch rollback, so
// "new distinct values" are exactly the dictionary suffix past the
// watermark; a shrink (rollback) rebuilds the affected column's sketches
// from scratch, which is sound because sketch state is a pure function of
// the value set.
package table

import (
	"sync"

	"dbre/internal/sketch"
)

// TableSketches is the incremental sketch set of one columnar table. All
// advancement happens under an internal mutex; reads of the returned
// sketch objects are safe once caught up, under the engine-wide rule that
// reads and mutations of a table are not concurrent.
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

// EnableSketches turns on incremental sketch maintenance for the table,
// returning the (possibly pre-existing) sketch set. The zero Config
// selects defaults; a later call's config is ignored if sketches already
// exist. Returns nil on the row engine — sketch consumers treat a nil
// sketch set as "escalate everything", so the row engine stays exact-only
// with identical results. Safe for concurrent callers.
func (t *Table) EnableSketches(cfg sketch.Config) *TableSketches {
	if t.columns == nil {
		return nil
	}
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

// Sketches returns the table's sketch set, or nil if never enabled (or
// row engine).
func (t *Table) Sketches() *TableSketches { return t.sketches.Load() }

// Config returns the knobs the sketch set was built with.
func (s *TableSketches) Config() sketch.Config { return s.cfg }

// CatchUp advances every column sketch over dictionary entries appended
// since the last pass and the row sample over appended rows, returning
// the number of passes that did work (the sketch-build counter's unit).
// A shrunken dictionary or row count — strict-mode batch rollback —
// triggers a rebuild of the affected sketch from scratch.
func (s *TableSketches) CatchUp() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	work := 0
	for ci := range s.t.columns {
		// A deferred column section has nothing new to consume; its
		// watermark stays put until a reader (Column) materializes it.
		// Skipping also keeps CatchUp race-free against a concurrent
		// section load installing the dict.
		if !s.t.colLoaded(ci) {
			continue
		}
		dict := s.t.columns[ci].dict
		if len(dict) < s.consumed[ci] {
			s.cols[ci] = sketch.NewColumn(s.cfg)
			s.consumed[ci] = 0
		}
		if len(dict) > s.consumed[ci] {
			col := s.cols[ci]
			for _, v := range dict[s.consumed[ci]:] {
				col.AddValue(v)
			}
			s.consumed[ci] = len(dict)
			work++
		}
	}
	if s.t.nrows < s.sampleRows {
		s.sample = sketch.NewRowSample(s.cfg.SampleK)
		s.sampleRows = 0
		s.sampleCache = nil
	}
	if s.t.nrows > s.sampleRows {
		for i := s.sampleRows; i < s.t.nrows; i++ {
			s.sample.AddRow(i)
		}
		s.sampleRows = s.t.nrows
		s.sampleCache = nil
		work++
	}
	s.builds += int64(work)
	return work
}

// Column returns the caught-up sketch of the column holding attr, or nil
// if the attribute does not exist. Sketches enabled since the last
// commit, or over a deferred section, lag until this catch-up.
func (s *TableSketches) Column(attr string) *sketch.Column {
	ci, ok := s.t.cols[attr]
	if !ok {
		return nil
	}
	s.t.ensureCol(ci)
	s.CatchUp()
	return s.cols[ci]
}

// SampleRows returns the caught-up deterministic row sample, in hash
// order. The slice is shared between callers and must not be mutated.
func (s *TableSketches) SampleRows() []int32 {
	s.CatchUp()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampleCache == nil {
		s.sampleCache = s.sample.Rows()
	}
	return s.sampleCache
}

// Builds returns the cumulative number of build/catch-up passes.
func (s *TableSketches) Builds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}
