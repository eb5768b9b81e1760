// Package obs is the pipeline's observability layer: hierarchical wall-
// clock spans and a fixed inventory of typed counters, threaded through
// the elicitation phases via context.Context and exported as a human-
// readable tree (render.go), a versioned JSON trace file (json.go), and
// expvar/pprof endpoints for live profiling of long runs (debug.go).
//
// The layer is strictly zero-cost when disabled. Every entry point is
// safe — and allocation-free — on nil receivers: a context without a
// Tracer yields nil *Span values from StartSpan, and every Span and
// Tracer method begins with a nil guard, so instrumented code never
// branches on "is tracing on". The disabled path is pinned at
// 0 allocs/op by alloc_test.go, alongside the counting-kernel
// allocation regressions in internal/stats.
//
// Concurrency: counters are plain atomics; span trees may be grown from
// multiple goroutines (children append under the parent's lock), and
// snapshots (Render, Snapshot, expvar) take the same locks, so a
// monitor may render a trace while the run is still in flight. The
// -race leg of scripts/ci.sh exercises exactly this.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one typed pipeline counter. The inventory is fixed
// so exporters can render names without registration plumbing and hot
// paths can increment by array index.
type Counter int

// The counter inventory. Producers are noted per counter; the semantics
// are documented normatively in DESIGN.md §5.
const (
	// CtrRowsScanned counts extension tuples read while building
	// projection indexes (incremented by the stats cache per build).
	CtrRowsScanned Counter = iota
	// CtrDistinctQueries counts the count-distinct / join-count /
	// containment queries issued against the extension by IND-Discovery
	// (three per equi-join), cached or not.
	CtrDistinctQueries
	// CtrStatsHits / CtrStatsMisses count column-statistics cache
	// lookups that were served memoized vs. built (stale revalidations
	// count as misses, mirroring stats.Metrics).
	CtrStatsHits
	CtrStatsMisses
	// CtrINDsTested counts equi-joins of Q processed by IND-Discovery;
	// CtrINDsAccepted counts inclusion dependencies elicited into IND;
	// CtrNEIEscalated counts non-empty intersections escalated to the
	// expert (branches (iv)-(vii)).
	CtrINDsTested
	CtrINDsAccepted
	CtrNEIEscalated
	// CtrLHSGenerated counts candidate FD left-hand sides produced by
	// LHS-Discovery; CtrRHSPruned counts right-hand-side attributes
	// removed by RHS-Discovery's key/not-null reduction before any
	// extension check; CtrFDChecks counts the A → b checks performed.
	CtrLHSGenerated
	CtrRHSPruned
	CtrFDChecks
	// CtrRefinements counts partition-refinement passes run while
	// composing multi-attribute projections (one per attribute beyond
	// the first, per projection build).
	CtrRefinements
	// CtrRefineDense / CtrRefineMap split CtrRefinements by remapping
	// strategy: steps served by the dense direct-addressed table vs. the
	// sparse map fallback (see internal/table/refine.go).
	CtrRefineDense
	CtrRefineMap
	// CtrIngestChunks counts CSV chunks parsed by the batched loaders;
	// CtrIngestMergeRemaps counts chunk-dictionary entries remapped into
	// global dictionary codes during batch merges (a batch an empty table
	// adopts remaps nothing); CtrIngestViolations
	// counts constraint violations tolerated by non-strict ingest.
	CtrIngestChunks
	CtrIngestMergeRemaps
	CtrIngestViolations
	// The serve-* counters live on the job server's own tracer
	// (internal/serve), not on per-job tracers. CtrJobsSubmitted counts
	// accepted job submissions; CtrJobsRunning is a gauge (+1 on worker
	// pickup, -1 on completion) whose value can never exceed the worker
	// pool size; CtrJobsDone counts jobs that reached a terminal state
	// (done, failed or cancelled); CtrQuestionsAsked counts expert-oracle
	// questions escalated over the API.
	CtrJobsSubmitted
	CtrJobsRunning
	CtrJobsDone
	CtrQuestionsAsked
	// The sketch-* counters observe the FD triage (fd.CheckStatsSketch
	// over the table's row sample, internal/table/sample.go).
	// CtrSketchPrunes counts FD checks the triage settled with certainty,
	// skipping the exact kernel; CtrSketchEscalations counts checks it
	// had to escalate to the exact kernel; CtrSketchBuild counts
	// row-sample build and catch-up passes (one per sample advance).
	// prunes/(prunes+escalations) is the per-run triage ratio.
	CtrSketchPrunes
	CtrSketchEscalations
	CtrSketchBuild
	// The snapshot-/wal-* counters observe the persistence layer
	// (internal/storage). CtrSnapshotSections counts file sections
	// written by Snapshot; CtrWALRecordsReplayed / CtrWALRowsReplayed
	// count WAL batch records and the rows they carried re-applied
	// during a recovering Open or an explicit ReplayWAL.
	CtrSnapshotSections
	CtrWALRecordsReplayed
	CtrWALRowsReplayed
	// The incremental-discovery counters observe the live-mutation path
	// (internal/core.Incremental, internal/stats delta reuse and the
	// table epoch layer). CtrDeltaRefines counts projection builds
	// served by extending a cached partition over the appended delta
	// instead of refining from scratch; CtrEpochPins counts epoch
	// snapshots pinned for consistent reads under concurrent ingest;
	// CtrRevalidations counts incremental re-validation passes over a
	// warm discovery state; CtrReescalations counts previously-settled
	// FD/IND decisions a delta forced back to the exact kernels (and
	// possibly the expert).
	CtrDeltaRefines
	CtrEpochPins
	CtrRevalidations
	CtrReescalations
	// The resident-pool counters observe the serving-layer dataset pool
	// (internal/serve/pool.go). CtrPoolHits counts jobs served by an
	// already-resident dataset; CtrPoolMisses counts jobs that had to
	// open (or wait for the singleflight open of) a cold dataset;
	// CtrPoolEvictions counts idle datasets evicted by the memory
	// governor; CtrSharedCacheHits counts job lookups answered by a
	// pool-shared stats cache entry another job already built.
	CtrPoolHits
	CtrPoolMisses
	CtrPoolEvictions
	CtrSharedCacheHits

	numCounters
)

// counterNames are the stable exported names, used by the tree renderer,
// the JSON schema and expvar alike.
var counterNames = [numCounters]string{
	"rows-scanned",
	"distinct-queries",
	"stats-cache-hits",
	"stats-cache-misses",
	"inds-tested",
	"inds-accepted",
	"nei-escalated",
	"fd-lhs-generated",
	"fd-rhs-pruned",
	"fd-checks",
	"partition-refinements",
	"refine-dense-steps",
	"refine-map-steps",
	"ingest-chunks",
	"ingest-merge-remaps",
	"ingest-violations",
	"serve-jobs-submitted",
	"serve-jobs-running",
	"serve-jobs-done",
	"serve-questions-asked",
	"sketch-prunes",
	"sketch-escalations",
	"sketch-build",
	"snapshot-sections",
	"wal-records-replayed",
	"wal-rows-replayed",
	"delta-refines",
	"epoch-pins",
	"revalidations",
	"re-escalations",
	"pool-hits",
	"pool-misses",
	"pool-evictions",
	"shared-cache-hits",
}

// String returns the counter's stable exported name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown-counter"
	}
	return counterNames[c]
}

// Counters returns every counter in declaration order, for exporters
// that iterate the inventory.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Tracer owns one trace: a root span and the counter array. The zero
// value is not useful; use NewTracer. A nil *Tracer is the disabled
// tracer — every method is a no-op.
type Tracer struct {
	clock    func() time.Time
	root     *Span
	counters [numCounters]atomic.Int64
}

// NewTracer creates an enabled tracer whose root span has the given
// name and starts now.
func NewTracer(name string) *Tracer {
	return NewTracerClock(name, time.Now)
}

// NewTracerClock is NewTracer with an injectable clock, so tests and
// golden files can render deterministic durations. Every span start and
// end reads the clock exactly once.
func NewTracerClock(name string, clock func() time.Time) *Tracer {
	t := &Tracer{clock: clock}
	t.root = &Span{tracer: t, name: name, start: clock()}
	return t
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span; call once when the traced run completes.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Add increments a counter. Nil-safe and atomic: this is the only
// operation hot loops perform, and on a nil tracer it is a bare
// comparison and return.
func (t *Tracer) Add(c Counter, n int64) {
	if t == nil || c < 0 || c >= numCounters {
		return
	}
	t.counters[c].Add(n)
}

// Count returns a counter's current value (0 on a nil tracer).
func (t *Tracer) Count(c Counter) int64 {
	if t == nil || c < 0 || c >= numCounters {
		return 0
	}
	return t.counters[c].Load()
}

// CounterSnapshot returns the non-zero counters as a name → value map.
func (t *Tracer) CounterSnapshot() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	for i := Counter(0); i < numCounters; i++ {
		if v := t.counters[i].Load(); v != 0 {
			out[counterNames[i]] = v
		}
	}
	return out
}

// Attr is one span attribute. Values are pre-rendered strings: spans
// annotate phase results (counts, file names), not live objects.
type Attr struct {
	Key string
	Val string
}

// Span is one timed node of the trace tree. A nil *Span is the disabled
// span — every method is an allocation-free no-op — which is what
// StartSpan returns when the context carries no tracer.
type Span struct {
	tracer *Tracer
	name   string
	start  time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// StartChild starts a child span under s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, name: name, start: s.tracer.clock()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Idempotent: only the first End sets the
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.clock()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
	s.mu.Unlock()
}

// Ended reports whether End has been called (false on nil): a span that
// has started but not ended is still running, which is what the progress
// exporter keys on.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	e := s.ended
	s.mu.Unlock()
	return e
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the measured duration: the End-stamped value once
// ended, 0 before (and on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	d := s.dur
	s.mu.Unlock()
	return d
}

// SetAttr records a string attribute. Later writes with the same key
// append; exporters keep the last value per key.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Attrs returns a copy of the attribute list (nil on nil).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	return out
}

// Children returns a copy of the child list (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	return out
}

// ctxKey keys the two context slots. Small integer constants box without
// allocating, which keeps the disabled StartSpan path at 0 allocs/op.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// NewContext returns ctx carrying the tracer; with a nil tracer it
// returns ctx unchanged (tracing stays disabled).
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil when the run is not
// traced.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// SpanFromContext returns the innermost span started through StartSpan
// on this context chain (nil when untraced).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan starts a span as a child of the context's current span (or
// of the tracer root when no span is open yet) and returns a context
// carrying it. When the context has no tracer it returns ctx unchanged
// and a nil span; the caller needs no disabled-path branch, because
// every Span method no-ops on nil.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey).(*Span)
	if parent == nil {
		t, _ := ctx.Value(tracerKey).(*Tracer)
		if t == nil {
			return ctx, nil
		}
		parent = t.root
	}
	s := parent.StartChild(name)
	return context.WithValue(ctx, spanKey, s), s
}
