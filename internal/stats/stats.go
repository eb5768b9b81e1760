// Package stats is the shared column-statistics layer of the pipeline.
//
// Every phase of the paper's method issues the same handful of counting
// queries against the extension — ‖r[X]‖ distinct counts for
// IND-Discovery, key inference and Translate's cardinality annotations,
// N_kl join counts and projection containment for IND-Discovery, the
// baselines and IND verification, grouped projections for the FD checks
// of RHS-Discovery. This package is the one place they are answered.
// Cache memoizes, per (relation,
// ordered attribute list), the hashed projection index built by
// table.(*Table).Projection: the distinct-key dictionary, the distinct
// count, and the row → group-id vector, so one extension scan serves
// every consumer.
//
// Invalidation: each table carries a mutation counter
// (table.(*Table).Version) bumped by every commit, and
// Database.DropAttrs (restruct's
// FD splits) installs a fresh *Table. A cache entry records the
// (pointer, version) pair it was built against and is revalidated on
// every lookup, so mutations are detected without the mutator knowing
// about the cache. Callers that know they invalidated wholesale (the
// pipeline after Restruct) may additionally call Invalidate or
// InvalidateAll to release memory eagerly.
//
// Semantics: every answer is derived from the same projection index a
// direct scan would build — identical key construction, identical NULL
// handling — so cached results are byte-for-byte the paper's counting
// semantics. The differential harness (differential_test.go and the
// top-level equivalence_test.go) proves this on randomized pipelines.
package stats

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dbre/internal/obs"
	"dbre/internal/table"
	"dbre/internal/value"
)

// DefaultMaxEntries bounds the number of memoized projections per cache.
// Each entry is O(rows) in the indexed relation; the bound keeps worst
// case memory at MaxEntries × max-relation-size row indexes. Eviction is
// arbitrary — the cache never changes results, only their cost.
const DefaultMaxEntries = 1024

// Metrics is a snapshot of cache-effectiveness counters.
type Metrics struct {
	Hits          uint64
	Misses        uint64 // includes rebuilds forced by invalidation
	Stale         uint64 // misses caused by a version/pointer mismatch
	Evictions     uint64
	Invalidations uint64 // entries dropped through Invalidate[All]
	DeltaHits     uint64 // rebuilds served by extending the stale projection over the delta
	SharedHits    uint64 // delegated lookups answered by an entry another consumer built
	Entries       int    // currently cached projections
}

// entry is one memoized projection index. It is built at most once
// (guarded by once); the (tab, version) pair records the extension state
// it describes. The per-group row slices are derived lazily — the
// counting phases never need them, only the FD checks do.
type entry struct {
	tab     *table.Table
	version uint64
	once    sync.Once
	proj    *table.Projection
	err     error
	// done flips after the build completed; getEntry reads it (outside
	// once) to decide whether a stale entry's projection is safe to
	// harvest as the base of a delta extension.
	done atomic.Bool
	// prev/prevRows seed the delta-refinement path: the predecessor
	// entry's projection and the row count it was built over, installed
	// by getEntry when the same table merely grew by appends.
	prev     *table.Projection
	prevRows int

	groupsOnce sync.Once
	// starts and rows are the group id → row indexes view, derived on
	// first FD use: group g's rows are rows[starts[g]:starts[g+1]].
	starts, rows []int32
}

// memoEntry is one memoized derived scalar pair — the (rows, violations)
// support of an FD check at a fixed commit point. Like entry it is built
// at most once and validated by its (tab, version) pair; unlike entry it
// is O(1)-sized, so memos are bounded by the candidate space of the
// workload rather than the projection entry cap.
type memoEntry struct {
	tab     *table.Table
	version uint64
	once    sync.Once
	a, b    int
	err     error
}

// groupRows materializes the group id → row indexes view of the
// projection, once, as two flat vectors (a counting sort of the row
// indexes by group id).
func (e *entry) groupRows() (starts, rows []int32) {
	e.groupsOnce.Do(func() {
		n := e.proj.Len()
		starts := make([]int32, n+1)
		for _, id := range e.proj.RowGroup {
			if id >= 0 {
				starts[id+1]++
			}
		}
		for id := 1; id <= n; id++ {
			starts[id] += starts[id-1]
		}
		// starts[id] is group id's fill cursor; once every row is placed
		// it has advanced to the group's end, starts[id+1] of the final
		// vector, so one shift restores the starts.
		rows := make([]int32, e.proj.NonNull)
		for i, id := range e.proj.RowGroup {
			if id >= 0 {
				rows[starts[id]] = int32(i)
				starts[id]++
			}
		}
		copy(starts[1:], starts[:n])
		starts[0] = 0
		e.starts, e.rows = starts, rows
	})
	return e.starts, e.rows
}

// numShards fixes the entry-map shard count. Sharding exists for the
// job server's resident dataset pool, where one cache is the shared hot
// read path of many concurrent jobs: a single mutex serializes every
// lookup of every job, while 16 shards keep the hit path — one short
// critical section on 1/16th of the key space — embarrassingly parallel
// (BenchmarkCacheConcurrentHits measures the gap). 16 is deliberately
// modest: the per-cache fixed cost is 16 empty maps, and single-job
// caches (the common case) see no behavior change.
const numShards = 16

// cacheShard is one slice of the entry map with its own lock. memos
// shares the shard's key space and lock but not its eviction bound —
// memo values are two ints, so dropping them buys back no memory worth
// the bookkeeping; they leave through Invalidate[All] with everything
// else.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*entry
	memos   map[string]*memoEntry
}

// counters are the internal atomic mirrors of Metrics, updated without
// any shard lock so the shared hit path stays contention-free.
type counters struct {
	hits, misses, stale, evictions atomic.Uint64
	invalidations, deltaHits       atomic.Uint64
	sharedHits                     atomic.Uint64
	// nentries tracks the live entry count across shards for the
	// eviction bound without summing map lengths on every insert.
	nentries atomic.Int64
}

// Cache memoizes projection indexes for the relations of one database.
// It is safe for concurrent use; builds of distinct projections proceed
// in parallel, duplicate requests for the same projection coalesce.
// Tables themselves are not synchronized — as everywhere else in the
// engine, mutating a table concurrently with reads (cached or not) is
// the caller's race; the pipeline only mutates between counting phases.
// The exception is an epoch-pinned cache (SetEpochPinned), whose every
// lookup resolves relations through Table.PinEpoch and therefore reads
// frozen commit points that are safe under a concurrent writer.
type Cache struct {
	db *table.Database
	// max bounds the entry count across all shards (DefaultMaxEntries).
	max int64
	// tr mirrors cache effectiveness into the run's observability
	// counters (hits, misses, rows scanned, partition refinements).
	// Nil — the default — makes every increment a no-op comparison, so
	// untraced consumers pay nothing; set it before the cache is shared
	// across goroutines (the pipeline sets it before any phase runs).
	tr *obs.Tracer
	// parent, when set, is the shared read-through tier: lookups whose
	// local table resolution matches the parent's resolution of the same
	// relation (same commit point of the same append-only history) are
	// answered from — and built into — the parent, so concurrent
	// consumers over pinned views of one resident database share one
	// warm projection store. Set before the cache is handed to
	// consumers; one level only (a parent's parent is never consulted).
	parent *Cache

	// epochPin makes every table resolution pin the relation's current
	// epoch (see SetEpochPinned).
	epochPin atomic.Bool

	shards [numShards]cacheShard
	c      counters

	// arena is the cache-owned pool of reusable []int32 scratch buffers
	// handed out by AcquireInts; every pooled buffer is all-zero across
	// its full capacity (ReleaseInts restores the invariant).
	arenaMu sync.Mutex
	arena   [][]int32
}

// NewCache creates a cache over db with the default entry bound.
func NewCache(db *table.Database) *Cache {
	c := &Cache{db: db, max: DefaultMaxEntries}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].memos = make(map[string]*memoEntry)
	}
	return c
}

// shardFor routes a key to its shard (FNV-1a over the key bytes).
func (c *Cache) shardFor(k []byte) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return &c.shards[h%numShards]
}

// SetTracer mirrors the cache's effectiveness counters into an
// observability tracer (hits, misses, rows scanned while building
// projections, partition-refinement passes). Call it before the cache
// is handed to concurrent consumers; a nil tracer (the default) keeps
// the counting hot path free of any tracing cost.
func (c *Cache) SetTracer(tr *obs.Tracer) {
	c.tr = tr
}

// SetEpochPinned makes the cache resolve every relation through
// Table.PinEpoch: lookups then read the relation's last commit point
// instead of the live table, which is what lets the job server
// share one cache across jobs while an incremental job keeps appending
// to the resident database. Entries are keyed by the frozen clone they
// were built over, so an epoch republication (the append commit) makes
// older entries stale on the usual (pointer, version) terms — and the
// delta-harvest path recognizes two epochs of one history and extends
// instead of rebuilding.
func (c *Cache) SetEpochPinned(on bool) {
	c.epochPin.Store(on)
}

// SetShared installs parent as the cache's shared read-through tier;
// see the field comment for the delegation contract. Call before the
// cache is handed to consumers.
func (c *Cache) SetShared(parent *Cache) {
	c.parent = parent
}

// Metrics returns a snapshot of the effectiveness counters.
func (c *Cache) Metrics() Metrics {
	m := Metrics{
		Hits:          c.c.hits.Load(),
		Misses:        c.c.misses.Load(),
		Stale:         c.c.stale.Load(),
		Evictions:     c.c.evictions.Load(),
		Invalidations: c.c.invalidations.Load(),
		DeltaHits:     c.c.deltaHits.Load(),
		SharedHits:    c.c.sharedHits.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		m.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return m
}

// table resolves a relation to the extension state this cache reads:
// the live table, or its pinned epoch when SetEpochPinned is on.
func (c *Cache) table(rel string) (*table.Table, bool) {
	t, ok := c.db.Table(rel)
	if ok && c.epochPin.Load() {
		t = t.PinEpoch()
	}
	return t, ok
}

// TableFor resolves the current table of a relation (nil when unknown).
// Consumers handed a *Table directly (key inference) use it to confirm
// the cache and they are looking at the same extension.
func (c *Cache) TableFor(rel string) *table.Table {
	t, _ := c.table(rel)
	return t
}

// SampleRows returns rel's deterministic row sample caught up to the
// extension this cache reads, touching no column. The slice is shared
// and must not be mutated. A catch-up pass that did work is published as
// the sketch-build counter on the cache's tracer. Safe for concurrent
// callers (the FD checking fan-out hits it per worker).
func (c *Cache) SampleRows(rel string) ([]int32, error) {
	tab, ok := c.table(rel)
	if !ok {
		return nil, fmt.Errorf("stats: unknown relation %q", rel)
	}
	rows, built := tab.SampleRows()
	if built {
		c.tr.Add(obs.CtrSketchBuild, 1)
	}
	return rows, nil
}

// appendKey appends the map key of (rel, attrs) to b. The attribute
// list is order-sensitive on purpose: group keys concatenate values
// positionally, and join queries compare keys across two relations
// attribute by attribute. Every segment is uvarint length-prefixed, so
// names containing separator bytes cannot collide ({"a", "b\x1fc"} vs
// {"a\x1fb", "c"}); and since uvarints are prefix-free, keyPrefix(rel)
// identifies exactly the keys of one relation. Lookups build the key in
// a stack buffer and probe with the no-allocation string(b) map form, so
// only an inserted entry materializes it.
func appendKey(b []byte, rel string, attrs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(rel)))
	b = append(b, rel...)
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(len(a)))
		b = append(b, a...)
	}
	return b
}

// keyPrefix is the byte prefix shared by every cache key of one relation.
func keyPrefix(rel string) string {
	b := make([]byte, 0, len(rel)+2)
	b = binary.AppendUvarint(b, uint64(len(rel)))
	return string(append(b, rel...))
}

// lookup returns the valid projection entry for (rel, attrs), building
// it on demand. The double-checked (pointer, version) test is the
// invalidation hook: any mutation since the build forces a rebuild.
//
// With a shared parent installed, the lookup first checks whether the
// parent resolves the relation to the same commit point this cache
// reads; if so the parent answers (and caches) the lookup, so every
// consumer over the same resident data shares one projection store.
// Relations the parent does not know (NEI conceptualization, restruct
// splits against a job's pinned view) and resolutions that drifted (the
// job pinned an older epoch than the parent now serves) fall through to
// the local store — consistency by construction, no invalidation
// choreography between tiers.
func (c *Cache) lookup(rel string, attrs []string) (*entry, error) {
	tab, ok := c.table(rel)
	if !ok {
		return nil, fmt.Errorf("stats: unknown relation %q", rel)
	}
	if p := c.parent; p != nil {
		if pt, ok := p.table(rel); ok && sameCommitPoint(pt, tab) {
			return p.lookupIn(pt, rel, attrs, true)
		}
	}
	return c.lookupIn(tab, rel, attrs, false)
}

// lookupIn is lookup against an already-resolved table. shared marks a
// delegated lookup from a child cache, which feeds the shared-hit
// counters when it lands on an entry some other consumer already built.
func (c *Cache) lookupIn(tab *table.Table, rel string, attrs []string, shared bool) (*entry, error) {
	e, hit := c.getEntry(tab, rel, attrs)
	if shared && hit {
		c.c.sharedHits.Add(1)
		c.tr.Add(obs.CtrSharedCacheHits, 1)
	}
	c.build(e, tab, attrs)
	return e, e.err
}

// sameCommitPoint reports whether two resolutions of one relation view
// the same extension state: the same table object, or two commit points
// of the same append-only history (same epoch origin) at the same
// version. Version advances by exactly the net row growth on every
// mutation path, so equal versions of one history are the same rows.
func sameCommitPoint(a, b *table.Table) bool {
	if a == b {
		return true
	}
	return a != nil && b != nil &&
		a.EpochOrigin() == b.EpochOrigin() && a.Version() == b.Version()
}

// getEntry returns the cache slot for (rel, attrs), installing a fresh
// one when absent or stale; hit reports whether a valid (built or
// building) entry was already present.
func (c *Cache) getEntry(tab *table.Table, rel string, attrs []string) (*entry, bool) {
	var buf [128]byte
	k := appendKey(buf[:0], rel, attrs)
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[string(k)]
	fresh := e == nil
	var prev *table.Projection
	prevRows := 0
	if ok && (e.tab != tab || e.version != tab.Version()) {
		c.c.stale.Add(1)
		// Harvest the stale projection as a delta-extension base when
		// the table merely grew by appends since the build: either the
		// same table object, or a later commit point of the same
		// append-only history (two frozen epochs with one origin — the
		// shared-cache case, where the resident table republishes its
		// epoch at every append commit). Every mutation path advances
		// Version by exactly the net row growth, so Δversion == Δrows
		// certifies that rows [0, prevRows) and the dictionary prefixes
		// behind them are untouched — precisely what ExtendProjection
		// requires. done gates against a build still in flight on the
		// old entry.
		if e.done.Load() && e.err == nil && len(attrs) > 1 &&
			(e.tab == tab || e.tab.EpochOrigin() == tab.EpochOrigin()) {
			if pr := len(e.proj.RowGroup); tab.Len() > pr &&
				tab.Version()-e.version == uint64(tab.Len()-pr) {
				prev, prevRows = e.proj, pr
			}
		}
		ok = false
	}
	if !ok {
		c.c.misses.Add(1)
		c.tr.Add(obs.CtrStatsMisses, 1)
		if fresh {
			c.evictFor(s)
			c.c.nentries.Add(1)
		}
		e = &entry{tab: tab, version: tab.Version(), prev: prev, prevRows: prevRows}
		s.entries[string(k)] = e
		return e, false
	}
	c.c.hits.Add(1)
	c.tr.Add(obs.CtrStatsHits, 1)
	return e, true
}

// evictFor enforces the global entry bound before an insert into shard
// s (whose lock the caller holds): while at the bound, drop arbitrary
// entries — from s when it has any, otherwise from whichever other
// shard a TryLock probe reaches. Skipping contended shards keeps the
// bound approximate under concurrency and exact when quiet; eviction
// never changes results, only their cost.
func (c *Cache) evictFor(s *cacheShard) {
	for c.c.nentries.Load() >= c.max {
		if !c.evictOne(s) {
			return
		}
	}
}

// evictOne drops one arbitrary entry, preferring the locked shard s;
// reports whether a victim was found.
func (c *Cache) evictOne(s *cacheShard) bool {
	for k := range s.entries {
		delete(s.entries, k)
		c.c.nentries.Add(-1)
		c.c.evictions.Add(1)
		return true
	}
	for i := range c.shards {
		o := &c.shards[i]
		if o == s || !o.mu.TryLock() {
			continue
		}
		for k := range o.entries {
			delete(o.entries, k)
			c.c.nentries.Add(-1)
			c.c.evictions.Add(1)
			o.mu.Unlock()
			return true
		}
		o.mu.Unlock()
	}
	return false
}

// build materializes the entry's projection, once: by extending a
// harvested predecessor over the appended rows when getEntry installed
// one, and otherwise by tab.Projection over the whole extension.
func (c *Cache) build(e *entry, tab *table.Table, attrs []string) {
	if e.done.Load() {
		return // built: the warm path neither locks nor allocates
	}
	e.once.Do(func() {
		defer e.done.Store(true)
		// Delta extension: a harvested predecessor projection is refined
		// over the appended rows only — O(groups + delta) instead of a
		// table scan — bit-identical to the from-scratch build (see
		// table/delta.go). A nil result falls through to the normal path.
		if e.prev != nil {
			if p := tab.ExtendProjection(attrs, e.prev, e.prevRows); p != nil {
				e.proj = p
				c.c.deltaHits.Add(1)
				c.tr.Add(obs.CtrDeltaRefines, 1)
				c.tr.Add(obs.CtrRowsScanned, int64(tab.Len()-e.prevRows))
				e.prev = nil
				return
			}
			e.prev = nil
		}
		e.proj, e.err = tab.Projection(attrs)
		if e.err == nil {
			c.noteBuild(tab, e.proj)
		}
	})
}

// noteBuild mirrors one projection build into the observability
// counters: a build scans the extension once, and its refinement steps
// are counted and split by remapping strategy.
func (c *Cache) noteBuild(tab *table.Table, p *table.Projection) {
	c.tr.Add(obs.CtrRowsScanned, int64(tab.Len()))
	dense, mapped := p.RefineSteps()
	if steps := dense + mapped; steps > 0 {
		c.tr.Add(obs.CtrRefinements, steps)
		c.tr.Add(obs.CtrRefineDense, dense)
		c.tr.Add(obs.CtrRefineMap, mapped)
	}
}

// AcquireInts hands out an all-zero []int32 of length n from the
// cache-owned scratch arena, growing the arena only when no pooled
// buffer is large enough — so steady-state consumers (the FD-check
// kernels) run allocation-free. Return the buffer with ReleaseInts; the
// same slice must be returned, not a reslice.
func (c *Cache) AcquireInts(n int) []int32 {
	c.arenaMu.Lock()
	for i := len(c.arena) - 1; i >= 0; i-- {
		if buf := c.arena[i]; cap(buf) >= n {
			last := len(c.arena) - 1
			c.arena[i] = c.arena[last]
			c.arena[last] = nil
			c.arena = c.arena[:last]
			c.arenaMu.Unlock()
			return buf[:n]
		}
	}
	c.arenaMu.Unlock()
	return make([]int32, n)
}

// ReleaseInts returns a buffer obtained from AcquireInts to the arena,
// re-zeroing it first. Pooled buffers are zero across their full
// capacity by induction: AcquireInts only exposes [0, n) of a pooled
// buffer, holders only write inside it, and ReleaseInts clears exactly
// that window.
func (c *Cache) ReleaseInts(buf []int32) {
	if buf == nil {
		return
	}
	clear(buf)
	c.arenaMu.Lock()
	c.arena = append(c.arena, buf)
	c.arenaMu.Unlock()
}

// ReleaseCleanInts returns a buffer obtained from AcquireInts that the
// caller has already restored to all-zero — typically by resetting just
// the slots it touched — so returning it costs O(1) instead of
// ReleaseInts' O(len) clear.
func (c *Cache) ReleaseCleanInts(buf []int32) {
	if buf == nil {
		return
	}
	c.arenaMu.Lock()
	c.arena = append(c.arena, buf)
	c.arenaMu.Unlock()
}

// GroupVector returns the memoized row → group-id vector of rel over
// attrs together with the group count and the non-NULL row count — the
// three quantities the dense FD-check kernel reads, in a single lookup.
// The caller must treat the slice as read-only.
func (c *Cache) GroupVector(rel string, attrs []string) (rg []int32, groups, nonNull int, err error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return nil, 0, 0, err
	}
	return e.proj.RowGroup, e.proj.Len(), e.proj.NonNull, nil
}

// SupportMemo returns the memoized (rows, violations) support of the
// dependency lhs → rhs over rel at the cache's current commit point,
// running compute at most once per commit point. The memo is validated
// on the same (pointer, version) terms as projection entries, so any
// mutation since the computation forces a recompute; with a shared
// parent installed, commit-point-matched lookups are answered from —
// and computed into — the parent, which is what lets warm jobs on a
// resident dataset answer every RHS-Discovery extension check without
// touching a row. The key appends rhs to lhs; since rhs is always the
// single final segment, distinct dependencies cannot collide.
func (c *Cache) SupportMemo(rel string, lhs []string, rhs string, compute func() (rows, violations int, err error)) (int, int, error) {
	tab, ok := c.table(rel)
	if !ok {
		return 0, 0, fmt.Errorf("stats: unknown relation %q", rel)
	}
	if p := c.parent; p != nil {
		if pt, ok := p.table(rel); ok && sameCommitPoint(pt, tab) {
			return p.supportMemoIn(pt, rel, lhs, rhs, compute, true)
		}
	}
	return c.supportMemoIn(tab, rel, lhs, rhs, compute, false)
}

// supportMemoIn is SupportMemo against an already-resolved table; shared
// marks a delegated lookup from a child cache, which feeds the
// shared-hit counters when it lands on a memo some other consumer
// computed. compute runs outside the shard lock (it re-enters the cache
// for group vectors); duplicates coalesce on the memo's once.
func (c *Cache) supportMemoIn(tab *table.Table, rel string, lhs []string, rhs string, compute func() (int, int, error), shared bool) (int, int, error) {
	var buf [128]byte
	k := appendKey(buf[:0], rel, lhs)
	k = binary.AppendUvarint(k, uint64(len(rhs)))
	k = append(k, rhs...)
	s := c.shardFor(k)
	s.mu.Lock()
	m, ok := s.memos[string(k)]
	if ok && (m.tab != tab || m.version != tab.Version()) {
		ok = false
	}
	if !ok {
		m = &memoEntry{tab: tab, version: tab.Version()}
		s.memos[string(k)] = m
	} else if shared {
		c.c.sharedHits.Add(1)
		c.tr.Add(obs.CtrSharedCacheHits, 1)
	}
	s.mu.Unlock()
	m.once.Do(func() { m.a, m.b, m.err = compute() })
	return m.a, m.b, m.err
}

// GroupReps returns the memoized group-id → representative-row vector
// of rel over attrs: for each group, the first row belonging to it. The
// FD delta check compares appended rows against their group's
// representative. The caller must treat the slice as read-only.
func (c *Cache) GroupReps(rel string, attrs []string) ([]int32, error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return nil, err
	}
	return e.proj.Reps(), nil
}

// GroupRows returns the memoized group id → row indexes view of the
// projection of rel over attrs: group g's rows are
// rows[starts[g]:starts[g+1]], in row order. The caller must treat both
// vectors as read-only.
func (c *Cache) GroupRows(rel string, attrs []string) (starts, rows []int32, err error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return nil, nil, err
	}
	starts, rows = e.groupRows()
	return starts, rows, nil
}

// KeySet returns the distinct-key set of the projection in the canonical
// string encoding (value.AppendKey plus a 0x1f terminator per attribute;
// the int-specialized fast-path representation is re-encoded), for
// consumers that compare key sets
// across arbitrary attribute pairs.
func (c *Cache) KeySet(rel string, attrs []string) (map[string]struct{}, error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return nil, err
	}
	return stringKeys(e.proj), nil
}

// stringKeys materializes the canonical string key set of a projection,
// re-encoding the int fast-path dictionary when needed. Keys use the
// self-delimiting value encoding, so sets from arbitrary attribute lists
// are comparable without collisions.
func stringKeys(p *table.Projection) map[string]struct{} {
	set := make(map[string]struct{}, p.Len())
	if ints := p.IntDict(); ints != nil {
		var scratch []byte
		for v := range ints {
			scratch = value.NewInt(v).AppendKey(scratch[:0])
			scratch = append(scratch, 0x1f)
			set[string(scratch)] = struct{}{}
		}
		return set
	}
	for k := range p.StrDict() {
		set[k] = struct{}{}
	}
	return set
}

// Membership returns a predicate testing whether a projected row's value
// combination occurs in the cached projection of rel over attrs. The
// returned closure reuses a scratch buffer and is not safe for
// concurrent use.
func (c *Cache) Membership(rel string, attrs []string) (func(row []value.Value) bool, error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return nil, err
	}
	p := e.proj
	if ints := p.IntDict(); ints != nil {
		return func(row []value.Value) bool {
			if len(row) != 1 || row[0].IsNull() || row[0].Kind() != value.KindInt {
				return false
			}
			_, ok := ints[row[0].Int()]
			return ok
		}, nil
	}
	strs := p.StrDict()
	var scratch []byte
	return func(row []value.Value) bool {
		scratch = scratch[:0]
		for _, v := range row {
			if v.IsNull() {
				return false
			}
			scratch = v.AppendKey(scratch)
			scratch = append(scratch, 0x1f)
		}
		_, ok := strs[string(scratch)]
		return ok
	}, nil
}

// DistinctCount is the paper's ‖r[X]‖ — table.DistinctCount through the
// cache.
func (c *Cache) DistinctCount(rel string, attrs []string) (int, error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return 0, err
	}
	return e.proj.Len(), nil
}

// NonNullRows counts the tuples with no NULL among attrs — the row base
// of key-inference uniqueness tests and FD supports.
func (c *Cache) NonNullRows(rel string, attrs []string) (int, error) {
	e, err := c.lookup(rel, attrs)
	if err != nil {
		return 0, err
	}
	return e.proj.NonNull, nil
}

// JoinDistinctCount is ‖r_k[A_k] ⋈ r_l[A_l]‖ — the N_kl of IND-Discovery
// — computed as the key intersection of the two cached projections.
func (c *Cache) JoinDistinctCount(relK string, ak []string, relL string, al []string) (int, error) {
	if len(ak) != len(al) {
		return 0, fmt.Errorf("stats: equi-join arity mismatch: %v vs %v", ak, al)
	}
	ek, err := c.lookup(relK, ak)
	if err != nil {
		return 0, err
	}
	el, err := c.lookup(relL, al)
	if err != nil {
		return 0, err
	}
	pk, pl := ek.proj, el.proj
	if ik, il := pk.IntDict(), pl.IntDict(); ik != nil && il != nil {
		a, b := ik, il
		if len(b) < len(a) {
			a, b = b, a
		}
		n := 0
		for v := range a {
			if _, shared := b[v]; shared {
				n++
			}
		}
		return n, nil
	}
	gk, gl := pk.StrDict(), pl.StrDict()
	// Mixed representations (an integer column joined against a
	// non-integer projection) re-encode the int side; keys of different
	// kinds never collide, exactly as in a direct scan.
	if gk == nil {
		gk = stringKeysAsInt32(pk)
	}
	if gl == nil {
		gl = stringKeysAsInt32(pl)
	}
	if len(gl) < len(gk) {
		gk, gl = gl, gk
	}
	n := 0
	for k := range gk {
		if _, shared := gl[k]; shared {
			n++
		}
	}
	return n, nil
}

// stringKeysAsInt32 is stringKeys with the dictionary value type of the
// projection maps, for the mixed-representation fallbacks.
func stringKeysAsInt32(p *table.Projection) map[string]int32 {
	ints := p.IntDict()
	out := make(map[string]int32, len(ints))
	var scratch []byte
	for v, id := range ints {
		scratch = value.NewInt(v).AppendKey(scratch[:0])
		scratch = append(scratch, 0x1f)
		out[string(scratch)] = id
	}
	return out
}

// ContainedIn reports whether the inclusion dependency
// relK[ak] ≪ relL[al] is satisfied by the extension.
func (c *Cache) ContainedIn(relK string, ak []string, relL string, al []string) (bool, error) {
	if len(ak) != len(al) {
		return false, fmt.Errorf("stats: inclusion arity mismatch: %v vs %v", ak, al)
	}
	ek, err := c.lookup(relK, ak)
	if err != nil {
		return false, err
	}
	el, err := c.lookup(relL, al)
	if err != nil {
		return false, err
	}
	pk, pl := ek.proj, el.proj
	if ik, il := pk.IntDict(), pl.IntDict(); ik != nil && il != nil {
		for v := range ik {
			if _, ok := il[v]; !ok {
				return false, nil
			}
		}
		return true, nil
	}
	gk, gl := pk.StrDict(), pl.StrDict()
	if gk == nil {
		gk = stringKeysAsInt32(pk)
	}
	if gl == nil {
		gl = stringKeysAsInt32(pl)
	}
	for k := range gk {
		if _, ok := gl[k]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// Invalidate drops every cached projection of one relation — the
// explicit invalidation hook for callers that just mutated it.
func (c *Cache) Invalidate(rel string) {
	prefix := keyPrefix(rel)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			if strings.HasPrefix(k, prefix) {
				delete(s.entries, k)
				c.c.nentries.Add(-1)
				c.c.invalidations.Add(1)
			}
		}
		for k := range s.memos {
			if strings.HasPrefix(k, prefix) {
				delete(s.memos, k)
			}
		}
		s.mu.Unlock()
	}
}

// InvalidateAll drops every cached projection — called by the pipeline
// after schema-restructuring migrations touch many relations at once,
// and by the pool's memory governor to shed an idle dataset's entries.
func (c *Cache) InvalidateAll() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.entries)
		s.entries = make(map[string]*entry)
		s.memos = make(map[string]*memoEntry)
		c.c.nentries.Add(int64(-n))
		c.c.invalidations.Add(uint64(n))
		s.mu.Unlock()
	}
}
