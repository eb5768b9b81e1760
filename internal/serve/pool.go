// The resident dataset pool: cross-job warm state for snapshot-backed
// datasets. The per-job path opens the snapshot, builds every projection
// it needs and throws all of it away when the job finishes — even when
// hundreds of jobs target the same named dataset, the serving pattern
// the north-star implies. The pool lifts the reuse the stats cache
// already performs within one run to cross-job scope: the first job on
// a dataset opens the snapshot once (singleflight — concurrent jobs on
// a cold dataset wait on that one open) and installs a long-lived
// table.Database plus a shared epoch-pinned stats.Cache; every later
// job pins the current epoch and runs with a job-local cache that reads
// through to the shared one, so projection partitions, prefix
// partitions and row samples computed by any job accelerate all of them.
//
// Consistency is by construction, not by locking: non-incremental jobs
// run over a pinned epoch view (immutable commit points), the shared
// cache resolves relations through the same PinEpoch, and the
// read-through delegation in stats only fires when both tiers resolve a
// relation to the same commit point. Incremental jobs mutate the
// resident database under the entry's mutation lock; the append commit
// republishes the epoch, which makes older shared entries stale on the
// usual (pointer, version) terms and lets the delta-harvest path extend
// them instead of rebuilding.
//
// Memory is governed by MaxResidentBytes: when the resident footprint
// (table.ApproxBytes per dataset) exceeds the budget, the governor
// first sheds the stats-cache entries of idle datasets (cheap memory
// back, dataset stays warm) and then evicts whole idle datasets in LRU
// order — never one with pinned consumers, so an epoch a running job
// reads is never touched. An evicted dataset reverts to its on-disk
// snapshot; rows appended by incremental jobs were never persisted, so
// this mirrors what TTL eviction of the job itself already meant.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"dbre/internal/core"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/table"
)

// pool is the resident dataset registry of one server.
type pool struct {
	budget int64 // MaxResidentBytes; <= 0 is unbounded
	tr     *obs.Tracer

	mu      sync.Mutex
	entries map[string]*poolEntry
	ticks   uint64 // LRU clock: bumped on every acquire/release
}

// poolEntry is one resident dataset. The open is singleflight: the
// entry is installed before the snapshot is read, ready closes when the
// open finished (err set on failure), and every concurrent acquirer
// waits on ready instead of opening its own copy.
type poolEntry struct {
	name  string
	ready chan struct{}
	err   error

	// db is the resident live database; cache the shared epoch-pinned
	// stats tier over it. Both are set before ready closes.
	db    *table.Database
	cache *stats.Cache

	// mutMu serializes mutation of the resident database across jobs:
	// an incremental job's initial discovery pass and every
	// append-and-revalidate hold it, so concurrent readers always see
	// either the previous or the next commit point, never a torn one.
	mutMu sync.Mutex

	// scans memoizes the program scan per program set (see programScan),
	// at most scanMemoCap of them, oldest dropped first. It lives and
	// dies with the entry.
	scanMu    sync.Mutex
	scans     map[scanKey]*core.ProgramScan
	scanOrder []scanKey

	// The fields below are guarded by the pool's mutex.
	pins      int    // consumers currently using the entry
	lastUse   uint64 // pool tick of the last acquire/release, for LRU
	bytes     int64  // ApproxBytes at open / after the last append
	epoch     uint64 // db.Epoch() at open / after the last append
	dirty     bool   // mutated since open; eviction loses the delta
	relations int
	rows      int
}

func newPool(budget int64, tr *obs.Tracer) *pool {
	return &pool{budget: budget, tr: tr, entries: make(map[string]*poolEntry)}
}

// acquire returns the resident entry for the named dataset, opening the
// snapshot in dir on a cold miss. The entry comes back pinned; the
// caller must release it exactly once. Jobs that land on an entry —
// resident or still opening — count as pool hits; the one that
// triggered the open counts as the miss.
func (p *pool) acquire(ctx context.Context, name, dir string) (*poolEntry, error) {
	p.mu.Lock()
	if e, ok := p.entries[name]; ok {
		e.pins++
		p.ticks++
		e.lastUse = p.ticks
		p.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			p.release(e)
			return nil, ctx.Err()
		}
		if e.err != nil {
			p.release(e)
			return nil, e.err
		}
		p.tr.Add(obs.CtrPoolHits, 1)
		return e, nil
	}
	e := &poolEntry{name: name, ready: make(chan struct{}), pins: 1}
	p.ticks++
	e.lastUse = p.ticks
	p.entries[name] = e
	p.mu.Unlock()

	p.tr.Add(obs.CtrPoolMisses, 1)
	p.open(e, dir)
	if e.err != nil {
		// Drop the failed entry so the next job retries the open;
		// waiters observe e.err through ready and release their pins on
		// the now-orphaned entry themselves.
		p.mu.Lock()
		delete(p.entries, name)
		p.mu.Unlock()
		return nil, e.err
	}
	p.govern(e)
	return e, nil
}

// open restores the snapshot and installs the shared warm state. It
// runs on the first acquirer's goroutine but deliberately not under the
// job's context or tracer: the open outlives a cancelled opener (other
// jobs wait on it), and pooled job traces stay free of open spans —
// which is also what makes warm and cold pooled reports comparable.
func (p *pool) open(e *poolEntry, dir string) {
	defer close(e.ready)
	// A panic fails the open like an error: the opener drops the entry
	// and every waiter sees e.err, instead of a ready entry with no
	// database.
	defer func() {
		if v := recover(); v != nil {
			e.err = fmt.Errorf("open panicked: %v\n%s", v, debug.Stack())
		}
	}()
	ctx := obs.NewContext(context.Background(), p.tr)
	// Preload on purpose: epoch pinning materializes lazy columns
	// anyway (freezing captures capped views of loaded storage), and a
	// resident dataset amortizes the one-time load across every job.
	db, info, err := storage.OpenCtx(ctx, dir, storage.Options{Preload: true})
	if err != nil {
		e.err = err
		return
	}
	info.Close()
	cache := stats.NewCache(db)
	cache.SetEpochPinned(true)
	cache.SetTracer(p.tr)
	e.db = db
	e.cache = cache
	p.mu.Lock()
	e.bytes = db.ApproxBytes()
	e.epoch = info.Epoch
	e.relations = info.Relations
	e.rows = info.Rows
	p.mu.Unlock()
}

// release unpins an entry acquired with acquire.
func (p *pool) release(e *poolEntry) {
	p.mu.Lock()
	if e.pins > 0 {
		e.pins--
	}
	p.ticks++
	e.lastUse = p.ticks
	p.mu.Unlock()
}

// noteMutation records that an incremental job committed an append to
// the entry: the footprint and epoch move, and eviction would now lose
// the (never-persisted) delta, so dirty entries are evicted last.
func (p *pool) noteMutation(e *poolEntry) {
	bytes := e.db.ApproxBytes()
	epoch := e.db.Epoch()
	rows := e.db.TotalRows()
	p.mu.Lock()
	e.bytes = bytes
	e.epoch = epoch
	e.rows = rows
	e.dirty = true
	p.mu.Unlock()
	p.govern(nil)
}

// govern enforces the memory budget: over budget it first sheds the
// stats-cache entries of idle datasets (LRU order), then evicts whole
// idle datasets, clean before dirty, until the resident table footprint
// fits or only pinned (or just-opened) entries remain. keep is the
// entry the caller just installed and must survive this round.
func (p *pool) govern(keep *poolEntry) {
	if p.budget <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := int64(0)
	for _, e := range p.entries {
		if e.db != nil {
			total += e.bytes
		}
	}
	if total <= p.budget {
		return
	}
	// Pressure tier 1: drop idle datasets' cached projections. The
	// datasets stay resident and warm-bootable; only the derived
	// statistics (rebuilt on demand) are released.
	for _, e := range p.idleByLRU(keep) {
		e.cache.InvalidateAll()
	}
	// Pressure tier 2: evict idle datasets until the table footprint
	// fits, clean entries before dirty ones (a dirty eviction loses the
	// never-persisted appended delta).
	for _, wantDirty := range []bool{false, true} {
		for total > p.budget {
			var victim *poolEntry
			for _, e := range p.idleByLRU(keep) {
				if e.dirty == wantDirty {
					victim = e
					break
				}
			}
			if victim == nil {
				break
			}
			delete(p.entries, victim.name)
			total -= victim.bytes
			p.tr.Add(obs.CtrPoolEvictions, 1)
		}
	}
}

// idleByLRU lists the evictable entries — open, unpinned, not keep — in
// least-recently-used order. Called with p.mu held.
func (p *pool) idleByLRU(keep *poolEntry) []*poolEntry {
	var idle []*poolEntry
	for _, e := range p.entries {
		if e == keep || e.db == nil || e.pins > 0 {
			continue
		}
		idle = append(idle, e)
	}
	for i := 1; i < len(idle); i++ {
		for j := i; j > 0 && idle[j].lastUse < idle[j-1].lastUse; j-- {
			idle[j], idle[j-1] = idle[j-1], idle[j]
		}
	}
	return idle
}

// scanMemoCap bounds the program scans one resident dataset memoizes.
// Served clients typically submit one or a few program sets per
// dataset; a client cycling through more only re-scans.
const scanMemoCap = 8

// scanKey identifies one program scan of a resident dataset: a digest
// of the programs (sorted name/source pairs) and of the catalog's
// relation names, plus the closure setting. The catalog part is there
// because an incremental job's NEI conceptualization adds relations to
// the resident catalog, and a program naming such a relation resolves
// differently once it exists; appends never change the catalog.
type scanKey struct {
	digest  [sha256.Size]byte
	closure bool
}

func newScanKey(cat *relation.Catalog, programs map[string]string, closure bool) scanKey {
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	field := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	for _, name := range names {
		field(name)
		field(programs[name])
	}
	h.Write([]byte{0xff}) // programs end; relation names follow
	for _, rel := range cat.Names() {
		field(rel)
	}
	k := scanKey{closure: closure}
	h.Sum(k.digest[:0])
	return k
}

// programScan returns the memoized scan of programs against cat,
// scanning untraced on a miss. The scan runs under the memo lock, so a
// key is scanned once and every job of the dataset reads one Q.
func (e *poolEntry) programScan(cat *relation.Catalog, programs map[string]string, closure bool) *core.ProgramScan {
	k := newScanKey(cat, programs, closure)
	e.scanMu.Lock()
	defer e.scanMu.Unlock()
	if ps, ok := e.scans[k]; ok {
		return ps
	}
	ps := core.ScanPrograms(context.Background(), cat, programs, closure)
	if e.scans == nil {
		e.scans = make(map[scanKey]*core.ProgramScan)
	}
	if len(e.scanOrder) == scanMemoCap {
		delete(e.scans, e.scanOrder[0])
		e.scanOrder = e.scanOrder[1:]
	}
	e.scans[k] = ps
	e.scanOrder = append(e.scanOrder, k)
	return ps
}

// PoolDataset is the monitoring view of one resident dataset.
type PoolDataset struct {
	Name      string `json:"name"`
	Relations int    `json:"relations"`
	Rows      int    `json:"rows"`
	Bytes     int64  `json:"bytes"`
	Pins      int    `json:"pins"`
	Epoch     uint64 `json:"epoch"`
	Dirty     bool   `json:"dirty,omitempty"`
	// CacheEntries / SharedHits describe the dataset's shared stats
	// cache: resident projections and lookups answered for a job that
	// did not build them.
	CacheEntries int    `json:"cache_entries"`
	SharedHits   uint64 `json:"shared_hits"`
}

// PoolStats is the pool section of GET /stats.
type PoolStats struct {
	Resident  int   `json:"resident"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget,omitempty"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SharedCacheHits aggregates the shared-cache-hits counter across
	// datasets (evicted ones included — it is the lifetime counter).
	SharedCacheHits int64         `json:"shared_cache_hits"`
	Datasets        []PoolDataset `json:"datasets,omitempty"`
}

// snapshot renders the pool occupancy. Cache metrics are read after the
// pool lock drops (they are atomics inside stats.Cache).
func (p *pool) snapshot() PoolStats {
	st := PoolStats{
		Budget:          p.budget,
		Hits:            p.tr.Count(obs.CtrPoolHits),
		Misses:          p.tr.Count(obs.CtrPoolMisses),
		Evictions:       p.tr.Count(obs.CtrPoolEvictions),
		SharedCacheHits: p.tr.Count(obs.CtrSharedCacheHits),
	}
	p.mu.Lock()
	for _, e := range p.entries {
		if e.db == nil {
			continue // still opening
		}
		st.Datasets = append(st.Datasets, PoolDataset{
			Name:      e.name,
			Relations: e.relations,
			Rows:      e.rows,
			Bytes:     e.bytes,
			Pins:      e.pins,
			Epoch:     e.epoch,
			Dirty:     e.dirty,
		})
		st.Bytes += e.bytes
	}
	caches := make(map[string]*stats.Cache, len(st.Datasets))
	for _, e := range p.entries {
		if e.db != nil {
			caches[e.name] = e.cache
		}
	}
	p.mu.Unlock()
	sort.Slice(st.Datasets, func(i, j int) bool { return st.Datasets[i].Name < st.Datasets[j].Name })
	for i := range st.Datasets {
		m := caches[st.Datasets[i].Name].Metrics()
		st.Datasets[i].CacheEntries = m.Entries
		st.Datasets[i].SharedHits = m.SharedHits
	}
	st.Resident = len(st.Datasets)
	return st
}

// PrewarmResult reports one dataset warmed at boot.
type PrewarmResult struct {
	Dataset   string
	Relations int
	Rows      int
	Bytes     int64
	Wall      time.Duration
}

// Prewarm opens and pins the named snapshot datasets into the pool so
// the first real job on each finds it resident. The single name "all"
// expands to every snapshot-backed dataset under the root. Results are
// returned in warm order with per-dataset wall time; the first error
// aborts the remainder.
func (s *Server) Prewarm(ctx context.Context, names []string) ([]PrewarmResult, error) {
	if s.pool == nil {
		return nil, fmt.Errorf("resident pool is disabled (no dataset root, or a negative max-resident-bytes)")
	}
	if len(names) == 1 && names[0] == "all" {
		all, err := s.snapshotDatasets()
		if err != nil {
			return nil, err
		}
		names = all
	}
	out := make([]PrewarmResult, 0, len(names))
	for _, name := range names {
		if err := validateName("dataset", name); err != nil {
			return out, err
		}
		dir := filepath.Join(s.cfg.DatasetRoot, name)
		if !storage.IsSnapshot(dir) {
			return out, fmt.Errorf("dataset %s holds no snapshot; only snapshot-backed datasets can be prewarmed", name)
		}
		start := time.Now()
		e, err := s.pool.acquire(ctx, name, dir)
		if err != nil {
			return out, fmt.Errorf("prewarming dataset %s: %w", name, err)
		}
		s.pool.mu.Lock()
		res := PrewarmResult{
			Dataset:   name,
			Relations: e.relations,
			Rows:      e.rows,
			Bytes:     e.bytes,
			Wall:      time.Since(start),
		}
		s.pool.mu.Unlock()
		s.pool.release(e)
		out = append(out, res)
	}
	return out, nil
}

// snapshotDatasets lists the snapshot-backed dataset names under the
// configured root, sorted.
func (s *Server) snapshotDatasets() ([]string, error) {
	if s.cfg.DatasetRoot == "" {
		return nil, fmt.Errorf("server has no dataset root configured")
	}
	des, err := os.ReadDir(s.cfg.DatasetRoot)
	if err != nil {
		return nil, fmt.Errorf("listing datasets: %w", err)
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		if storage.IsSnapshot(filepath.Join(s.cfg.DatasetRoot, de.Name())) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
