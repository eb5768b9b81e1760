// Epoch-versioned reads: MVCC-lite snapshots of a table.
//
// An epoch is a frozen, immutable view of one table at a batch commit
// point: a lightweight Table clone whose code vectors and dictionaries
// are capped sub-slices of the live column storage. Sharing is sound
// because both stores are append-only past every commit point — appends
// only write indexes beyond the published caps, and the strict-mode
// batch rollback truncates to keep ≥ base, where base is itself ≥ every
// previously committed row count (and keepDict ≥ baseDict ≥ every
// previously committed dictionary length), so re-grown storage never
// overwrites bytes inside a published cap.
//
// Every commit publishes: the batch appender's commit tail (AppendBatch
// and the per-row insert paths, which commit one-row batches through
// it — commit and rollback alike land on a consistent state), an empty
// table's construction, an eager restore, and a lazy restore's last
// deferred section load. So a live table always holds the
// epoch of its last commit, freezing runs only on the writer (or inside
// the section load a writer must wait for), and pinning is an atomic
// load plus a claim — discovery can run over a pinned epoch while ingest
// keeps appending to the live table, with results consistent with the
// pinned commit point. A claimed epoch is never written again; one the
// writer replaced unclaimed is recycled as the next epoch's storage, so
// per-row commits do not allocate a snapshot each.
package table

// Claim states of a published epoch: free until a pin hands it out,
// recycled once the writer has replaced it unclaimed.
const (
	epochFree int32 = iota
	epochPinned
	epochRecycled
)

// publishEpoch installs a frozen clone of the current commit point:
// capped views of codes and dict, copied counters, no interning maps, no
// constraint indexes, no lazy state — O(columns) slice headers, no row
// or dictionary data copied. Called by the commit paths only (never
// concurrently with itself), with every column resident. The clone it
// replaces becomes the next one's storage unless a pin has claimed it,
// so commits that nobody pins in between allocate nothing.
func (t *Table) publishEpoch() {
	if t.frozen {
		return
	}
	f := t.spare
	t.spare = nil
	if f == nil {
		f = &Table{columns: make([]column, len(t.columns)), frozen: true, origin: t}
	}
	n := t.nrows
	f.schema, f.cols, f.nrows, f.version = t.schema, t.cols, n, t.version
	f.abytes, f.abytesValid = t.abytes, t.abytesValid
	for ci := range t.columns {
		c := &t.columns[ci]
		f.columns[ci] = column{
			codes:   c.codes[:n:n],
			dict:    c.dict.clipped(),
			nonNull: c.nonNull,
		}
	}
	// Freeing the claim publishes the fill: a pin still holding f from an
	// earlier publication that claims it now reads this commit point.
	f.claim.Store(epochFree)
	if old := t.epoch.Swap(f); old != nil && old.claim.CompareAndSwap(epochFree, epochRecycled) {
		clear(old.columns) // a spare keeps no storage alive
		t.spare = old
	}
}

// PinEpoch returns the table's current epoch: an immutable snapshot of
// its last commit point, safe to read while a writer keeps committing to
// the live table. A lazily restored table publishes its first epoch
// when its last deferred section loads, so pinning one loads them all.
// On an already-frozen table it returns the table itself.
func (t *Table) PinEpoch() *Table {
	if t.frozen {
		return t
	}
	t.ensureAll()
	for {
		e := t.epoch.Load()
		if e.claim.Load() == epochPinned || e.claim.CompareAndSwap(epochFree, epochPinned) {
			return e
		}
		// The writer recycled e after publishing a newer epoch: reload.
	}
}

// Frozen reports whether the table is an immutable epoch snapshot.
func (t *Table) Frozen() bool { return t.frozen }

// EpochOrigin identifies the append-only history a table belongs to: the
// live table a frozen clone was cut from, or the table itself when live.
// Two tables with the same origin are commit points of one history, so a
// version delta that equals the row delta certifies that the newer view
// is the older view plus appended rows — the certificate the stats cache
// uses to extend projections across epoch republications.
func (t *Table) EpochOrigin() *Table {
	if t.origin != nil {
		return t.origin
	}
	return t
}

// PinEpoch snapshots the whole database: a cloned catalog (so schema
// additions and replacements against the pinned view — NEI
// conceptualization, restructuring, key inference — never touch the
// live catalog) over one pinned epoch per table. The snapshot is
// consistent per table at that table's last commit point; it is safe
// concurrently with one writer committing to existing relations, but not
// with catalog mutation on the live database, which keeps its
// quiescent-only contract.
func (db *Database) PinEpoch() *Database {
	cat := db.catalog.Clone()
	out := &Database{
		catalog: cat,
		tables:  make(map[string]*Table, len(db.tables)),
	}
	for name, t := range db.tables {
		out.tables[name] = t.PinEpoch()
	}
	return out
}

// Epoch sums the version counters of every relation: a single number
// that changes whenever any extension changes, cheap enough to expose
// per status poll. Meaningful when computed at a commit point (the job
// server computes it under its own mutation lock).
func (db *Database) Epoch() uint64 {
	var e uint64
	for _, t := range db.tables {
		e += t.version
	}
	return e
}
