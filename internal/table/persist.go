// Persistence bridge. The storage layer (internal/storage) serializes a
// columnar table's engine state — code vectors, dictionaries, running
// counters, uniqueness registrations, sketch configuration — and rebuilds
// an identical table from it. This file exposes exactly that state, in
// both directions, so the on-disk format stays a storage concern while
// the engine invariants (what is state, what is rebuildable scratch) stay
// a table concern.
//
// What is persisted and what is derived:
//
//   - codes/dict per column, nrows, version, nonNull/nonInt counters:
//     persisted verbatim — they ARE the engine state.
//   - the ints/keys interning maps: derived (rebuilt from the dictionary
//     on the first mutation; pure readers never need them).
//   - uniqueness state (dense, packed, byKey): persisted verbatim. The
//     byKey phantoms of rejected rows reference values that were never
//     stored, so no replay over the surviving rows can reconstruct them —
//     and later inserts must still collide with them (see uniq.go).
//   - sketches: only the enabled flag and Config are persisted. Sketch
//     state is a pure function of the dictionary prefix consumed, so a
//     restored table rebuilds identical sketches on first access.
//
// Restored tables may be lazy: RestoreTableLazy defers every column's
// codes/dict behind a ColumnLoader, and every read path of the engine
// funnels through ensureCol/ensureAll, so a discovery phase touches only
// the column sections it actually reads.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dbre/internal/relation"
	"dbre/internal/sketch"
	"dbre/internal/value"
)

// ColumnState is the serializable state of one dictionary-encoded column.
// Codes and Dict are nil for a column whose section has not been loaded
// yet (lazy restore); DictLen and Bytes describe it regardless, so
// distinct counts and footprint estimates never force a load.
type ColumnState struct {
	Codes   []int32
	Dict    []value.Value
	NonNull int
	NonInt  bool
	// DictLen is len(Dict) even when Dict is deferred — the O(1)
	// single-attribute distinct count.
	DictLen int
	// Bytes is the column's estimated resident size once loaded (the
	// ApproxBytes contribution), kept so admission control on a lazily
	// opened database does not defeat the laziness.
	Bytes int64
}

// UniqState is the serializable state of one UNIQUE constraint's index:
// the code-keyed registrations (dense for single-attribute constraints,
// packed for composites) plus the value-keyed phantom registrations of
// rejected rows. See uniq.go for why all three are state, not cache.
type UniqState struct {
	Dense  []int32
	Packed map[string]int32
	ByKey  map[string]int
}

// SketchState records whether the approximate tier was enabled and with
// which knobs. Sketch contents are not persisted: they are rebuilt
// deterministically from the restored dictionaries (sketch state is a
// pure function of the value set).
type SketchState struct {
	Enabled bool
	Config  sketch.Config
}

// TableState is the complete serializable engine state of one columnar
// table. PersistState returns it; RestoreTable consumes it.
type TableState struct {
	NRows   int
	Version uint64
	Columns []ColumnState
	Uniqs   []UniqState
	Sketch  SketchState
}

// PersistState snapshots the table's engine state for serialization. The
// returned slices and maps are views into live storage — read-only, valid
// until the next mutation. It errors on the row engine: persistence is a
// columnar-engine feature.
func (t *Table) PersistState() (*TableState, error) {
	if t.columns == nil {
		return nil, fmt.Errorf("table %s: persistence requires the columnar engine", t.schema.Name)
	}
	t.ensureAll()
	st := &TableState{
		NRows:   t.nrows,
		Version: t.version,
		Columns: make([]ColumnState, len(t.columns)),
	}
	// Empty slices and maps are normalized to nil so that equal engine
	// states always produce DeepEqual states (a strict-mode rollback can
	// leave empty-but-allocated storage behind).
	for i := range t.columns {
		c := &t.columns[i]
		cs := ColumnState{
			NonNull: c.nonNull,
			NonInt:  c.nonInt,
			DictLen: len(c.dict),
			Bytes:   columnBytes(c),
		}
		if t.nrows > 0 {
			cs.Codes = c.codes[:t.nrows:t.nrows]
		}
		if len(c.dict) > 0 {
			cs.Dict = c.dict[:len(c.dict):len(c.dict)]
		}
		st.Columns[i] = cs
	}
	for _, u := range t.uniq {
		us := UniqState{}
		if len(u.dense) > 0 {
			us.Dense = u.dense[:len(u.dense):len(u.dense)]
		}
		if len(u.packed) > 0 {
			us.Packed = u.packed
		}
		if len(u.byKey) > 0 {
			us.ByKey = u.byKey
		}
		st.Uniqs = append(st.Uniqs, us)
	}
	if s := t.sketches.Load(); s != nil {
		st.Sketch = SketchState{Enabled: true, Config: s.cfg}
	}
	return st, nil
}

// ColumnLoader supplies deferred column sections to a lazily restored
// table. LoadColumn returns the column's Codes and Dict (the other
// ColumnState fields are ignored — they were restored eagerly from the
// table metadata). Implementations must be safe for concurrent calls on
// distinct columns; the table serializes calls per column.
type ColumnLoader interface {
	LoadColumn(ci int) (ColumnState, error)
}

// lazyCols tracks the not-yet-materialized columns of a restored table.
// once serializes racing loads per column; loaded flips to true only
// after codes/dict are installed (its atomic store/load pair is the
// happens-before edge concurrent readers rely on).
type lazyCols struct {
	loader  ColumnLoader
	once    []sync.Once
	loaded  []atomic.Bool
	dictLen []int
	bytes   []int64
	pending atomic.Int32
}

// RestoreTable rebuilds a columnar table from persisted state, eagerly.
// The table takes ownership of the state's slices and maps; callers must
// pass freshly decoded state, never the live views of PersistState.
func RestoreTable(schema *relation.Schema, st *TableState) (*Table, error) {
	return restoreTable(schema, st, nil)
}

// RestoreTableLazy is RestoreTable with every column's codes/dict
// deferred behind loader: metadata (row count, version, counters,
// uniqueness state, sketch config) is installed now, and each column
// section is fetched on the first read that touches it. A load failure
// after restore panics (the storage layer verifies every section checksum
// before handing out a loader, so a failure here means the file was
// mutated or lost underneath an open database).
func RestoreTableLazy(schema *relation.Schema, st *TableState, loader ColumnLoader) (*Table, error) {
	if loader == nil {
		return nil, fmt.Errorf("table %s: nil ColumnLoader", schema.Name)
	}
	return restoreTable(schema, st, loader)
}

func restoreTable(schema *relation.Schema, st *TableState, loader ColumnLoader) (*Table, error) {
	if len(st.Columns) != len(schema.Attrs) {
		return nil, fmt.Errorf("table %s: state has %d columns, schema %d", schema.Name, len(st.Columns), len(schema.Attrs))
	}
	if len(st.Uniqs) != len(schema.Uniques) {
		return nil, fmt.Errorf("table %s: state has %d unique indexes, schema %d", schema.Name, len(st.Uniqs), len(schema.Uniques))
	}
	t := newTable(schema, EngineColumnar)
	t.nrows = st.NRows
	t.version = st.Version
	t.internStale = true
	for i := range st.Columns {
		cs := &st.Columns[i]
		c := &t.columns[i]
		c.nonNull = cs.NonNull
		c.nonInt = cs.NonInt
		if loader == nil {
			if err := validateColumn(schema, i, cs.Codes, cs.Dict, cs, st.NRows); err != nil {
				return nil, err
			}
			c.codes = cs.Codes
			c.dict = cs.Dict
		}
	}
	if loader != nil {
		nc := len(t.columns)
		l := &lazyCols{
			loader:  loader,
			once:    make([]sync.Once, nc),
			loaded:  make([]atomic.Bool, nc),
			dictLen: make([]int, nc),
			bytes:   make([]int64, nc),
		}
		for i := range st.Columns {
			l.dictLen[i] = st.Columns[i].DictLen
			l.bytes[i] = st.Columns[i].Bytes
		}
		l.pending.Store(int32(nc))
		t.lazy = l
	}
	for ui := range st.Uniqs {
		us := &st.Uniqs[ui]
		u := t.uniq[ui]
		u.dense = us.Dense
		u.packed = us.Packed
		u.byKey = us.ByKey
	}
	if st.Sketch.Enabled {
		t.EnableSketches(st.Sketch.Config)
	}
	// An eager restore is a commit point now; a lazy one publishes when
	// its last deferred section loads (ensureCol).
	if t.lazy == nil || len(t.columns) == 0 {
		t.publishEpoch()
	}
	return t, nil
}

// validateColumn checks the engine invariants of one column's loaded
// state: vector lengths match the declared row and dictionary counts,
// every code addresses the dictionary (or is the NULL marker), the
// dictionary holds no NULLs, and the non-NULL counter agrees with the
// codes. The checks are what make a later dict[code] access memory-safe,
// so they run on every restore and every lazy section load.
func validateColumn(schema *relation.Schema, ci int, codes []int32, dict []value.Value, cs *ColumnState, nrows int) error {
	attr := schema.Attrs[ci].Name
	if len(codes) != nrows {
		return fmt.Errorf("table %s column %s: %d codes for %d rows", schema.Name, attr, len(codes), nrows)
	}
	if len(dict) != cs.DictLen {
		return fmt.Errorf("table %s column %s: dictionary has %d entries, metadata says %d", schema.Name, attr, len(dict), cs.DictLen)
	}
	for _, v := range dict {
		if v.IsNull() {
			return fmt.Errorf("table %s column %s: NULL in dictionary", schema.Name, attr)
		}
	}
	nonNull := 0
	for _, code := range codes {
		if code >= 0 {
			if int(code) >= len(dict) {
				return fmt.Errorf("table %s column %s: code %d exceeds dictionary length %d", schema.Name, attr, code, len(dict))
			}
			nonNull++
		} else if code != nullCode {
			return fmt.Errorf("table %s column %s: invalid code %d", schema.Name, attr, code)
		}
	}
	if nonNull != cs.NonNull {
		return fmt.Errorf("table %s column %s: %d non-NULL codes, metadata says %d", schema.Name, attr, nonNull, cs.NonNull)
	}
	return nil
}

// ensureCol materializes column ci of a lazily restored table. The fast
// path — no lazy state, or the column already loaded — is a nil check
// plus sync.Once's atomic load; every read path of the engine funnels
// through here (or ensureAll) before touching codes or dict. The load
// that completes the table publishes its first epoch inside its Once, so
// a writer, whose first commit waits on every section's Once, never
// mutates before the restored state is published.
func (t *Table) ensureCol(ci int) {
	l := t.lazy
	if l == nil {
		return
	}
	l.once[ci].Do(func() {
		cs, err := l.loader.LoadColumn(ci)
		if err == nil {
			meta := &ColumnState{NonNull: t.columns[ci].nonNull, DictLen: l.dictLen[ci]}
			err = validateColumn(t.schema, ci, cs.Codes, cs.Dict, meta, t.nrows)
		}
		if err != nil {
			panic(fmt.Errorf("table %s: loading column %s: %w", t.schema.Name, t.schema.Attrs[ci].Name, err))
		}
		c := &t.columns[ci]
		c.codes = cs.Codes
		c.dict = cs.Dict
		l.loaded[ci].Store(true)
		if l.pending.Add(-1) == 0 {
			t.publishEpoch()
		}
	})
}

// ensureAll materializes every deferred column.
func (t *Table) ensureAll() {
	if t.lazy == nil {
		return
	}
	for ci := range t.columns {
		t.ensureCol(ci)
	}
}

// ensureCols materializes the deferred columns among idx.
func (t *Table) ensureCols(idx []int) {
	if t.lazy == nil {
		return
	}
	for _, ci := range idx {
		t.ensureCol(ci)
	}
}

// colLoaded reports whether column ci's codes/dict are resident. True on
// tables that were never lazily restored. The atomic load pairs with the
// store in ensureCol, so a true result also orders the reader after the
// install.
func (t *Table) colLoaded(ci int) bool {
	return t.lazy == nil || t.lazy.loaded[ci].Load()
}

// dictLen returns the column's dictionary length without forcing a
// deferred section load — the O(1) distinct count works off metadata.
func (t *Table) dictLen(ci int) int {
	if t.lazy != nil && !t.lazy.loaded[ci].Load() {
		return t.lazy.dictLen[ci]
	}
	return len(t.columns[ci].dict)
}

// Preload materializes every deferred column section of a lazily
// restored table. After it returns the table never touches its loader
// again, so the storage layer may close the underlying file.
func (t *Table) Preload() { t.ensureAll() }

// PendingColumns reports how many column sections of a lazily restored
// table have not been materialized yet (0 on every other table). The
// stats-cache laziness test and the open-info accounting read it.
func (t *Table) PendingColumns() int {
	if t.lazy == nil {
		return 0
	}
	return int(t.lazy.pending.Load())
}

// ensureMutable prepares a restored table for mutation: every deferred
// column is materialized and the ints/keys interning maps — derived
// state the restore skipped — are rebuilt from the dictionaries. Pure
// readers never pay for this; every commit (Appender.begin) calls it
// first.
func (t *Table) ensureMutable() {
	if t.frozen {
		panic(fmt.Sprintf("table %s: mutating a frozen epoch snapshot", t.schema.Name))
	}
	if t.columns == nil || !t.internStale {
		return
	}
	t.ensureAll()
	for i := range t.columns {
		c := &t.columns[i]
		if len(c.dict) > 0 && c.ints.len() == 0 && c.keys == nil {
			c.rebuildIntern()
		}
	}
	t.internStale = false
}

// rebuildIntern reconstructs the interning tables from the dictionary,
// mirroring intern()'s population exactly: KindInt payloads into ints,
// the canonical Key() encoding of everything else into keys.
func (c *column) rebuildIntern() {
	if !c.nonInt {
		c.ints.reserve(len(c.dict))
	}
	for id, v := range c.dict {
		if v.Kind() == value.KindInt {
			c.ints.getOrPut(v.Int(), int32(id))
		} else {
			if c.keys == nil {
				c.keys = make(map[string]int32, len(c.dict))
			}
			c.keys[v.Key()] = int32(id)
		}
	}
}

// columnBytes is one column's ApproxBytes contribution (codes, boxed
// dictionary values, interning-map overhead).
func columnBytes(c *column) int64 {
	b := int64(len(c.codes)) * 4
	for _, v := range c.dict {
		b += valueBytes(v)
	}
	// The ints/keys interning tables hold one entry per dictionary
	// code: an int entry is one 16-byte {key, code} slot (the empty
	// slots of the ≤ 3/4-full table are slack, ignored like slice spare
	// capacity), and a string-map entry costs about the same in bucket
	// overhead beyond the key payload counted through the dictionary.
	b += int64(len(c.dict)) * intSlotBytes
	return b
}

// DecodeRow decodes the i-th encoded row of the chunk into buf (grown
// when too small). The returned row is valid until the next call with
// the same buffer; journaling loaders use it to materialize the rows a
// batch is about to commit.
func (e *ChunkEncoder) DecodeRow(i int, buf Row) Row {
	if len(buf) < len(e.cols) {
		buf = make(Row, len(e.cols))
	}
	return e.row(i, buf[:len(e.cols)])
}

// RestoreDatabase rebuilds a database over catalog with one restored
// table per relation, on the columnar engine. restore is called once per
// relation in catalog order and must return the relation's table built
// over the catalog's own schema pointer (RestoreTable/RestoreTableLazy
// with catalog.Get's schema do exactly that).
func RestoreDatabase(catalog *relation.Catalog, restore func(s *relation.Schema) (*Table, error)) (*Database, error) {
	db := &Database{
		catalog: catalog,
		tables:  make(map[string]*Table, catalog.Len()),
		engine:  EngineColumnar,
	}
	for _, s := range catalog.Schemas() {
		t, err := restore(s)
		if err != nil {
			return nil, err
		}
		if t.schema != s {
			return nil, fmt.Errorf("table %s: restored over a foreign schema", s.Name)
		}
		db.tables[s.Name] = t
	}
	return db, nil
}
