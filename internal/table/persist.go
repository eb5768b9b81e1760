// Persistence bridge. The storage layer (internal/storage) serializes a
// table's engine state — code vectors, dictionaries, running counters,
// uniqueness registrations — and rebuilds
// an identical table from it. This file exposes exactly that state, in
// both directions, so the on-disk format stays a storage concern while
// the engine invariants (what is state, what is rebuildable scratch) stay
// a table concern.
//
// What is persisted and what is derived:
//
//   - codes/dict per column, nrows, version, nonNull counters:
//     persisted verbatim — they ARE the engine state.
//   - the ids/strs interning tables: derived (rebuilt from the dictionary
//     on the first mutation; pure readers never need them).
//   - uniqueness state (dense, packed, byKey): persisted verbatim. The
//     byKey phantoms of rejected rows reference values that were never
//     stored, so no replay over the surviving rows can reconstruct them —
//     and later inserts must still collide with them (see uniq.go).
//   - the row sample (sample.go): not persisted. It is a function of
//     the row count alone, so a restored table rebuilds the identical
//     sample on first read.
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
	"dbre/internal/value"
)

// ColumnState is the serializable state of one dictionary-encoded column.
// Codes and Dict are empty for a column whose section has not been
// loaded yet (lazy restore); DictLen and Bytes describe it regardless,
// so distinct counts and footprint estimates never force a load.
type ColumnState struct {
	Codes   []int32
	Dict    Dict
	NonNull int
	// DictLen is Dict.Len() even when Dict is deferred — the O(1)
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

// TableState is the complete serializable engine state of one table.
// PersistState returns it; RestoreTableLazy consumes it.
type TableState struct {
	NRows   int
	Version uint64
	Columns []ColumnState
	Uniqs   []UniqState
}

// PersistState snapshots the table's engine state for serialization. The
// returned slices and maps are views into live storage — read-only, valid
// until the next mutation.
func (t *Table) PersistState() *TableState {
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
			DictLen: c.dict.Len(),
			Bytes:   int64(len(c.codes))*4 + c.dict.dictBytes(0),
		}
		if t.nrows > 0 {
			cs.Codes = c.codes[:t.nrows:t.nrows]
		}
		if cs.DictLen > 0 {
			cs.Dict = c.dict.clipped()
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
	return st
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
	errs    []error // a column's load error, set inside its Once
	dictLen []int
	bytes   []int64
	pending atomic.Int32
}

// RestoreTableLazy rebuilds a table from persisted state with every
// column's codes/dict deferred behind loader: metadata (row count,
// version, counters, uniqueness state) is installed now, and each column
// section is fetched on the first read that touches it. The table takes
// ownership of the state's slices and maps; callers must pass freshly
// decoded state, never the live views of PersistState. A section that fails to load
// or to validate makes Preload return an error and any other read of the
// column panic (checksums were verified before the loader was handed
// out, so such a section was either written invalid or changed
// underneath an open database).
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
	t := newTable(schema)
	t.nrows = st.NRows
	t.version = st.Version
	t.internStale = true
	for i := range st.Columns {
		cs := &st.Columns[i]
		c := &t.columns[i]
		c.nonNull = cs.NonNull
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
			errs:    make([]error, nc),
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
// dictionary holds only the vector the attribute's type selects, and the
// non-NULL counter agrees with the codes. The checks are what make a
// later dictionary access memory-safe, and keep every stored value of
// its attribute's type as the insert paths do, so they run on every
// restore and every lazy section load.
func validateColumn(schema *relation.Schema, ci int, codes []int32, dict Dict, cs *ColumnState, nrows int) error {
	a := schema.Attrs[ci]
	attr := a.Name
	if len(codes) != nrows {
		return fmt.Errorf("table %s column %s: %d codes for %d rows", schema.Name, attr, len(codes), nrows)
	}
	if dict.Len() != cs.DictLen {
		return fmt.Errorf("table %s column %s: dictionary has %d entries, metadata says %d", schema.Name, attr, dict.Len(), cs.DictLen)
	}
	held := value.KindNull // the kind of entries outside the vector a.Type selects
	switch {
	case len(dict.Strs) > 0 && a.Type != value.KindString:
		held = value.KindString
	case len(dict.Bits) > 0 && (a.Type == value.KindNull || a.Type == value.KindString):
		held = value.KindInt
	}
	if held != value.KindNull {
		return fmt.Errorf("table %s column %s: dictionary holds a %v value, the attribute is %v", schema.Name, attr, held, a.Type)
	}
	nonNull, n := 0, dict.Len()
	for _, code := range codes {
		if code >= 0 {
			if int(code) >= n {
				return fmt.Errorf("table %s column %s: code %d exceeds dictionary length %d", schema.Name, attr, code, n)
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
// through here (or ensureAll) before touching codes or dict. Those paths
// return no error, so a section that fails to load or validate panics
// here; Preload returns the same error instead.
func (t *Table) ensureCol(ci int) {
	if err := t.loadCol(ci); err != nil {
		panic(err)
	}
}

// loadCol is ensureCol returning the load error, recorded inside the
// column's Once so every later touch of the column reports it again. The
// load that completes the table publishes its first epoch inside its
// Once, so a writer, whose first commit waits on every section's Once,
// never mutates before the restored state is published.
func (t *Table) loadCol(ci int) error {
	l := t.lazy
	if l == nil {
		return nil
	}
	l.once[ci].Do(func() {
		cs, err := l.loader.LoadColumn(ci)
		if err == nil {
			meta := &ColumnState{NonNull: t.columns[ci].nonNull, DictLen: l.dictLen[ci]}
			err = validateColumn(t.schema, ci, cs.Codes, cs.Dict, meta, t.nrows)
		}
		if err != nil {
			l.errs[ci] = fmt.Errorf("table %s: loading column %s: %w", t.schema.Name, t.schema.Attrs[ci].Name, err)
			return
		}
		c := &t.columns[ci]
		c.codes = cs.Codes
		c.dict = cs.Dict
		l.loaded[ci].Store(true)
		if l.pending.Add(-1) == 0 {
			t.publishEpoch()
		}
	})
	return l.errs[ci]
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
	return t.columns[ci].dict.Len()
}

// Preload materializes every deferred column section of a lazily
// restored table, returning the first section's load or validation
// error. After it returns nil the table never touches its loader again,
// so the storage layer may close the underlying file.
func (t *Table) Preload() error {
	if t.lazy == nil {
		return nil
	}
	for ci := range t.columns {
		if err := t.loadCol(ci); err != nil {
			return err
		}
	}
	return nil
}

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
// column is materialized and the ids/strs interning tables — derived
// state the restore skipped — are rebuilt from the dictionaries. Pure
// readers never pay for this; every commit (Appender.begin) calls it
// first.
func (t *Table) ensureMutable() {
	if t.frozen {
		panic(fmt.Sprintf("table %s: mutating a frozen epoch snapshot", t.schema.Name))
	}
	if !t.internStale {
		return
	}
	t.ensureAll()
	for i := range t.columns {
		c := &t.columns[i]
		if c.dict.Len() > 0 && c.ids.len() == 0 && c.strs == nil {
			c.rebuildIntern()
		}
	}
	t.internStale = false
}

// rebuildIntern reconstructs the interning tables from the dictionary,
// mirroring internBits and internStr exactly.
func (c *column) rebuildIntern() {
	if len(c.dict.Bits) > 0 {
		c.ids.reserve(len(c.dict.Bits))
	}
	for id, b := range c.dict.Bits {
		c.ids.getOrPut(b, int32(id))
	}
	if len(c.dict.Strs) > 0 {
		c.strs = make(map[string]int32, len(c.dict.Strs))
		for id, s := range c.dict.Strs {
			c.strs[s] = int32(id)
		}
	}
}

// RestoreDatabase rebuilds a database over catalog with one restored
// table per relation. restore is called once per relation in catalog
// order and must return the relation's table built over the catalog's
// own schema pointer (RestoreTable/RestoreTableLazy with catalog.Get's
// schema do exactly that).
func RestoreDatabase(catalog *relation.Catalog, restore func(s *relation.Schema) (*Table, error)) (*Database, error) {
	db := &Database{
		catalog: catalog,
		tables:  make(map[string]*Table, catalog.Len()),
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
