// Package table implements the in-memory storage engine: tables holding the
// database extension E, tuple-level constraint enforcement, and the
// projection indexes from which internal/stats answers the counting
// queries of the elicitation algorithms ("select count distinct ..." in
// the paper's notation).
//
// The store is columnar and dictionary-encoded (see columnar.go): every
// attribute is a code vector over a first-occurrence value dictionary,
// and every stored value has its attribute's type. Derived statistics —
// distinct counts, projection indexes, group ids — are defined by the
// extension alone: group ids are dense in first-occurrence row order,
// -1 for a row with a NULL. The tests pin them against plain-map
// references over Row, and the repository's oracle harness certifies
// the counts the pipeline takes from them against the paper's
// definitions.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Row is one tuple; Row[i] is the value of the i-th schema attribute.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row{}, r...) }

// Table is a mutable multiset of tuples conforming to a relation schema.
type Table struct {
	schema *relation.Schema
	cols   map[string]int // attribute name → column index
	// columns holds one dictionary-encoded vector per attribute, each
	// nrows long.
	columns []column
	nrows   int
	// uniq holds one index per declared UNIQUE constraint, enforced by
	// the batch appender's constraint post-pass; see uniq.go.
	uniq []*uniqIndex
	// single is the appender the per-row insert paths commit through: a
	// one-row batch reusing its scratch.
	single *Appender
	// version counts mutations: every commit bumps it by the rows it
	// stores, and publishes the epoch that carries it; derived statistics
	// keyed by (table, version) — the stats package's cache — use it as
	// their invalidation hook. Database.DropAttrs installs a fresh *Table
	// (version = its row count), so a changed pointer equally signals
	// staleness.
	version uint64
	// sample is the FD triage's row sample, built on its first read
	// (see sample.go).
	sample rowSample
	// lazy is non-nil on a table restored from a snapshot with deferred
	// column sections; internStale marks that the interning maps must be
	// rebuilt from the dictionaries before the first mutation. See
	// persist.go for both.
	lazy        *lazyCols
	internStale bool
	// epoch is the last published read snapshot: a frozen clone sharing
	// this table's immutable code/dictionary prefixes, republished at
	// every commit point. frozen marks such a clone; mutating it is a
	// programming error. See epoch.go.
	epoch  atomic.Pointer[Table]
	frozen bool
	// claim is a frozen clone's epochFree/epochPinned/epochRecycled
	// state; spare is the recycled clone the live table's next
	// publication fills (see publishEpoch).
	claim atomic.Int32
	spare *Table
	// origin points a frozen clone back at the live table it was frozen
	// from; nil on live tables. Two frozen epochs with the same origin
	// are commit points of one append-only history, which is what lets
	// the stats cache delta-harvest a projection built over an older
	// epoch into a newer one (stats.getEntry) and lets a shared cache
	// recognize that a job's pinned view matches its own resolution of
	// the same relation.
	origin *Table
	// abytes memoizes ApproxBytes; valid only while abytesValid, kept
	// current by per-append delta accounting (see epoch.go, append.go).
	abytes      int64
	abytesValid bool
}

// New creates an empty table for the given schema, with its empty epoch
// published.
func New(schema *relation.Schema) *Table {
	t := newTable(schema)
	t.publishEpoch()
	return t
}

// newTable builds the empty table without publishing an epoch; restores
// publish once their state is installed.
func newTable(schema *relation.Schema) *Table {
	t := &Table{
		schema:  schema,
		cols:    make(map[string]int, len(schema.Attrs)),
		columns: make([]column, len(schema.Attrs)),
	}
	for i, a := range schema.Attrs {
		t.cols[a.Name] = i
	}
	for _, u := range schema.Uniques {
		idx := make([]int, 0, u.Len())
		for _, name := range u.Names() {
			idx = append(idx, t.cols[name])
		}
		t.uniq = append(t.uniq, &uniqIndex{idx: idx})
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Version reports the mutation counter. It grows by the number of rows
// every commit stores; cached statistics derived from the extension are valid
// exactly as long as the (pointer, version) pair they were built against
// still describes the relation.
func (t *Table) Version() uint64 { return t.version }

// Len reports the number of tuples.
func (t *Table) Len() int { return t.nrows }

// Row returns the i-th tuple, materialized fresh by every call;
// iteration-heavy consumers should use ReadRow with a reused buffer
// instead.
func (t *Table) Row(i int) Row { return t.ReadRow(i, make(Row, len(t.columns))) }

// ReadRow returns the i-th tuple decoded into buf (grown when too
// small). The returned row is only valid until the next ReadRow with the
// same buffer; the caller must not retain it.
func (t *Table) ReadRow(i int, buf Row) Row {
	t.ensureAll()
	return readRow(t.schema, t.columns, i, buf)
}

// readRow decodes row i of cols, the resident columns of s, into buf
// (grown when too small).
func readRow(s *relation.Schema, cols []column, i int, buf Row) Row {
	if len(buf) < len(cols) {
		buf = make(Row, len(cols))
	}
	buf = buf[:len(cols)]
	for c := range cols {
		buf[c] = cols[c].value(s.Attrs[c].Type, i)
	}
	return buf
}

// Value returns the single attribute value at (row i, column col) without
// materializing the tuple.
func (t *Table) Value(i, col int) value.Value {
	t.ensureCol(col)
	return t.columns[col].value(t.schema.Attrs[col].Type, i)
}

// ColIndex returns the column index of the named attribute.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.cols[name]
	return i, ok
}

// colIndexes resolves attribute names to column indexes, erroring on
// unknown names.
func (t *Table) colIndexes(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := t.cols[a]
		if !ok {
			return nil, fmt.Errorf("table %s: unknown attribute %q", t.schema.Name, a)
		}
		idx[i] = c
	}
	return idx, nil
}

// appendRowKey appends the composite grouping key of stored row i over
// the resolved columns to b, stopping early on the first NULL: the
// canonical value.AppendKey encoding plus a 0x1f terminator per
// attribute.
func (t *Table) appendRowKey(b []byte, i int, idx []int) (key []byte, hasNull bool) {
	t.ensureCols(idx)
	for _, c := range idx {
		code := t.columns[c].codes[i]
		if code < 0 {
			return b, true
		}
		b = t.dictValue(c, code).AppendKey(b)
		b = append(b, 0x1f)
	}
	return b, false
}

// Insert appends a tuple after checking arity, types, NOT NULL and UNIQUE
// constraints. Type checking coerces where value.Coerce allows it. The
// row is a one-row strict batch: it is encoded, checked by the batch
// appender's constraint post-pass and, when rejected, rolled back, so a
// failed insert never pollutes the column dictionaries (the
// single-attribute distinct count is the dictionary length). A UNIQUE
// declaration implies NOT NULL on its attributes (the paper's SQL
// convention).
func (t *Table) Insert(row Row) error {
	a := t.singleAppender()
	if err := coerceRow(t.schema, a.rowBuf, row); err != nil {
		return err
	}
	base := a.begin()
	encodeRow(t.columns, a.rowBuf)
	t.nrows++
	if _, err := a.commit(base, true, true); err != nil {
		return err.(*BatchError).Err
	}
	return nil
}

// MustInsert is Insert that panics on error; for tests and generators.
func (t *Table) MustInsert(row Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// InsertUnchecked appends a tuple without NOT NULL and UNIQUE
// enforcement, so tests can plant the integrity violations of a
// corrupted extension (the paper explicitly copes with those). Arity and
// types are still checked, coercing as Insert does: like MustInsert, it
// panics on a row that does not fit the schema, so every stored value
// has its attribute's type. It commits through the batch appender's
// commit tail with the constraint post-pass skipped.
func (t *Table) InsertUnchecked(row Row) {
	a := t.singleAppender()
	if err := coerceRow(t.schema, a.rowBuf, row); err != nil {
		panic(err)
	}
	base := a.begin()
	encodeRow(t.columns, a.rowBuf)
	t.nrows++
	a.commit(base, false, false)
}

// singleAppender returns the appender the per-row insert paths commit
// through, with its one-row staging buffer.
func (t *Table) singleAppender() *Appender {
	if t.single == nil {
		t.single = t.NewAppender()
		t.single.rowBuf = make(Row, len(t.schema.Attrs))
	}
	return t.single
}

// CountNonNull counts the tuples with no NULL among the given attributes
// — the row base of uniqueness tests, FD supports and participation
// analysis. A single attribute is answered from the column's running
// counter; multi-attribute counts scan only the code vectors.
func (t *Table) CountNonNull(attrs []string) (int, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return 0, err
	}
	if len(idx) == 1 {
		return t.columns[idx[0]].nonNull, nil
	}
	t.ensureCols(idx)
	n := 0
scan:
	for i := 0; i < t.nrows; i++ {
		for _, c := range idx {
			if t.columns[c].codes[i] < 0 {
				continue scan
			}
		}
		n++
	}
	return n, nil
}

// DistinctCount implements the paper's ‖r[X]‖: the number of distinct
// (NULL-free) value combinations over the given attributes, i.e. SQL
// "select count(distinct X) from R". Tuples with a NULL in X are skipped,
// matching COUNT(DISTINCT) semantics. A single attribute is answered in
// O(1) — the dictionary length — with no allocation at all; everything
// else is the projection index's group count. The pipeline asks the same
// question through stats.Cache.
func (t *Table) DistinctCount(attrs []string) (int, error) {
	if len(attrs) == 1 {
		if c, ok := t.cols[attrs[0]]; ok {
			// dictLen answers from restore metadata when the column
			// section is still deferred — the O(1) count never forces a
			// load.
			return t.dictLen(c), nil
		}
	}
	p, err := t.Projection(attrs)
	if err != nil {
		return 0, err
	}
	return p.Len(), nil
}

// Projection is the hashed projection index in its reusable form: a
// dictionary of distinct NULL-free composite keys mapping to dense group
// ids, plus the row → group-id vector, with no per-group row slices.
// The stats cache memoizes this representation — Len is the paper's
// ‖r[X]‖, the dictionary answers join and containment queries, and
// RowGroup drives the FD checks.
//
// The dictionary is derived lazily (see columnar.go): counting consumers
// never pay for it. Group ids are dense, in first-occurrence row order,
// -1 for rows with a NULL among the attributes.
type Projection struct {
	RowGroup []int32 // row index → group id, -1 for NULL rows
	NonNull  int     // rows with no NULL among the attributes

	groups int // number of distinct groups
	// denseSteps/mapSteps record how many refinement steps the build ran
	// through each remapping strategy; the stats cache mirrors them into
	// the observability counters.
	denseSteps, mapSteps int64
	// Exactly one dictionary flavor is populated, lazily: ints for a
	// single INTEGER attribute, strs otherwise.
	strs map[string]int32
	ints map[int64]int32
	lazy *lazyDict
	// repsV caches the group → representative-row vector (see
	// delta.go Reps); repsOnce guards its concurrent derivation.
	repsOnce sync.Once
	repsV    []int32
}

// RefineSteps reports how many refinement steps this projection's build
// executed through the dense direct-addressed strategy and through the
// sparse map fallback. Zero for single-attribute builds.
func (p *Projection) RefineSteps() (dense, mapped int64) {
	return p.denseSteps, p.mapSteps
}

// Len returns the number of distinct groups — the paper's ‖r[X]‖.
func (p *Projection) Len() int { return p.groups }

// IntDict returns the int64 → group-id dictionary, or nil when the
// projection is not int-flavored (multi-attribute, or an attribute that
// is not INTEGER). The caller must treat it as read-only.
func (p *Projection) IntDict() map[int64]int32 {
	if p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.ints
}

// StrDict returns the canonical composite-key → group-id dictionary, or
// nil when the projection is int-flavored. The caller must treat it as
// read-only.
func (p *Projection) StrDict() map[string]int32 {
	if !p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.strs
}

// Projection builds the projection index over attrs: pure integer
// arithmetic over the code vectors (see project in columnar.go).
func (t *Table) Projection(attrs []string) (*Projection, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	return t.project(idx), nil
}

// CheckUnique verifies a UNIQUE constraint over the current extension and
// returns the indexes of the first offending pair, if any. It is used to
// audit corrupted extensions. Group ids are dense in first-occurrence row
// order, so a row repeats a key exactly when its group id is below the
// number of groups seen before it.
func (t *Table) CheckUnique(u relation.AttrSet) (ok bool, rowA, rowB int, err error) {
	p, err := t.Projection(u.Names())
	if err != nil {
		return false, 0, 0, err
	}
	first := make([]int, 0, p.Len()) // group id → its first row
	for i, g := range p.RowGroup {
		switch {
		case g < 0:
		case int(g) < len(first):
			return false, first[g], i, nil
		default:
			first = append(first, i)
		}
	}
	return true, 0, 0, nil
}

// Database binds a catalog to its extension: one table per relation. It is
// the (R, E, ∅) triple the method takes as input.
type Database struct {
	catalog *relation.Catalog
	tables  map[string]*Table
}

// NewDatabase creates a database with an empty table per catalog
// relation.
func NewDatabase(catalog *relation.Catalog) *Database {
	db := &Database{catalog: catalog, tables: make(map[string]*Table, catalog.Len())}
	for _, s := range catalog.Schemas() {
		db.tables[s.Name] = New(s)
	}
	return db
}

// Catalog returns the database's catalog.
func (db *Database) Catalog() *relation.Catalog { return db.catalog }

// Table returns the extension of the named relation.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// MustTable is Table that panics when the relation is unknown.
func (db *Database) MustTable(name string) *Table {
	t, ok := db.tables[name]
	if !ok {
		panic(fmt.Sprintf("table: unknown relation %q", name))
	}
	return t
}

// AddRelation registers a new (empty) relation created during the method
// (the set S of Section 6.1).
func (db *Database) AddRelation(s *relation.Schema) error {
	if err := db.catalog.Add(s); err != nil {
		return err
	}
	db.tables[s.Name] = New(s)
	return nil
}

// DropAttrs projects the attributes drop out of relation rel: the
// Restruct step that removes B_i from R_i once an FD R_i: A_i → B_i has
// been split out. The schema registered under rel is replaced, keeping
// its catalog position, by one without the dropped attributes and
// without the UNIQUE constraints that mention them, and a fresh *Table
// holding the projected extension is installed — a new pointer, which is
// how (pointer, version)-keyed caches see the change.
//
// The migrated table is the one a strict AppendBatch of the projected
// rows into an empty table yields: same codes, dictionaries, counters,
// uniqueness registrations and version (the row count), with an epoch
// published. A NOT NULL or UNIQUE violation among the surviving columns
// returns that batch's first error (the Insert-equivalent one), leaving
// the rows before the violating one migrated.
//
// The surviving columns are shared, not re-encoded: a projection keeps
// every row, so the source's code vectors and first-occurrence
// dictionaries already are what re-encoding would build, and the drop
// costs O(columns) plus the constraint post-pass.
func (db *Database) DropAttrs(rel string, drop relation.AttrSet) error {
	src, ok := db.catalog.Get(rel)
	if !ok {
		return fmt.Errorf("table: cannot drop attributes of unknown relation %q", rel)
	}
	old := db.tables[rel]
	s := src.DropAttrs(drop)
	if err := db.catalog.Replace(s); err != nil {
		return err
	}
	t := New(s)
	db.tables[rel] = t
	keep := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		keep[i] = old.cols[a.Name]
	}
	return t.adoptColumns(old, keep)
}

// RemoveRelation drops a relation and its extension. Used by the
// incremental re-validation path to retract NEI concept relations whose
// join no longer supports them.
func (db *Database) RemoveRelation(name string) error {
	if err := db.catalog.Remove(name); err != nil {
		return err
	}
	delete(db.tables, name)
	return nil
}

// TotalRows reports the number of tuples across all relations.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// dictBytes is the ApproxBytes charge of the dictionary entries from
// index from on: each costs what a boxed value.Value would (40 bytes,
// plus a string's payload) with its 16-byte interning-table entry. The
// estimate is kept at the boxed size because snapshots record it per
// column (the Bytes of a ColumnState), so the figure, and the snapshot
// bytes, do not depend on the in-memory layout.
func (d Dict) dictBytes(from int) int64 {
	const boxedBytes = 40 // kind + int + float + string header, padded
	b := int64(d.Len()-from) * (boxedBytes + intSlotBytes)
	for _, s := range d.Strs[min(from, len(d.Strs)):] {
		b += int64(len(s))
	}
	return b
}

// ApproxBytes estimates the resident heap size of the table's extension:
// code vectors, dictionaries and interning maps. It is a sizing heuristic (within a small
// constant factor of live heap, ignoring allocator slack and slice spare
// capacity), intended for admission control — the job server's per-job
// memory ceiling — not for accounting.
func (t *Table) ApproxBytes() int64 {
	if t.abytesValid {
		return t.abytes
	}
	var b int64
	for i := range t.columns {
		// A deferred column section is costed from its restore metadata
		// so admission control does not force every column resident.
		if !t.colLoaded(i) {
			b += t.lazy.bytes[i]
			continue
		}
		b += int64(len(t.columns[i].codes))*4 + t.columns[i].dict.dictBytes(0)
	}
	// Memoize once every column is resident (the batch appender then
	// maintains the value by delta, see append.go). Frozen epochs stay
	// un-memoized: they may be scanned concurrently, and writing the
	// cache would race.
	if !t.frozen && (t.lazy == nil || t.lazy.pending.Load() == 0) {
		t.abytes, t.abytesValid = b, true
	}
	return b
}

// ApproxBytes sums ApproxBytes over every relation of the database.
func (db *Database) ApproxBytes() int64 {
	var b int64
	for _, t := range db.tables {
		b += t.ApproxBytes()
	}
	return b
}
