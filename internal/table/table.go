// Package table implements the in-memory storage engine: tables holding the
// database extension E, tuple-level constraint enforcement, and the
// counting, projection and equi-join primitives the elicitation algorithms
// query ("select count distinct ..." in the paper's notation).
//
// Two backing stores implement the same Table interface surface: the
// columnar, dictionary-encoded engine (the default; see columnar.go) and
// the original row store, kept as the reference implementation the
// differential harness compares against. All derived statistics —
// distinct counts, projection indexes, group ids — are defined to be
// byte-identical between the two.
package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Engine selects a table's backing store.
type Engine uint8

const (
	// EngineColumnar stores each attribute as an []int32 code vector
	// plus a per-column value dictionary. The default.
	EngineColumnar Engine = iota
	// EngineRow stores boxed rows ([]value.Value per tuple) — the
	// reference engine.
	EngineRow
)

// String names the engine.
func (e Engine) String() string {
	if e == EngineRow {
		return "row"
	}
	return "columnar"
}

// Row is one tuple; Row[i] is the value of the i-th schema attribute.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row{}, r...) }

// Table is a mutable multiset of tuples conforming to a relation schema.
type Table struct {
	schema *relation.Schema
	cols   map[string]int // attribute name → column index
	// Exactly one of the two stores is active: rows for EngineRow,
	// columns (with nrows) for EngineColumnar.
	rows    []Row
	columns []column
	nrows   int
	// uniq holds one index per declared UNIQUE constraint, enforced by
	// the row engine's Insert and by the batch appender's constraint
	// post-pass; see uniq.go for the two (row / columnar) layouts.
	uniq []*uniqIndex
	// single is the appender the per-row insert paths commit through
	// on the columnar engine: a one-row batch reusing its scratch.
	single *Appender
	// version counts mutations: every commit bumps it by the rows it
	// stores, and publishes the epoch that carries it; derived statistics
	// keyed by (table, version) — the stats package's cache — use it as
	// their invalidation hook. Database.DropAttrs installs a fresh *Table
	// (version = its row count), so a changed pointer equally signals
	// staleness.
	version uint64
	// sketches holds the lazily enabled incremental sketch set (see
	// sketch.go); atomic because concurrent readers may race to enable
	// it. nil until EnableSketches, and always nil on the row engine.
	sketches atomic.Pointer[TableSketches]
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

// New creates an empty table for the given schema on the default
// (columnar) engine.
func New(schema *relation.Schema) *Table { return NewWithEngine(schema, EngineColumnar) }

// NewWithEngine creates an empty table on the chosen backing store. A
// columnar table starts with its empty epoch published.
func NewWithEngine(schema *relation.Schema, engine Engine) *Table {
	t := newTable(schema, engine)
	t.publishEpoch()
	return t
}

// newTable builds the empty table without publishing an epoch; restores
// publish once their state is installed.
func newTable(schema *relation.Schema, engine Engine) *Table {
	t := &Table{
		schema: schema,
		cols:   make(map[string]int, len(schema.Attrs)),
	}
	for i, a := range schema.Attrs {
		t.cols[a.Name] = i
	}
	if engine == EngineColumnar {
		t.columns = make([]column, len(schema.Attrs))
	}
	for _, u := range schema.Uniques {
		idx := make([]int, 0, u.Len())
		for _, name := range u.Names() {
			idx = append(idx, t.cols[name])
		}
		t.uniq = append(t.uniq, newUniqIndex(idx, engine))
	}
	return t
}

// Engine reports the table's backing store.
func (t *Table) Engine() Engine {
	if t.columns != nil {
		return EngineColumnar
	}
	return EngineRow
}

// Schema returns the table's schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Version reports the mutation counter. It grows by the number of rows
// every commit stores; cached statistics derived from the extension are valid
// exactly as long as the (pointer, version) pair they were built against
// still describes the relation.
func (t *Table) Version() uint64 { return t.version }

// Len reports the number of tuples.
func (t *Table) Len() int {
	if t.columns != nil {
		return t.nrows
	}
	return len(t.rows)
}

// Row returns the i-th tuple. The caller must not modify it. On the
// columnar engine every call materializes a fresh row; iteration-heavy
// consumers should use ReadRow with a reused buffer instead.
func (t *Table) Row(i int) Row {
	if t.columns != nil {
		return t.ReadRow(i, make(Row, len(t.columns)))
	}
	return t.rows[i]
}

// ReadRow returns the i-th tuple, decoding into buf on the columnar
// engine (buf is grown when too small) and returning internal storage on
// the row engine. The returned row is only valid until the next ReadRow
// with the same buffer; the caller must not modify or retain it.
func (t *Table) ReadRow(i int, buf Row) Row {
	if t.columns == nil {
		return t.rows[i]
	}
	t.ensureAll()
	if len(buf) < len(t.columns) {
		buf = make(Row, len(t.columns))
	}
	buf = buf[:len(t.columns)]
	for c := range t.columns {
		col := &t.columns[c]
		if code := col.codes[i]; code >= 0 {
			buf[c] = col.dict[code]
		} else {
			buf[c] = value.Null
		}
	}
	return buf
}

// Value returns the single attribute value at (row i, column col) without
// materializing the tuple.
func (t *Table) Value(i, col int) value.Value {
	if t.columns != nil {
		t.ensureCol(col)
		c := &t.columns[col]
		if code := c.codes[i]; code >= 0 {
			return c.dict[code]
		}
		return value.Null
	}
	return t.rows[i][col]
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

// keyOf builds the composite grouping key of a free-standing row over the
// given columns. hasNull reports whether any participating value is NULL.
func keyOf(row Row, idx []int) (key string, hasNull bool) {
	var b strings.Builder
	for _, c := range idx {
		v := row[c]
		if v.IsNull() {
			hasNull = true
		}
		b.WriteString(v.Key())
		b.WriteByte(0x1f)
	}
	return b.String(), hasNull
}

// appendRowKey appends the composite grouping key of stored row i over
// the resolved columns to b, stopping early on the first NULL. Both
// engines produce identical bytes: the canonical value.AppendKey encoding
// plus a 0x1f terminator per attribute.
func (t *Table) appendRowKey(b []byte, i int, idx []int) (key []byte, hasNull bool) {
	if t.columns != nil {
		t.ensureCols(idx)
		for _, c := range idx {
			col := &t.columns[c]
			code := col.codes[i]
			if code < 0 {
				return b, true
			}
			b = col.dict[code].AppendKey(b)
			b = append(b, 0x1f)
		}
		return b, false
	}
	row := t.rows[i]
	for _, c := range idx {
		v := row[c]
		if v.IsNull() {
			return b, true
		}
		b = v.AppendKey(b)
		b = append(b, 0x1f)
	}
	return b, false
}

// Insert appends a tuple after checking arity, types, NOT NULL and UNIQUE
// constraints. Type checking coerces where value.Coerce allows it. On the
// columnar engine the row is a one-row strict batch: it is encoded, checked
// by the batch appender's constraint post-pass and, when rejected, rolled
// back, so a failed insert never pollutes the column dictionaries (the
// single-attribute distinct count is the dictionary length).
func (t *Table) Insert(row Row) error {
	if t.columns != nil {
		a := t.singleAppender()
		if err := coerceRow(t.schema, a.rowBuf, row); err != nil {
			return err
		}
		base := a.begin()
		t.appendEncoded(a.rowBuf)
		if _, err := a.commit(base, true, true); err != nil {
			return err.(*BatchError).Err
		}
		return nil
	}
	stored := make(Row, len(t.schema.Attrs))
	if err := coerceRow(t.schema, stored, row); err != nil {
		return err
	}
	for i, a := range t.schema.Attrs {
		if a.NotNull && stored[i].IsNull() {
			return fmt.Errorf("table %s: attribute %s is NOT NULL", t.schema.Name, a.Name)
		}
	}
	for ui, u := range t.uniq {
		key, hasNull := keyOf(stored, u.idx)
		if hasNull {
			// A UNIQUE declaration implies NOT NULL on its
			// attributes (the paper's SQL convention).
			return fmt.Errorf("table %s: NULL in key %v", t.schema.Name, t.schema.Uniques[ui])
		}
		if prev, dup := u.probeByKey(key); dup {
			return fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", t.schema.Name, t.schema.Uniques[ui], prev)
		}
		u.registerByKey(key, t.Len())
	}
	t.rows = append(t.rows, stored)
	t.version++
	return nil
}

// MustInsert is Insert that panics on error; for tests and generators.
func (t *Table) MustInsert(row Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// InsertUnchecked appends a tuple without constraint enforcement. The
// corruption injector uses it to plant integrity violations (the paper
// explicitly copes with corrupted extensions). The row must match the
// schema arity. On the columnar engine it commits through the batch
// appender's commit tail with the constraint post-pass skipped.
func (t *Table) InsertUnchecked(row Row) {
	if t.columns == nil {
		t.rows = append(t.rows, row.Clone())
		t.version++
		return
	}
	a := t.singleAppender()
	base := a.begin()
	t.appendEncoded(row)
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
// analysis. On the columnar engine a single attribute is answered from
// the column's running counter; multi-attribute counts scan only the code
// vectors.
func (t *Table) CountNonNull(attrs []string) (int, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return 0, err
	}
	if t.columns != nil {
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
	n := 0
	for _, row := range t.rows {
		ok := true
		for _, c := range idx {
			if row[c].IsNull() {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// DistinctCount implements the paper's ‖r[X]‖: the number of distinct
// (NULL-free) value combinations over the given attributes, i.e. SQL
// "select count(distinct X) from R". Tuples with a NULL in X are skipped,
// matching COUNT(DISTINCT) semantics. On the columnar engine a single
// attribute is answered in O(1) — the dictionary length — with no
// allocation at all.
func (t *Table) DistinctCount(attrs []string) (int, error) {
	if t.columns != nil {
		if len(attrs) == 1 {
			if c, ok := t.cols[attrs[0]]; ok {
				// dictLen answers from restore metadata when the column
				// section is still deferred — the O(1) count never
				// forces a load.
				return t.dictLen(c), nil
			}
			return 0, fmt.Errorf("table %s: unknown attribute %q", t.schema.Name, attrs[0])
		}
		p, err := t.Projection(attrs)
		if err != nil {
			return 0, err
		}
		return p.Len(), nil
	}
	// Row-engine fast path for the overwhelmingly common case — a single
	// integer attribute (keys and foreign keys) — avoiding string keys.
	if len(attrs) == 1 {
		if set, ok := t.intSet(attrs[0]); ok {
			return len(set), nil
		}
	}
	set, err := t.DistinctSet(attrs)
	if err != nil {
		return 0, err
	}
	return len(set), nil
}

// intSet builds the distinct non-NULL int64 set of a single attribute; ok
// is false when the attribute is unknown or holds non-integer values.
func (t *Table) intSet(attr string) (map[int64]struct{}, bool) {
	col, ok := t.cols[attr]
	if !ok {
		return nil, false
	}
	if t.columns != nil {
		c := &t.columns[col]
		if c.nonInt {
			return nil, false
		}
		t.ensureCol(col)
		set := make(map[int64]struct{}, len(c.dict))
		for _, v := range c.dict {
			set[v.Int()] = struct{}{}
		}
		return set, true
	}
	set := make(map[int64]struct{})
	for _, row := range t.rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		if v.Kind() != value.KindInt {
			return nil, false
		}
		set[v.Int()] = struct{}{}
	}
	return set, true
}

// DistinctSet returns the set of distinct NULL-free composite keys over the
// given attributes, keyed canonically.
func (t *Table) DistinctSet(attrs []string) (map[string]struct{}, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{})
	var scratch []byte
	n := t.Len()
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		set[string(key)] = struct{}{}
	}
	return set, nil
}

// GroupRows builds the hashed projection index of the table over the
// given attributes: the row indexes grouped by distinct NULL-free
// composite key, keyed exactly like DistinctSet. Projection is the same
// index in the leaner form the stats cache memoizes; GroupRows remains
// for consumers that want the keyed map directly.
func (t *Table) GroupRows(attrs []string) (map[string][]int32, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	// The composite key is built into a reused scratch buffer and looked
	// up via the no-allocation string-conversion form; only the first
	// occurrence of each distinct key materializes a string. Group slices
	// live behind an id indirection so rows append without re-hashing the
	// key into the result map.
	index := make(map[string]int32)
	var slices [][]int32
	var scratch []byte
	n := t.Len()
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		id, ok := index[string(key)]
		if !ok {
			id = int32(len(slices))
			index[string(key)] = id
			slices = append(slices, nil)
		}
		slices[id] = append(slices[id], int32(i))
	}
	groups := make(map[string][]int32, len(index))
	for k, id := range index {
		groups[k] = slices[id]
	}
	return groups, nil
}

// Projection is the hashed projection index in its reusable form: a
// dictionary of distinct NULL-free composite keys mapping to dense group
// ids, plus the row → group-id vector. It carries the same information
// as GroupRows without materializing per-group row slices, which is why
// the stats cache memoizes this representation — Len is the paper's
// ‖r[X]‖, the dictionary answers join and containment queries, and
// RowGroup drives the FD checks.
//
// On the columnar engine the dictionary is derived lazily (see
// columnar.go): counting consumers never pay for it. Group ids are
// bit-identical between engines — dense, in first-occurrence row order,
// -1 for rows with a NULL among the attributes.
type Projection struct {
	RowGroup []int32 // row index → group id, -1 for NULL rows
	NonNull  int     // rows with no NULL among the attributes

	groups int // number of distinct groups
	// denseSteps/mapSteps record how many refinement steps the build ran
	// through each remapping strategy (columnar engine only); the stats
	// cache mirrors them into the observability counters.
	denseSteps, mapSteps int64
	// Exactly one dictionary flavor is populated (possibly lazily):
	// ints for a single all-integer attribute, strs otherwise.
	strs map[string]int32
	ints map[int64]int32
	lazy *lazyDict // non-nil on the columnar engine
	// repsV caches the group → representative-row vector (see
	// delta.go Reps); repsOnce guards its concurrent derivation.
	repsOnce sync.Once
	repsV    []int32
}

// RefineSteps reports how many refinement steps this projection's build
// executed through the dense direct-addressed strategy and through the
// sparse map fallback. Zero for single-attribute and row-engine builds.
func (p *Projection) RefineSteps() (dense, mapped int64) {
	return p.denseSteps, p.mapSteps
}

// Len returns the number of distinct groups — the paper's ‖r[X]‖.
func (p *Projection) Len() int { return p.groups }

// IntDict returns the int64 → group-id dictionary, or nil when the
// projection is not int-flavored (multi-attribute, or a column holding
// non-integer values). The caller must treat it as read-only.
func (p *Projection) IntDict() map[int64]int32 {
	if p.lazy != nil && p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.ints
}

// StrDict returns the canonical composite-key → group-id dictionary, or
// nil when the projection is int-flavored. The caller must treat it as
// read-only.
func (p *Projection) StrDict() map[string]int32 {
	if p.lazy != nil && !p.lazy.intFlavor {
		p.buildLazy()
	}
	return p.strs
}

// Projection builds the projection index over attrs. On the columnar
// engine this is pure integer arithmetic over the code vectors (see
// columnarProjection); on the row engine a single integer attribute is
// indexed by its raw int64 values and everything else uses the canonical
// composite-key encoding shared with DistinctSet and GroupRows.
func (t *Table) Projection(attrs []string) (*Projection, error) {
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	if t.columns != nil {
		return t.columnarProjection(idx), nil
	}
	p := &Projection{RowGroup: make([]int32, len(t.rows))}
	if len(idx) == 1 && t.intProjection(idx[0], p) {
		return p, nil
	}
	p.NonNull = 0 // a bailed-out int attempt may have counted some rows
	index := make(map[string]int32)
	var scratch []byte
	for i, row := range t.rows {
		scratch = scratch[:0]
		hasNull := false
		for _, c := range idx {
			v := row[c]
			if v.IsNull() {
				hasNull = true
				break
			}
			scratch = v.AppendKey(scratch)
			scratch = append(scratch, 0x1f)
		}
		if hasNull {
			p.RowGroup[i] = -1
			continue
		}
		id, ok := index[string(scratch)]
		if !ok {
			id = int32(len(index))
			index[string(scratch)] = id
		}
		p.RowGroup[i] = id
		p.NonNull++
	}
	p.strs = index
	p.groups = len(index)
	return p, nil
}

// ProjectionFrom builds the projection index over attrs starting from an
// already-built projection of the prefix attrs[:prefixLen], skipping the
// refinement steps the prefix already paid for. The prefix must have been
// built by this table over exactly attrs[:prefixLen]; callers are
// responsible for staleness (the stats cache validates the table pointer
// and version before reusing a prefix). As a backstop, a prefix whose row
// vector no longer matches the table length — every mutation grows it —
// is ignored and the projection is rebuilt from scratch. Group ids are
// bit-identical to a from-scratch Projection over attrs: refinement
// assigns ids in first-occurrence row order at every step, so the result
// depends only on the partition refined, not on where refinement started
// (pinned by TestProjectionFromPrefixEquivalence).
//
// On the row engine, prefix reuse does not apply and the call is
// equivalent to Projection(attrs).
func (t *Table) ProjectionFrom(prefix *Projection, prefixLen int, attrs []string) (*Projection, error) {
	if prefixLen < 1 || prefixLen > len(attrs) {
		return nil, fmt.Errorf("table %s: prefix length %d out of range for %d attributes", t.schema.Name, prefixLen, len(attrs))
	}
	if t.columns == nil || prefix == nil || len(prefix.RowGroup) != t.nrows {
		return t.Projection(attrs)
	}
	if prefixLen == len(attrs) {
		return prefix, nil
	}
	idx, err := t.colIndexes(attrs)
	if err != nil {
		return nil, err
	}
	r := acquireRefiner()
	defer releaseRefiner(r)
	return t.refineFrom(r, prefix.RowGroup, prefix.groups, idx, prefixLen), nil
}

// intProjection fills p for a single integer column; false when a
// non-integer value forces the generic encoding.
func (t *Table) intProjection(col int, p *Projection) bool {
	index := make(map[int64]int32)
	for i, row := range t.rows {
		v := row[col]
		if v.IsNull() {
			p.RowGroup[i] = -1
			continue
		}
		if v.Kind() != value.KindInt {
			return false
		}
		id, ok := index[v.Int()]
		if !ok {
			id = int32(len(index))
			index[v.Int()] = id
		}
		p.RowGroup[i] = id
		p.NonNull++
	}
	p.ints = index
	p.groups = len(index)
	return true
}

// compareRows orders rows by value.Compare, column by column.
func compareRows(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// JoinDistinctCount implements ‖r_k[A_k] ⋈ r_l[A_l]‖: the number of
// distinct value combinations shared by both projections — the size of the
// intersection of the two distinct sets. This is exactly the N_kl quantity
// of the IND-Discovery algorithm.
func JoinDistinctCount(tk *Table, ak []string, tl *Table, al []string) (int, error) {
	if len(ak) != len(al) {
		return 0, fmt.Errorf("table: equi-join arity mismatch: %v vs %v", ak, al)
	}
	// Integer fast path mirroring DistinctCount's.
	if len(ak) == 1 {
		if ski, ok := tk.intSet(ak[0]); ok {
			if sli, ok := tl.intSet(al[0]); ok {
				if len(sli) < len(ski) {
					ski, sli = sli, ski
				}
				n := 0
				for v := range ski {
					if _, shared := sli[v]; shared {
						n++
					}
				}
				return n, nil
			}
		}
	}
	sk, err := tk.DistinctSet(ak)
	if err != nil {
		return 0, err
	}
	sl, err := tl.DistinctSet(al)
	if err != nil {
		return 0, err
	}
	if len(sl) < len(sk) {
		sk, sl = sl, sk
	}
	n := 0
	for key := range sk {
		if _, ok := sl[key]; ok {
			n++
		}
	}
	return n, nil
}

// ContainedIn reports whether the distinct projection of t over attrs is a
// subset of the distinct projection of other over otherAttrs, i.e. whether
// the inclusion dependency t[attrs] ≪ other[otherAttrs] is satisfied by the
// extension.
func ContainedIn(t *Table, attrs []string, other *Table, otherAttrs []string) (bool, error) {
	if len(attrs) != len(otherAttrs) {
		return false, fmt.Errorf("table: inclusion arity mismatch: %v vs %v", attrs, otherAttrs)
	}
	left, err := t.DistinctSet(attrs)
	if err != nil {
		return false, err
	}
	right, err := other.DistinctSet(otherAttrs)
	if err != nil {
		return false, err
	}
	for key := range left {
		if _, ok := right[key]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// EquiJoinRows materializes the equi-join of two tables on the given
// attribute lists and returns pairs of row indexes (hash join). It exists
// for the SQL executor and for tests; the elicitation algorithms only need
// the distinct counts.
func EquiJoinRows(tk *Table, ak []string, tl *Table, al []string) ([][2]int, error) {
	if len(ak) != len(al) {
		return nil, fmt.Errorf("table: equi-join arity mismatch: %v vs %v", ak, al)
	}
	idxK, err := tk.colIndexes(ak)
	if err != nil {
		return nil, err
	}
	idxL, err := tl.colIndexes(al)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]int)
	var scratch []byte
	for i, n := 0, tl.Len(); i < n; i++ {
		key, hasNull := tl.appendRowKey(scratch[:0], i, idxL)
		scratch = key
		if hasNull {
			continue
		}
		build[string(key)] = append(build[string(key)], i)
	}
	var out [][2]int
	for i, n := 0, tk.Len(); i < n; i++ {
		key, hasNull := tk.appendRowKey(scratch[:0], i, idxK)
		scratch = key
		if hasNull {
			continue
		}
		for _, j := range build[string(key)] {
			out = append(out, [2]int{i, j})
		}
	}
	return out, nil
}

// Filter returns the indexes of rows for which pred is true. The row
// passed to pred is only valid for the duration of the call.
func (t *Table) Filter(pred func(Row) bool) []int {
	var out []int
	var buf Row
	n := t.Len()
	for i := 0; i < n; i++ {
		row := t.ReadRow(i, buf)
		if t.columns != nil {
			buf = row
		}
		if pred(row) {
			out = append(out, i)
		}
	}
	return out
}

// SortedRows returns all rows sorted by the full tuple order; it does not
// modify the table. Used for deterministic rendering.
func (t *Table) SortedRows() []Row {
	n := t.Len()
	out := make([]Row, n)
	if t.columns != nil {
		for i := 0; i < n; i++ {
			out[i] = t.ReadRow(i, nil)
		}
	} else {
		copy(out, t.rows)
	}
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out
}

// CheckUnique verifies a UNIQUE constraint over the current extension and
// returns the indexes of the first offending pair, if any. It is used to
// audit corrupted extensions.
func (t *Table) CheckUnique(u relation.AttrSet) (ok bool, rowA, rowB int, err error) {
	idx, err := t.colIndexes(u.Names())
	if err != nil {
		return false, 0, 0, err
	}
	n := t.Len()
	seen := make(map[string]int, n)
	var scratch []byte
	for i := 0; i < n; i++ {
		key, hasNull := t.appendRowKey(scratch[:0], i, idx)
		scratch = key
		if hasNull {
			continue
		}
		if prev, dup := seen[string(key)]; dup {
			return false, prev, i, nil
		}
		seen[string(key)] = i
	}
	return true, 0, 0, nil
}

// Database binds a catalog to its extension: one table per relation. It is
// the (R, E, ∅) triple the method takes as input.
type Database struct {
	catalog *relation.Catalog
	tables  map[string]*Table
	engine  Engine
}

// NewDatabase creates a database with an empty table per catalog relation
// on the default (columnar) engine.
func NewDatabase(catalog *relation.Catalog) *Database {
	return NewDatabaseWith(catalog, EngineColumnar)
}

// NewDatabaseWith is NewDatabase on the chosen engine; relations added
// later (AddRelation, DropAttrs) inherit it.
func NewDatabaseWith(catalog *relation.Catalog, engine Engine) *Database {
	db := &Database{catalog: catalog, tables: make(map[string]*Table, catalog.Len()), engine: engine}
	for _, s := range catalog.Schemas() {
		db.tables[s.Name] = NewWithEngine(s, engine)
	}
	return db
}

// Engine reports the backing store new relations are created on.
func (db *Database) Engine() Engine { return db.engine }

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
	db.tables[s.Name] = NewWithEngine(s, db.engine)
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
// On the columnar engine the surviving columns are shared, not
// re-encoded: a projection keeps every row, so the source's code vectors
// and first-occurrence dictionaries already are what re-encoding would
// build, and the drop costs O(columns) plus the constraint post-pass.
// Shared values are not re-coerced, so a wrongly kinded value planted
// by InsertUnchecked survives as stored. The row engine re-inserts row
// by row, the reference path.
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
	t := NewWithEngine(s, db.engine)
	db.tables[rel] = t
	keep := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		keep[i] = old.cols[a.Name]
	}
	if t.columns == nil || old.columns == nil {
		row := make(Row, len(keep))
		for i, n := 0, old.Len(); i < n; i++ {
			for j, c := range keep {
				row[j] = old.Value(i, c)
			}
			if err := t.Insert(row); err != nil {
				return err
			}
		}
		return nil
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

// valueBytes estimates the resident size of one stored value: the boxed
// Value struct plus any string payload it pins.
func valueBytes(v value.Value) int64 {
	const structBytes = 40 // kind + i + f + string header, padded
	if v.Kind() == value.KindString {
		return structBytes + int64(len(v.Str()))
	}
	return structBytes
}

// ApproxBytes estimates the resident heap size of the table's extension:
// code vectors, dictionaries and interning maps on the columnar engine,
// boxed rows on the row engine. It is a sizing heuristic (within a small
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
		b += columnBytes(&t.columns[i])
	}
	for _, r := range t.rows {
		b += 24 // slice header
		for _, v := range r {
			b += valueBytes(v)
		}
	}
	// Memoize on the columnar engine once every column is resident (the
	// batch appender then maintains the value by delta, see append.go).
	// Frozen epochs stay un-memoized: they may be scanned concurrently,
	// and writing the cache would race.
	if t.columns != nil && !t.frozen && (t.lazy == nil || t.lazy.pending.Load() == 0) {
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
