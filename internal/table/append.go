// Batched ingest. A ChunkEncoder parses one chunk of input rows into
// chunk-local dictionary codes — independently of every other chunk, so
// loaders can fan chunks across workers — and Appender.AppendBatch
// commits finished chunks into the table. An empty table adopts the
// chunk's columns as they are; otherwise chunk dictionaries are interned
// into the global ones once per *distinct* value and a dense remap table
// translates the chunk's codes, so the per-row hot path is an int32 array
// lookup instead of a value.Key hash probe. Constraint enforcement
// (NOT NULL, UNIQUE) runs as a columnar post-pass over the merged rows,
// by dictionary code (see uniq.go), and reproduces the sequential
// semantics of inserting row by row exactly: identical violation counts
// and phantom registrations in non-strict loads, identical first-error
// state in strict ones. The per-row insert paths commit one-row batches
// through the same tail, so the post-pass is the engine's only
// constraint checker. The differential tests here and in internal/csvio
// pin batch and per-row loads to the same bytes of engine state.
package table

import (
	"fmt"
	"slices"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// BatchError is the error AppendBatch returns in strict mode: the
// Insert-equivalent constraint error plus the batch-relative index of
// the violating row, so loaders can report exact line numbers.
type BatchError struct {
	Row int   // batch-relative index of the violating row
	Err error // the error Insert would have returned for it
}

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// AppendStats accumulates ingest observability counters across the
// batches an Appender has merged.
type AppendStats struct {
	Batches    int64 // AppendBatch calls
	Rows       int64 // rows offered across all batches
	Remaps     int64 // chunk-dictionary entries merged into global codes (adopted ones excluded)
	Violations int64 // constraint violations (non-strict mode)
}

// ChunkEncoder accumulates rows of one chunk in columnar form with a
// chunk-local dictionary per attribute. Not safe for concurrent use;
// each worker owns one. Rows arrive either boxed (AppendRow, coerced to
// the schema's attribute types exactly as Insert does) or as CSV field
// text (AppendFields, parsed straight to those types); NOT NULL and
// UNIQUE checking is deferred to AppendBatch's post-pass.
type ChunkEncoder struct {
	schema  *relation.Schema
	cols    []column
	n       int
	scratch Row
}

// NewChunkEncoder creates an encoder for t's schema.
func NewChunkEncoder(t *Table) *ChunkEncoder {
	return &ChunkEncoder{
		schema:  t.schema,
		cols:    make([]column, len(t.schema.Attrs)),
		scratch: make(Row, len(t.schema.Attrs)),
	}
}

// Len reports the number of rows encoded so far.
func (e *ChunkEncoder) Len() int { return e.n }

// Reset discards the encoded rows and dictionaries so the encoder can
// be reused for another chunk of the same relation. Capacity is
// retained: codes, dictionaries and intern tables keep their backing
// storage, so a worker cycling through chunks stops allocating once its
// encoder has seen a full-sized chunk. (A batch adopted by an empty table
// takes that storage with it.)
func (e *ChunkEncoder) Reset() {
	for i := range e.cols {
		c := &e.cols[i]
		c.codes = c.codes[:0]
		c.dict = c.dict[:0]
		c.ints.reset()
		clear(c.keys)
		c.nonNull = 0
		c.nonInt = false
	}
	e.n = 0
}

// Grow reserves code-vector capacity for n more rows, so encoding a
// chunk whose record count is known up front appends without regrowing.
func (e *ChunkEncoder) Grow(n int) {
	for i := range e.cols {
		e.cols[i].codes = slices.Grow(e.cols[i].codes, n)
	}
}

// AppendRow encodes one row into the chunk. It fails only on arity or
// type errors (with Insert's error text); the row is not stored then.
func (e *ChunkEncoder) AppendRow(row Row) error {
	if err := coerceRow(e.schema, e.scratch, row); err != nil {
		return err
	}
	e.encodeScratch()
	return nil
}

// coerceRow checks row's arity against the schema and copies it into
// dst with every non-NULL value coerced to its attribute's type.
func coerceRow(s *relation.Schema, dst, row Row) error {
	if len(row) != len(s.Attrs) {
		return fmt.Errorf("table %s: arity %d, want %d", s.Name, len(row), len(s.Attrs))
	}
	for i, a := range s.Attrs {
		v := row[i]
		if !v.IsNull() && v.Kind() != a.Type {
			coerced, ok := value.Coerce(v, a.Type)
			if !ok {
				return fmt.Errorf("table %s: attribute %s: cannot store %v as %v",
					s.Name, a.Name, v.Kind(), a.Type)
			}
			v = coerced
		}
		dst[i] = v
	}
	return nil
}

// AppendFields encodes one record of field texts into the chunk: field i
// is parsed by value.Parse as attribute colIdx[i]'s type, which already
// yields the stored kind, and goes straight into that column's
// dictionary; attributes no field maps to encode as NULL. It fails on an
// arity mismatch or a field that does not parse (with Parse's error),
// and then stores nothing: Len and the column state are unchanged.
func (e *ChunkEncoder) AppendFields(rec []string, colIdx []int) error {
	if len(rec) != len(colIdx) {
		return fmt.Errorf("table %s: %d fields for %d columns", e.schema.Name, len(rec), len(colIdx))
	}
	for i := range e.scratch {
		e.scratch[i] = value.Null
	}
	for i, field := range rec {
		v, err := value.Parse(field, e.schema.Attrs[colIdx[i]].Type)
		if err != nil {
			return err
		}
		e.scratch[colIdx[i]] = v
	}
	e.encodeScratch()
	return nil
}

// encodeScratch appends the row staged in scratch to the chunk.
func (e *ChunkEncoder) encodeScratch() {
	for i := range e.cols {
		c := &e.cols[i]
		c.codes = append(c.codes, c.encode(e.scratch[i]))
	}
	e.n++
}

// Appender merges ChunkEncoder batches into one table. It owns the
// reusable merge scratch (remap table, violation flags, key buffers), so
// steady-state appends allocate only for genuinely new dictionary
// entries and storage growth. Not safe for concurrent use; batches of a
// parallel load are committed by one goroutine in chunk order, which is
// what makes the merged state independent of worker scheduling.
//
// Every mutation commits through an Appender: AppendBatch
// merges a chunk, the per-row insert paths append one encoded row, and
// both then run the same commit tail (begin, then commit).
type Appender struct {
	t     *Table
	stats AppendStats

	remap   []int32
	viol    []bool
	codeBuf []int32
	keyBuf  []byte
	rowBuf  Row // the per-row insert paths' coerced row
	// Pre-commit column state, captured by begin for the strict-mode
	// rollback and the byte accounting: dictionary length, nonNull count
	// and nonInt flag.
	baseDict    []int
	baseNonNull []int
	baseNonInt  []bool
	baseVersion uint64
}

// NewAppender creates an appender for t.
func (t *Table) NewAppender() *Appender { return &Appender{t: t} }

// Stats returns the accumulated ingest counters.
func (a *Appender) Stats() AppendStats { return a.stats }

// AppendBatch merges an encoded chunk into the table.
//
// strict=false mirrors the tolerant loader: rows violating NOT NULL or
// UNIQUE are retained anyway and counted, exactly as a per-row
// Insert-then-InsertUnchecked load would leave them.
//
// strict=true mirrors Insert's all-or-nothing-per-row semantics: on the
// first violating row the batch is rolled back to just before it (rows
// preceding it in the batch stay, as if inserted one by one) and a
// *BatchError carrying the Insert-equivalent error is returned.
//
// A batch committed into a table with no rows and empty dictionaries is
// adopted rather than merged: the table takes the encoder's storage, and
// the encoder is left empty (Len 0, no retained capacity). Callers that
// need the batch's row count read Len before the call.
func (a *Appender) AppendBatch(b *ChunkEncoder, strict bool) (violations int, err error) {
	t := a.t
	if b.schema != t.schema {
		return 0, fmt.Errorf("table %s: batch encoded for schema %s", t.schema.Name, b.schema.Name)
	}
	a.stats.Batches++
	a.stats.Rows += int64(b.n)
	if b.n == 0 {
		return 0, nil
	}
	base := a.begin()
	n := b.n
	if base == 0 && a.dictsEmpty() {
		a.adopt(b)
	} else {
		a.merge(b, base)
	}
	t.nrows += n
	return a.commit(base, strict, true)
}

// dictsEmpty reports whether every column dictionary is empty.
func (a *Appender) dictsEmpty() bool {
	for ci := range a.t.columns {
		if len(a.t.columns[ci].dict) > 0 {
			return false
		}
	}
	return true
}

// adopt is the merge into an empty table: the chunk dictionaries are
// already in first-occurrence order, so the remap would be the identity,
// and the columns take the chunk's codes, dictionaries and intern maps
// as they are. The encoder is left empty with fresh columns, so its
// Reset and reuse can never write into table state.
func (a *Appender) adopt(b *ChunkEncoder) {
	for ci := range a.t.columns {
		a.t.columns[ci] = b.cols[ci]
		b.cols[ci] = column{}
	}
	b.n = 0
}

// merge interns each chunk-dictionary entry once (chunk dictionaries are
// in first-occurrence order, and batches commit in row order, so the
// global dictionaries keep exact first-occurrence order), then
// translates the chunk's codes, appended after row base, through the
// dense remap table.
func (a *Appender) merge(b *ChunkEncoder, base int) {
	for ci := range a.t.columns {
		gc := &a.t.columns[ci]
		cc := &b.cols[ci]
		remap := a.remap
		if cap(remap) < len(cc.dict) {
			remap = make([]int32, len(cc.dict))
			a.remap = remap
		}
		remap = remap[:len(cc.dict)]
		for li, v := range cc.dict {
			remap[li] = gc.intern(v)
		}
		a.stats.Remaps += int64(len(cc.dict))
		gc.codes = append(gc.codes, cc.codes...)
		out := gc.codes[base:]
		for i, code := range out {
			if code >= 0 {
				out[i] = remap[code]
			}
		}
		gc.nonNull += cc.nonNull
		if cc.nonInt {
			gc.nonInt = true
		}
	}
}

// begin opens a commit: it readies the table for mutation and captures
// the pre-commit column state that commit's rollback and byte accounting
// start from. It returns the row count the new rows land after.
func (a *Appender) begin() int {
	t := a.t
	t.ensureMutable()
	nc := len(t.columns)
	a.baseDict = resizeInts(a.baseDict, nc)
	a.baseNonNull = resizeInts(a.baseNonNull, nc)
	if cap(a.baseNonInt) < nc {
		a.baseNonInt = make([]bool, nc)
	}
	a.baseNonInt = a.baseNonInt[:nc]
	for ci := range t.columns {
		c := &t.columns[ci]
		a.baseDict[ci] = len(c.dict)
		a.baseNonNull[ci] = c.nonNull
		a.baseNonInt[ci] = c.nonInt
	}
	a.baseVersion = t.version
	return t.nrows
}

// commit is the commit tail every mutation ends in, once the
// rows [base, t.nrows) are stored: bump the version, run the constraint
// post-pass when check is set (strict rolls back from the first
// violating row), account the ApproxBytes delta and publish the
// resulting state as the new read epoch. Commit and rollback alike land
// on a consistent state, so both publish. The row sample is not fed
// here: readers catch it up on demand (see sample.go).
func (a *Appender) commit(base int, strict, check bool) (violations int, err error) {
	t := a.t
	t.version += uint64(t.nrows - base)
	if check {
		violations, err = a.checkAppended(base, strict)
	}
	a.noteAppendBytes(base)
	t.publishEpoch()
	return violations, err
}

// noteAppendBytes applies the batch's ApproxBytes delta once the
// constraint post-pass settled the surviving region: appended codes plus
// the surviving new dictionary entries (value payload + interning-table
// overhead, mirroring columnBytes). A no-op while the memo is invalid —
// the next full ApproxBytes scan re-validates it.
func (a *Appender) noteAppendBytes(base int) {
	t := a.t
	if !t.abytesValid {
		return
	}
	d := int64(t.nrows-base) * int64(len(t.columns)) * 4
	for ci := range t.columns {
		for _, v := range t.columns[ci].dict[a.baseDict[ci]:] {
			d += valueBytes(v) + intSlotBytes
		}
	}
	t.abytes += d
}

// adoptColumns fills the empty table t with the source columns
// keep[j] → j, sharing their code vectors and dictionaries, and commits
// them strictly as if all of them had just been appended to an empty
// table (Database.DropAttrs). The views are capacity-clipped, so t's
// later appends reallocate instead of writing into the source's arrays,
// and t's interning maps are rebuilt lazily on its first mutation,
// exactly as for a restored table.
func (t *Table) adoptColumns(src *Table, keep []int) error {
	src.ensureCols(keep)
	n := src.nrows
	if n == 0 {
		return nil
	}
	a := t.NewAppender()
	base := a.begin()
	for j, c := range keep {
		sc := &src.columns[c]
		d := len(sc.dict)
		t.columns[j] = column{codes: sc.codes[:n:n], dict: sc.dict[:d:d], nonNull: sc.nonNull, nonInt: sc.nonInt}
	}
	t.nrows = n
	t.internStale = true
	for _, u := range t.uniq {
		if len(u.idx) == 1 {
			// A clean key column registers every code once; reserving the
			// capacity keeps the registration pass from regrowing.
			u.dense = make([]int32, 0, len(t.columns[u.idx[0]].dict))
		}
	}
	_, err := a.commit(base, true, true)
	if err != nil {
		// The rollback truncated the shared views in place; clip them
		// again so the truncated tails stay the source's.
		for j := range t.columns {
			c := &t.columns[j]
			c.codes = c.codes[:len(c.codes):len(c.codes)]
			c.dict = c.dict[:len(c.dict):len(c.dict)]
		}
		err = err.(*BatchError).Err
	}
	return err
}

// checkAppended is the constraint post-pass over the merged
// rows [base, t.nrows): NOT NULL column scans first, then the UNIQUE
// probes row-major in row order — registration order matters, because a
// row's key must be visible to the duplicates that follow it.
func (a *Appender) checkAppended(base int, strict bool) (int, error) {
	t := a.t
	nb := t.nrows - base
	viol := a.viol
	if cap(viol) < nb {
		viol = make([]bool, nb)
	}
	viol = viol[:nb]
	for i := range viol {
		viol[i] = false
	}
	a.viol = viol
	for ci := range t.schema.Attrs {
		if !t.schema.Attrs[ci].NotNull {
			continue
		}
		codes := t.columns[ci].codes[base:]
		for i, code := range codes {
			if code < 0 {
				viol[i] = true
			}
		}
	}
	violations := 0
	for i := 0; i < nb; i++ {
		row := base + i
		if viol[i] {
			// A NOT NULL failure precedes every key check, so the row
			// leaves no registrations — exactly Insert's early return.
			if strict {
				err := a.notNullError(row)
				a.rollback(base, row, 0)
				return violations, &BatchError{Row: i, Err: err}
			}
			violations++
			a.stats.Violations++
			continue
		}
		failedAt := -1
		var ferr error
		for ui, u := range t.uniq {
			codes, nullKey := a.gatherCodes(u, row)
			if nullKey {
				ferr = fmt.Errorf("table %s: NULL in key %v", t.schema.Name, t.schema.Uniques[ui])
				failedAt = ui
				break
			}
			if prev, dup := u.probeCodes(codes, &a.keyBuf); dup {
				ferr = fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", t.schema.Name, t.schema.Uniques[ui], prev)
				failedAt = ui
				break
			}
			if len(u.byKey) > 0 {
				key, _ := t.appendRowKey(a.keyBuf[:0], row, u.idx)
				a.keyBuf = key
				if prev, dup := u.probeByKey(string(key)); dup {
					ferr = fmt.Errorf("table %s: UNIQUE(%v) violated by row %d", t.schema.Name, t.schema.Uniques[ui], prev)
					failedAt = ui
					break
				}
			}
		}
		if failedAt < 0 {
			for _, u := range t.uniq {
				codes, _ := a.gatherCodes(u, row)
				u.registerCodes(codes, row, &a.keyBuf)
			}
			continue
		}
		if strict {
			a.rollback(base, row, failedAt)
			return violations, &BatchError{Row: i, Err: ferr}
		}
		// Non-strict: the violating row is retained (the tolerant loader
		// would have InsertUnchecked'd it), and the constraints preceding
		// the failed one keep their registrations at this row's index.
		// The per-row path records those as value-keyed phantoms (Insert
		// rejected the row before InsertUnchecked stored it), so register
		// byKey — not by code — to keep the engine state bit-identical.
		for uj := 0; uj < failedAt; uj++ {
			u := t.uniq[uj]
			key, _ := t.appendRowKey(a.keyBuf[:0], row, u.idx)
			a.keyBuf = key
			u.registerByKey(string(key), row)
		}
		violations++
		a.stats.Violations++
	}
	return violations, nil
}

// gatherCodes collects row's codes over the constraint's columns.
func (a *Appender) gatherCodes(u *uniqIndex, row int) (codes []int32, nullKey bool) {
	t := a.t
	codes = a.codeBuf[:0]
	for _, c := range u.idx {
		code := t.columns[c].codes[row]
		if code < 0 {
			a.codeBuf = codes
			return codes, true
		}
		codes = append(codes, code)
	}
	a.codeBuf = codes
	return codes, false
}

// notNullError rebuilds Insert's error for the first NOT NULL attribute
// (in schema order) the row violates.
func (a *Appender) notNullError(row int) error {
	t := a.t
	for ci, attr := range t.schema.Attrs {
		if attr.NotNull && t.columns[ci].codes[row] < 0 {
			return fmt.Errorf("table %s: attribute %s is NOT NULL", t.schema.Name, attr.Name)
		}
	}
	return fmt.Errorf("table %s: internal: no NOT NULL violation at row %d", t.schema.Name, row)
}

// rollback undoes the merged batch's tail for strict mode, leaving the
// table exactly as row-by-row Inserts up to (excluding) row keep would
// have: codes and row count truncated, dictionary entries first occurring
// at dropped rows removed (they form a dictionary suffix, because codes
// are assigned in first-occurrence order), nonNull/nonInt and version
// recomputed over the kept region. The violating row's partial
// registrations (constraints before phantomUpto) are converted to
// value-keyed phantoms first, while the dictionaries still cover them —
// Insert leaves the same registrations behind for a rejected row.
func (a *Appender) rollback(base, keep, phantomUpto int) {
	t := a.t
	for uj := 0; uj < phantomUpto; uj++ {
		u := t.uniq[uj]
		key, _ := t.appendRowKey(a.keyBuf[:0], keep, u.idx)
		a.keyBuf = key
		u.registerByKey(string(key), keep)
	}
	for ci := range t.columns {
		c := &t.columns[ci]
		keepDict := a.baseDict[ci]
		for _, code := range c.codes[base:keep] {
			if int(code) >= keepDict {
				keepDict = int(code) + 1
			}
		}
		for _, v := range c.dict[keepDict:] {
			if v.Kind() == value.KindInt {
				c.ints.delete(v.Int())
			} else {
				delete(c.keys, v.Key())
			}
		}
		c.dict = c.dict[:keepDict]
		nn := a.baseNonNull[ci]
		for _, code := range c.codes[base:keep] {
			if code >= 0 {
				nn++
			}
		}
		c.nonNull = nn
		nonInt := a.baseNonInt[ci]
		for _, v := range c.dict[a.baseDict[ci]:] {
			if v.Kind() != value.KindInt {
				nonInt = true
			}
		}
		c.nonInt = nonInt
		c.codes = c.codes[:keep]
	}
	// Dense key indexes may have grown past the surviving dictionary;
	// the trimmed tail holds no registrations (only rows before keep
	// registered, and their codes survive), so truncation keeps future
	// growth consistent.
	for _, u := range t.uniq {
		if len(u.idx) == 1 {
			if dl := len(t.columns[u.idx[0]].dict); len(u.dense) > dl {
				u.dense = u.dense[:dl]
			}
		}
	}
	t.nrows = keep
	t.version = a.baseVersion + uint64(keep-base)
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
