// Snapshot reader. Open verifies the whole file up front — header,
// trailer, footer, and the CRC32C of every section payload in one
// streaming pass — then restores the database *lazily*: catalog, row
// counts, per-column counters and uniqueness state are decoded eagerly
// (they are small), while each column's code vector and dictionary stay
// on disk behind a ColumnLoader until the first read that touches them.
// Discovery phases therefore fault in only the column sections they
// actually scan, and the stats cache above never notices the difference.
// A column section's contents are validated when it loads: with
// Options.Preload that is inside Open, which then returns the error; a
// lazy load that fails panics in the reader (see table.RestoreTableLazy).
package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/table"
)

// Options tunes Open.
type Options struct {
	// Preload materializes every column section before Open returns and
	// closes the snapshot file: the database is then fully resident and
	// independent of the directory. Default (false) is lazy per-column
	// loading; the caller must keep the OpenInfo un-Closed until done.
	Preload bool
}

// OpenInfo describes what Open restored, and owns the open snapshot file
// backing lazy column loads.
type OpenInfo struct {
	Relations   int          // relations restored
	Rows        int          // total rows across relations
	Sections    int          // sections verified in the snapshot
	LazyColumns int          // column sections still deferred at return
	WAL         *ReplayStats // non-nil when a WAL was found and replayed
	// Epoch is the restored database's epoch (the sum of per-table
	// mutation versions after WAL replay) — the baseline an incremental
	// discovery run over the reopened database starts from.
	Epoch uint64

	f        *os.File
	mu       sync.Mutex
	closeErr error
	closed   bool
}

// Close releases the snapshot file backing lazy column loads. Call it
// only once every needed column has been materialized (or after Preload):
// a deferred column touched after Close panics. Idempotent.
func (i *OpenInfo) Close() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.closed {
		return i.closeErr
	}
	i.closed = true
	if i.f != nil {
		i.closeErr = i.f.Close()
	}
	return i.closeErr
}

// Open restores the database persisted in dir: the snapshot, plus —
// when a WAL bound to that snapshot is present — a replay of its logged
// batches, converging on the exact pre-crash engine state. Columns load
// lazily; see Options.Preload and OpenInfo.Close.
func Open(dir string) (*table.Database, *OpenInfo, error) {
	return OpenCtx(context.Background(), dir, Options{})
}

// OpenCtx is Open with observability (an "open-snapshot" span and the
// wal-records-replayed / wal-rows-replayed counters) and Options.
func OpenCtx(ctx context.Context, dir string, opt Options) (*table.Database, *OpenInfo, error) {
	_, sp := obs.StartSpan(ctx, "open-snapshot")
	defer sp.End()

	path := filepath.Join(dir, SnapshotFile)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
		}
		return nil, nil, fmt.Errorf("storage: open: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()

	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open: %w", err)
	}
	size := st.Size()

	entries, footerCRC, err := readLayout(f, path, size)
	if err != nil {
		return nil, nil, err
	}
	schemas, rels, err := verifySections(f, path, entries, opt.Preload)
	if err != nil {
		return nil, nil, err
	}
	catalog, err := relation.NewCatalog(schemas...)
	if err != nil {
		return nil, nil, corrupt(path, "catalog", "%v", err)
	}

	info := &OpenInfo{Relations: len(schemas), Sections: len(entries), f: f}
	ri := 0
	db, err := table.RestoreDatabase(catalog, func(s *relation.Schema) (*table.Table, error) {
		r := rels[ri]
		ri++
		loader := &columnLoader{
			f: f, path: path, schema: s,
			nrows: r.state.NRows,
			codes: r.codes, dicts: r.dicts,
		}
		t, err := table.RestoreTableLazy(s, r.state, loader)
		if err != nil {
			return nil, corrupt(path, sectionName(secTableMeta, uint32(ri-1), noID), "%v", err)
		}
		info.Rows += r.state.NRows
		return t, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Preloading before the WAL replay surfaces an invalid column section
	// as an error; a replayed batch loads its table's columns too, but
	// would panic on one.
	if opt.Preload {
		for _, s := range catalog.Schemas() {
			if err := db.MustTable(s.Name).Preload(); err != nil {
				return nil, nil, fmt.Errorf("storage: open: %w", err)
			}
		}
	}
	walPath := filepath.Join(dir, WALFile)
	if _, werr := os.Stat(walPath); werr == nil {
		stats, rerr := replayBoundWAL(ctx, db, walPath, footerCRC, uint64(size))
		if rerr != nil {
			return nil, nil, rerr
		}
		info.WAL = stats
	}

	if opt.Preload {
		info.f = nil
		if err := f.Close(); err != nil {
			return nil, nil, fmt.Errorf("storage: open: %w", err)
		}
	}
	for _, s := range catalog.Schemas() {
		info.LazyColumns += db.MustTable(s.Name).PendingColumns()
	}
	info.Epoch = db.Epoch()
	ok = true
	return db, info, nil
}

// IsSnapshot reports whether dir holds a snapshot file.
func IsSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, SnapshotFile))
	return err == nil
}

// readLayout parses the snapshot's fixed header, trailer and footer and
// returns the verified section table plus the footer CRC (the value a
// WAL binds to).
func readLayout(f *os.File, path string, size int64) ([]sectionEntry, uint32, error) {
	if size < headerSize+trailerSize {
		return nil, 0, corrupt(path, "file", "%d bytes is smaller than header+trailer", size)
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, 0, fmt.Errorf("storage: open: %w", err)
	}
	if string(hdr[:8]) != snapshotMagic {
		return nil, 0, corrupt(path, "header", "bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return nil, 0, corrupt(path, "header", "unsupported format version %d", v)
	}
	tr := make([]byte, trailerSize)
	if _, err := f.ReadAt(tr, size-trailerSize); err != nil {
		return nil, 0, fmt.Errorf("storage: open: %w", err)
	}
	if string(tr[20:]) != trailerMagic {
		return nil, 0, corrupt(path, "trailer", "bad magic %q", tr[20:])
	}
	footerOff := binary.LittleEndian.Uint64(tr)
	footerLen := binary.LittleEndian.Uint64(tr[8:])
	footerCRC := binary.LittleEndian.Uint32(tr[16:])
	if footerOff < headerSize || footerOff+footerLen != uint64(size)-trailerSize {
		return nil, 0, corrupt(path, "trailer", "footer bounds [%d,+%d) do not fit file size %d", footerOff, footerLen, size)
	}
	payload := make([]byte, footerLen)
	if _, err := f.ReadAt(payload, int64(footerOff)); err != nil {
		return nil, 0, fmt.Errorf("storage: open: %w", err)
	}
	if c := checksum(payload); c != footerCRC {
		return nil, 0, corrupt(path, "footer", "checksum mismatch: file says %08x, payload is %08x", footerCRC, c)
	}
	d := dec{b: payload}
	n := d.count("section")
	entries := make([]sectionEntry, 0, n)
	for i := 0; i < n; i++ {
		e := sectionEntry{
			typ: d.u8(), rel: d.u32(), col: d.u32(),
			off: d.u64(), len: d.u64(), crc: d.u32(),
		}
		if d.err != nil {
			break
		}
		if e.off < headerSize || e.off+e.len > footerOff {
			return nil, 0, corrupt(path, "footer", "section %d bounds [%d,+%d) outside payload region", i, e.off, e.len)
		}
		entries = append(entries, e)
	}
	if err := d.finish("footer"); err != nil {
		return nil, 0, corrupt(path, "footer", "%v", err)
	}
	return entries, footerCRC, nil
}

// relLayout collects one relation's decoded state and the file locations
// of its deferred column sections.
type relLayout struct {
	state *table.TableState
	codes []sectionEntry
	dicts []sectionEntry
}

// verifySections reads every section payload once, verifying its CRC32C
// — any flipped byte or truncation anywhere in the file surfaces here as
// a typed *CorruptError naming the section — and decodes the small
// eager sections (catalog, table metadata, uniqueness state) along the
// way. Codes and dictionaries are verified but not decoded; with
// preload set they are not read at all, because the preload that
// follows reads and verifies each of them before Open returns.
func verifySections(f *os.File, path string, entries []sectionEntry, preload bool) ([]*relation.Schema, []*relLayout, error) {
	var buf []byte
	read := func(e sectionEntry) ([]byte, error) {
		if uint64(cap(buf)) < e.len {
			buf = make([]byte, e.len)
		}
		b := buf[:e.len]
		if _, err := f.ReadAt(b, int64(e.off)); err != nil {
			return nil, fmt.Errorf("storage: open: %w", err)
		}
		if c := checksum(b); c != e.crc {
			return nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "checksum mismatch: footer says %08x, payload is %08x", e.crc, c)
		}
		return b, nil
	}

	// Pass 1: the catalog (needed to size everything else).
	var schemas []*relation.Schema
	seenCatalog := false
	for _, e := range entries {
		if e.typ != secCatalog {
			continue
		}
		if seenCatalog {
			return nil, nil, corrupt(path, "catalog", "duplicate section")
		}
		seenCatalog = true
		b, err := read(e)
		if err != nil {
			return nil, nil, err
		}
		schemas, err = decodeCatalog(path, b)
		if err != nil {
			return nil, nil, err
		}
	}
	if !seenCatalog {
		return nil, nil, corrupt(path, "catalog", "section missing")
	}

	rels := make([]*relLayout, len(schemas))
	for i, s := range schemas {
		rels[i] = &relLayout{
			codes: make([]sectionEntry, len(s.Attrs)),
			dicts: make([]sectionEntry, len(s.Attrs)),
		}
	}
	seen := make(map[[3]uint32]bool, len(entries))

	// Pass 2: everything else, verified in file order; metadata and
	// uniqueness state decode now, column payloads stay on disk.
	for _, e := range entries {
		if e.typ == secCatalog {
			continue
		}
		key := [3]uint32{uint32(e.typ), e.rel, e.col}
		if seen[key] {
			return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "duplicate section")
		}
		seen[key] = true
		if int(e.rel) >= len(schemas) {
			return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "relation index out of range (%d relations)", len(schemas))
		}
		r := rels[e.rel]
		nattrs := len(schemas[e.rel].Attrs)
		switch e.typ {
		case secTableMeta, secUniq:
			if e.col != noID {
				return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "unexpected column index")
			}
		case secCodes, secDict:
			if int(e.col) >= nattrs {
				return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "column index out of range (%d attributes)", nattrs)
			}
		default:
			return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "unknown section type")
		}
		var b []byte
		if !preload || e.typ == secTableMeta || e.typ == secUniq {
			var err error
			if b, err = read(e); err != nil {
				return nil, nil, err
			}
		}
		switch e.typ {
		case secTableMeta:
			st, err := decodeTableMeta(path, e, b, nattrs)
			if err != nil {
				return nil, nil, err
			}
			r.state = st
		case secUniq:
			uniqs, err := decodeUniq(path, e, b)
			if err != nil {
				return nil, nil, err
			}
			if r.state == nil {
				return nil, nil, corrupt(path, sectionName(e.typ, e.rel, e.col), "uniq section precedes tablemeta")
			}
			r.state.Uniqs = uniqs
		case secCodes:
			r.codes[e.col] = e
		case secDict:
			r.dicts[e.col] = e
		}
	}

	// Completeness: every relation needs its metadata and both sections
	// of every column; code-vector sections must be exactly 4·nrows.
	for ri, r := range rels {
		s := schemas[ri]
		if r.state == nil {
			return nil, nil, corrupt(path, sectionName(secTableMeta, uint32(ri), noID), "section missing")
		}
		if len(r.state.Uniqs) != len(s.Uniques) {
			return nil, nil, corrupt(path, sectionName(secUniq, uint32(ri), noID),
				"%d unique indexes for %d declared constraints", len(r.state.Uniqs), len(s.Uniques))
		}
		for ci := range s.Attrs {
			ce, de := r.codes[ci], r.dicts[ci]
			if ce.typ != secCodes {
				return nil, nil, corrupt(path, sectionName(secCodes, uint32(ri), uint32(ci)), "section missing")
			}
			if de.typ != secDict {
				return nil, nil, corrupt(path, sectionName(secDict, uint32(ri), uint32(ci)), "section missing")
			}
			if ce.len != uint64(r.state.NRows)*4 {
				return nil, nil, corrupt(path, sectionName(secCodes, uint32(ri), uint32(ci)),
					"%d bytes for %d rows (want %d)", ce.len, r.state.NRows, r.state.NRows*4)
			}
		}
	}
	return schemas, rels, nil
}

func decodeCatalog(path string, payload []byte) ([]*relation.Schema, error) {
	d := dec{b: payload}
	n := d.count("relation")
	schemas := make([]*relation.Schema, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		nattr := d.count("attribute")
		attrs := make([]relation.Attribute, 0, nattr)
		for j := 0; j < nattr && d.err == nil; j++ {
			a := relation.Attribute{Name: d.str()}
			kt := d.u8()
			k, ok := tagKind(kt)
			if d.err == nil && !ok {
				d.fail("attribute %s: unknown type tag %d", a.Name, kt)
			}
			a.Type = k
			switch nn := d.u8(); nn {
			case 0:
			case 1:
				a.NotNull = true
			default:
				d.fail("attribute %s: bad not-null flag %d", a.Name, nn)
			}
			attrs = append(attrs, a)
		}
		nuniq := d.count("unique")
		uniques := make([]relation.AttrSet, 0, nuniq)
		for j := 0; j < nuniq && d.err == nil; j++ {
			nn := d.count("unique attribute")
			names := make([]string, 0, nn)
			for k := 0; k < nn && d.err == nil; k++ {
				names = append(names, d.str())
			}
			uniques = append(uniques, relation.NewAttrSet(names...))
		}
		if d.err != nil {
			break
		}
		s, err := relation.NewSchema(name, attrs, uniques...)
		if err != nil {
			return nil, corrupt(path, "catalog", "relation %s: %v", name, err)
		}
		schemas = append(schemas, s)
	}
	if err := d.finish("catalog"); err != nil {
		return nil, corrupt(path, "catalog", "%v", err)
	}
	return schemas, nil
}

func decodeTableMeta(path string, e sectionEntry, payload []byte, nattrs int) (*table.TableState, error) {
	sec := sectionName(e.typ, e.rel, e.col)
	d := dec{b: payload}
	st := &table.TableState{
		NRows:   int(d.uvarint()),
		Version: d.uvarint(),
	}
	flags := d.u8()
	if d.err == nil && flags&^byte(1) != 0 {
		d.fail("unknown flags %02x", flags)
	}
	if flags&1 != 0 {
		// Written by older versions with column sketches enabled: the
		// flag carries three configuration uvarints nothing reads now.
		d.uvarint()
		d.uvarint()
		d.uvarint()
	}
	ncols := d.count("column")
	if d.err == nil && ncols != nattrs {
		d.fail("%d columns for %d schema attributes", ncols, nattrs)
	}
	st.Columns = make([]table.ColumnState, 0, nattrs)
	for i := 0; i < ncols && d.err == nil; i++ {
		cs := table.ColumnState{NonNull: int(d.uvarint())}
		// The non-int flag is redundant with the attribute's type (see
		// encodeTableMeta); it is checked, not kept.
		if ni := d.u8(); ni > 1 {
			d.fail("column %d: bad non-int flag %d", i, ni)
		}
		cs.DictLen = int(d.uvarint())
		cs.Bytes = int64(d.uvarint())
		st.Columns = append(st.Columns, cs)
	}
	if err := d.finish(sec); err != nil {
		return nil, corrupt(path, sec, "%v", err)
	}
	return st, nil
}

func decodeUniq(path string, e sectionEntry, payload []byte) ([]table.UniqState, error) {
	sec := sectionName(e.typ, e.rel, e.col)
	d := dec{b: payload}
	n := d.count("constraint")
	uniqs := make([]table.UniqState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var u table.UniqState
		nd := d.uvarint()
		if d.err == nil && nd*4 > uint64(len(d.b)) {
			d.fail("dense length %d exceeds remaining payload", nd)
			break
		}
		if nd > 0 {
			u.Dense = make([]int32, nd)
			for j := range u.Dense {
				u.Dense[j] = int32(d.u32())
			}
		}
		np := d.count("packed entry")
		if np > 0 {
			u.Packed = make(map[string]int32, np)
			for j := 0; j < np && d.err == nil; j++ {
				k := d.str()
				u.Packed[k] = int32(d.u32())
			}
		}
		nk := d.count("byKey entry")
		if nk > 0 {
			u.ByKey = make(map[string]int, nk)
			for j := 0; j < nk && d.err == nil; j++ {
				k := d.str()
				u.ByKey[k] = int(d.uvarint())
			}
		}
		uniqs = append(uniqs, u)
	}
	if err := d.finish(sec); err != nil {
		return nil, corrupt(path, sec, "%v", err)
	}
	return uniqs, nil
}

// columnLoader is the ColumnLoader of one lazily restored table: each
// LoadColumn is two positioned reads (codes, dict) against the shared
// snapshot file handle — ReadAt, so concurrent loads of distinct columns
// never contend on a seek offset — with the section checksums re-verified
// on the way in.
type columnLoader struct {
	f      *os.File
	path   string
	schema *relation.Schema
	nrows  int
	codes  []sectionEntry
	dicts  []sectionEntry
}

// sectionBufs recycles LoadColumn's read buffers (*[]byte). A payload is
// decoded into fresh vectors before its buffer goes back, so loading a
// table's columns allocates only what the table keeps.
var sectionBufs sync.Pool

func (l *columnLoader) LoadColumn(ci int) (table.ColumnState, error) {
	var cs table.ColumnState
	bp, _ := sectionBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer sectionBufs.Put(bp)

	buf, err := l.read(bp, l.codes[ci])
	if err != nil {
		return cs, err
	}
	if l.nrows > 0 {
		codes := make([]int32, l.nrows)
		for i := range codes {
			codes[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		cs.Codes = codes
	}

	de := l.dicts[ci]
	if buf, err = l.read(bp, de); err != nil {
		return cs, err
	}
	sec := sectionName(de.typ, de.rel, de.col)
	d := dec{b: buf}
	cs.Dict = d.dict(l.schema.Attrs[ci].Type)
	if err := d.finish(sec); err != nil {
		return cs, corrupt(l.path, sec, "%v", err)
	}
	return cs, nil
}

// read reads section e into *bp, growing it when too small, and verifies
// the payload's checksum.
func (l *columnLoader) read(bp *[]byte, e sectionEntry) ([]byte, error) {
	if uint64(cap(*bp)) < e.len {
		*bp = make([]byte, e.len)
	}
	b := (*bp)[:e.len]
	if _, err := l.f.ReadAt(b, int64(e.off)); err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", sectionName(e.typ, e.rel, e.col), err)
	}
	if c := checksum(b); c != e.crc {
		return nil, corrupt(l.path, sectionName(e.typ, e.rel, e.col), "checksum mismatch on load: footer says %08x, payload is %08x", e.crc, c)
	}
	return b, nil
}
