// Snapshot writer. A snapshot is one file holding the complete engine
// state of a database, written atomically: the payload is built into
// snapshot.dbre.tmp, fsynced, renamed over snapshot.dbre, and the
// directory fsynced — a crash mid-write leaves the previous snapshot (or
// none) intact, never a half-written one. A successful snapshot also
// resets the directory's WAL to an empty log bound to the new snapshot
// (the snapshot subsumes every change the old log carried).
//
// Snapshot bytes are deterministic: relations are written in catalog
// order, columns in schema order, and map-backed uniqueness state is
// serialized under sorted keys — the same engine state always produces
// the same file, which is what lets a golden test pin the worked hexdump
// in docs/storage-format.md.
package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Snapshot writes a snapshot of db into dir (created if missing) and
// resets dir's WAL to an empty log bound to it.
func Snapshot(db *table.Database, dir string) error {
	return SnapshotCtx(context.Background(), db, dir)
}

// SnapshotCtx is Snapshot with observability: a "snapshot" span and the
// snapshot-sections counter on the context's tracer.
func SnapshotCtx(ctx context.Context, db *table.Database, dir string) error {
	_, sp := obs.StartSpan(ctx, "snapshot")
	defer sp.End()
	tr := obs.FromContext(ctx)

	schemas := db.Catalog().Schemas()
	states := make([]*table.TableState, len(schemas))
	for i, s := range schemas {
		states[i] = db.MustTable(s.Name).PersistState()
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	tmp := filepath.Join(dir, SnapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	w := &snapshotWriter{f: f}
	if err := w.header(); err != nil {
		f.Close()
		return err
	}
	var e enc
	e.reset()
	encodeCatalog(&e, schemas)
	if err := w.section(secCatalog, noID, noID, e.b); err != nil {
		f.Close()
		return err
	}
	for ri, st := range states {
		rel := uint32(ri)
		e.reset()
		encodeTableMeta(&e, schemas[ri], st)
		if err := w.section(secTableMeta, rel, noID, e.b); err != nil {
			f.Close()
			return err
		}
		if len(st.Uniqs) > 0 {
			e.reset()
			encodeUniq(&e, st.Uniqs)
			if err := w.section(secUniq, rel, noID, e.b); err != nil {
				f.Close()
				return err
			}
		}
		for ci := range st.Columns {
			col := &st.Columns[ci]
			e.reset()
			for _, code := range col.Codes {
				e.u32(uint32(code))
			}
			if err := w.section(secCodes, rel, uint32(ci), e.b); err != nil {
				f.Close()
				return err
			}
			e.reset()
			e.dict(schemas[ri].Attrs[ci].Type, col.Dict)
			if err := w.section(secDict, rel, uint32(ci), e.b); err != nil {
				f.Close()
				return err
			}
		}
	}
	footerCRC, size, err := w.finish()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotFile)); err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// The new snapshot subsumes whatever the old WAL carried: reset it to
	// an empty log bound to the snapshot just written. A crash between
	// the rename above and this reset leaves a WAL bound to the previous
	// snapshot, which Open rejects with a typed error (see the crash
	// matrix in DESIGN.md §9) — stale deltas are never silently replayed
	// onto a snapshot that already contains them.
	if err := resetWAL(dir, footerCRC, size); err != nil {
		return err
	}
	tr.Add(obs.CtrSnapshotSections, int64(len(w.sections)))
	return nil
}

// sectionEntry is one footer row: where a section lives and its checksum.
type sectionEntry struct {
	typ      byte
	rel, col uint32
	off, len uint64
	crc      uint32
}

type snapshotWriter struct {
	f        *os.File
	off      uint64
	sections []sectionEntry
}

func (w *snapshotWriter) write(p []byte) error {
	n, err := w.f.Write(p)
	w.off += uint64(n)
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	return nil
}

func (w *snapshotWriter) header() error {
	var e enc
	e.b = append(e.b, snapshotMagic...)
	e.u32(formatVersion)
	e.u32(0) // flags, reserved
	return w.write(e.b)
}

func (w *snapshotWriter) section(typ byte, rel, col uint32, payload []byte) error {
	w.sections = append(w.sections, sectionEntry{
		typ: typ, rel: rel, col: col,
		off: w.off, len: uint64(len(payload)),
		crc: checksum(payload),
	})
	return w.write(payload)
}

// finish writes the footer (the section table) and the fixed trailer,
// returning the footer's CRC and the final file size — the pair the WAL
// header binds to.
func (w *snapshotWriter) finish() (footerCRC uint32, size uint64, err error) {
	footerOff := w.off
	var e enc
	e.uvarint(uint64(len(w.sections)))
	for _, s := range w.sections {
		e.u8(s.typ)
		e.u32(s.rel)
		e.u32(s.col)
		e.u64(s.off)
		e.u64(s.len)
		e.u32(s.crc)
	}
	footerCRC = checksum(e.b)
	footerLen := uint64(len(e.b))
	e.u64(footerOff)
	e.u64(footerLen)
	e.u32(footerCRC)
	e.b = append(e.b, trailerMagic...)
	if err := w.write(e.b); err != nil {
		return 0, 0, err
	}
	return footerCRC, w.off, nil
}

func encodeCatalog(e *enc, schemas []*relation.Schema) {
	e.uvarint(uint64(len(schemas)))
	for _, s := range schemas {
		e.str(s.Name)
		e.uvarint(uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			e.str(a.Name)
			e.u8(kindTag(a.Type))
			if a.NotNull {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
		e.uvarint(uint64(len(s.Uniques)))
		for _, u := range s.Uniques {
			names := u.Names()
			e.uvarint(uint64(len(names)))
			for _, n := range names {
				e.str(n)
			}
		}
	}
}

// encodeTableMeta writes a relation's row count, version and per-column
// counters. A column's non-int flag records that it holds a value other
// than an INTEGER, which a column of another type does once its
// dictionary is not empty; readers take the flavor from the type.
func encodeTableMeta(e *enc, s *relation.Schema, st *table.TableState) {
	e.uvarint(uint64(st.NRows))
	e.uvarint(st.Version)
	e.u8(0) // flags: none defined (see decodeTableMeta)
	e.uvarint(uint64(len(st.Columns)))
	for i := range st.Columns {
		c := &st.Columns[i]
		e.uvarint(uint64(c.NonNull))
		if s.Attrs[i].Type != value.KindInt && c.DictLen > 0 {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.uvarint(uint64(c.DictLen))
		e.uvarint(uint64(c.Bytes))
	}
}

func encodeUniq(e *enc, uniqs []table.UniqState) {
	e.uvarint(uint64(len(uniqs)))
	for _, u := range uniqs {
		e.uvarint(uint64(len(u.Dense)))
		for _, c := range u.Dense {
			e.u32(uint32(c))
		}
		e.uvarint(uint64(len(u.Packed)))
		for _, k := range sortedKeys(u.Packed) {
			e.str(k)
			e.u32(uint32(u.Packed[k]))
		}
		e.uvarint(uint64(len(u.ByKey)))
		for _, k := range sortedKeys(u.ByKey) {
			e.str(k)
			e.uvarint(uint64(u.ByKey[k]))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	return nil
}
