// Package csvio loads and stores database extensions as CSV files, the way
// legacy unload utilities deliver them: one file per relation, a header row
// of attribute names, empty fields meaning NULL.
//
// There is one loader, batched: a relation's body is parsed as one chunk
// into a table.ChunkEncoder and committed with one
// table.Appender.AppendBatch. Field text is encoded directly
// (ChunkEncoder.AppendFields): value.ParseBits parses each field as its
// attribute's type straight to a Go primitive, which the chunk's typed
// dictionary interns once per distinct value, so no boxed value, row or
// per-text cache sits between the CSV reader and the codes. An empty
// table adopts the chunk's codes, dictionaries and intern maps as they
// are; a non-empty one (an incremental append) merges the chunk's
// dictionaries into its own. Adoption, merge and the columnar constraint
// post-pass reproduce a row-by-row Insert load bit for bit, and a record
// that fails to parse commits the records before it and names its line
// exactly as a row-by-row load over one CSV reader would. A directory
// load runs Options.Parallelism relations at once, largest file first.
package csvio

import (
	"bytes"
	"cmp"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"dbre/internal/obs"
	"dbre/internal/table"
)

// Options tunes the directory loaders and writers. The zero value is
// serial operation.
type Options struct {
	// Parallelism is the number of relations LoadDirCtx and StoreDirCtx
	// handle at once. 0 or 1 means one after another. Results are
	// identical at any setting.
	Parallelism int
}

// LoadCtx reads rows from r into tab. The first record must be a header
// whose names are a permutation of (a subset of) the schema attributes;
// missing attributes load as NULL. When strict is false, constraint
// violations are loaded anyway and returned as a count — corrupted legacy
// extensions are the paper's normal case, not an error. Spans and ingest
// counters go to the context's tracer, if any. It parses the body as one
// chunk and commits it with one AppendBatch; opt is accepted for symmetry
// with the directory loaders and changes nothing here.
func LoadCtx(ctx context.Context, tab *table.Table, r io.Reader, strict bool, opt Options) (violations int, err error) {
	ctx, sp := obs.StartSpan(ctx, "ingest:"+tab.Schema().Name)
	defer sp.End()
	schema := tab.Schema()
	data, err := readAll(r)
	if err != nil {
		return 0, fmt.Errorf("csvio: relation %s: %w", schema.Name, err)
	}
	hr := csv.NewReader(bytes.NewReader(data))
	hr.FieldsPerRecord = -1
	header, err := hr.Read()
	if err != nil {
		return 0, fmt.Errorf("csvio: reading header: %w", err)
	}
	colIdx, err := resolveHeader(tab, header)
	if err != nil {
		return 0, err
	}
	bodyStart := int(hr.InputOffset())
	body := data[bodyStart:]
	if len(body) == 0 {
		return 0, nil
	}
	tr := obs.FromContext(ctx)
	tr.Add(obs.CtrIngestChunks, 1)
	enc, parseErr := parseChunk(tab, body, colIdx)

	// A parse error still commits the records before the failing one,
	// as a row-by-row load leaves them; a strict constraint violation
	// rolls back to just before the violating record.
	ap := tab.NewAppender()
	n := enc.Len() // an adopting commit leaves the encoder empty
	violations, err = ap.AppendBatch(enc, strict)
	tr.Add(obs.CtrIngestMergeRemaps, ap.Stats().Remaps)
	if err != nil {
		var be *table.BatchError
		if errors.As(err, &be) {
			line := be.Row + 2 // header is line 1, first record line 2
			return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, be.Err)
		}
		return violations, err
	}
	if parseErr != nil {
		// CSV syntax errors carry the body reader's physical line
		// numbers; shift them past the header's lines.
		var pe *csv.ParseError
		if errors.As(parseErr, &pe) {
			shift := bytes.Count(data[:bodyStart], []byte{'\n'})
			pe.StartLine += shift
			pe.Line += shift
			return violations, fmt.Errorf("csvio: relation %s: %w", schema.Name, parseErr)
		}
		return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, n+2, parseErr)
	}
	tr.Add(obs.CtrIngestViolations, int64(violations))
	return violations, nil
}

// resolveHeader maps header column names to schema positions.
func resolveHeader(tab *table.Table, header []string) ([]int, error) {
	colIdx := make([]int, len(header))
	for i, name := range header {
		idx, ok := tab.ColIndex(name)
		if !ok {
			return nil, fmt.Errorf("csvio: header column %q not in relation %s", name, tab.Schema().Name)
		}
		colIdx[i] = idx
	}
	return colIdx, nil
}

// readAll is io.ReadAll, except that a regular *os.File (the LoadDirCtx
// case) is read into one buffer sized by Stat instead of a doubling
// series.
func readAll(r io.Reader) ([]byte, error) {
	f, ok := r.(*os.File)
	if !ok {
		return io.ReadAll(r)
	}
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return io.ReadAll(r)
	}
	var buf bytes.Buffer
	// The MinRead slack lets the final read see EOF without growing.
	buf.Grow(int(st.Size()) + bytes.MinRead)
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}

// parseChunk encodes a relation's non-empty body into a ChunkEncoder,
// field text straight into the chunk dictionaries. On an error the
// encoder holds the records before the failing one, so the failing
// record's index is the encoder's Len; the error carries no position
// beyond what csv.ParseError reports relative to the body.
func parseChunk(tab *table.Table, chunk []byte, colIdx []int) (*table.ChunkEncoder, error) {
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	enc := table.NewChunkEncoder(tab)
	// Every record ends in a newline except perhaps the last, so this
	// bounds the record count (quoted newlines only overcount).
	records := bytes.Count(chunk, []byte{'\n'})
	if chunk[len(chunk)-1] != '\n' {
		records++
	}
	enc.Grow(records)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return enc, nil
		}
		if err != nil {
			return enc, err
		}
		if len(rec) != len(colIdx) {
			return enc, fmt.Errorf("%d fields, header has %d", len(rec), len(colIdx))
		}
		if err := enc.AppendFields(rec, colIdx); err != nil {
			return enc, err
		}
	}
}

// Store writes the table to w as CSV with a header row; NULLs become empty
// fields. Each distinct value is formatted once per column (the
// dictionary is typically tiny next to the row count).
func Store(tab *table.Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	schema := tab.Schema()
	header := make([]string, len(schema.Attrs))
	for i, a := range schema.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	codes := make([][]int32, len(header))
	strs := make([][]string, len(header))
	for j := range header {
		codes[j] = tab.ColumnCodes(j)
		dict := tab.ColumnDict(j)
		strs[j] = make([]string, len(dict))
		for c, v := range dict {
			strs[j][c] = v.String()
		}
	}
	rec := make([]string, len(header))
	for i, n := 0, tab.Len(); i < n; i++ {
		for j := range rec {
			if c := codes[j][i]; c >= 0 {
				rec[j] = strs[j][c]
			} else {
				rec[j] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StoreDir writes every relation of db into dir as <relation>.csv.
func StoreDir(db *table.Database, dir string) error {
	return StoreDirCtx(context.Background(), db, dir, Options{})
}

// StoreDirCtx is StoreDir with per Options relation-level parallelism.
func StoreDirCtx(ctx context.Context, db *table.Database, dir string, opt Options) error {
	_, sp := obs.StartSpan(ctx, "store-dir")
	defer sp.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := db.Catalog().Names()
	store := func(name string) error {
		tab := db.MustTable(name)
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := Store(tab, f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if opt.Parallelism <= 1 {
		for _, name := range names {
			if err := store(name); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(names))
	runBounded(opt.Parallelism, len(names), func(i int) {
		errs[i] = store(names[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadDir fills every relation of db from <relation>.csv files in dir.
// Relations without a file stay empty; a dir that does not exist or is
// not a directory is an error. It returns the total number of
// constraint violations tolerated (strict=false).
func LoadDir(db *table.Database, dir string, strict bool) (int, error) {
	return LoadDirCtx(context.Background(), db, dir, strict, Options{})
}

// LoadDirCtx is LoadDir with observability and parallelism: relations are
// loaded concurrently, bounded by opt.Parallelism, largest file first.
// Every file is opened before the first load starts (its size orders the
// dispatch). On success the result is identical to the serial walk at
// any setting; when some relation fails, the error reported is the one
// the serial walk would have hit first (catalog order), but relations
// after it may already be loaded and their violations counted — the
// serial walk stops instead.
func LoadDirCtx(ctx context.Context, db *table.Database, dir string, strict bool, opt Options) (int, error) {
	if st, err := os.Stat(dir); err != nil {
		return 0, err
	} else if !st.IsDir() {
		return 0, fmt.Errorf("csvio: %s is not a directory", dir)
	}
	ctx, sp := obs.StartSpan(ctx, "load-dir")
	defer sp.End()
	names := db.Catalog().Names()
	// Open once rather than Stat-then-Open: a file that disappears
	// between the two calls must mean "relation stays empty", not an
	// error a second racing process can inject.
	open := func(name string) (*os.File, error) {
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if os.IsNotExist(err) {
			return nil, nil
		}
		return f, err
	}
	if opt.Parallelism <= 1 {
		total := 0
		for _, name := range names {
			f, err := open(name)
			if err != nil {
				return total, err
			}
			if f == nil {
				continue
			}
			n, err := LoadCtx(ctx, db.MustTable(name), f, strict, opt)
			f.Close()
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	files := make([]*os.File, len(names))
	sizes := make([]int64, len(names))
	errs := make([]error, len(names))
	var order []int // relations with a file, largest first
	for i, name := range names {
		files[i], errs[i] = open(name)
		if files[i] == nil {
			continue
		}
		// A failed Stat only moves the relation to the back of the
		// dispatch; its load reports the read error.
		if st, err := files[i].Stat(); err == nil {
			sizes[i] = st.Size()
		}
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	viols := make([]int, len(names))
	runBounded(opt.Parallelism, len(order), func(k int) {
		i := order[k]
		defer files[i].Close()
		viols[i], errs[i] = LoadCtx(ctx, db.MustTable(names[i]), files[i], strict, opt)
	})
	total := 0
	for _, v := range viols {
		total += v
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// runBounded runs f(0..n-1) on at most p goroutines.
func runBounded(p, n int, f func(i int)) {
	if p > n {
		p = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
