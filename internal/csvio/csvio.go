// Package csvio loads and stores database extensions as CSV files, the way
// legacy unload utilities deliver them: one file per relation, a header row
// of attribute names, empty fields meaning NULL.
//
// There is one loader, batched: each value is interned into one chunk
// dictionary, once. A directory load runs Parallelism relations at once,
// largest file first, and gives each relation the workers that would
// otherwise idle, so a relation is normally parsed as one chunk and the
// empty table adopts that chunk's codes, dictionaries and intern maps as
// they are (table.Appender). A relation with more than one worker, or a
// load with Options.ChunkBytes set, is split at record boundaries
// (quote-aware, so multi-line quoted fields never straddle a chunk) and
// its chunks are parsed by max(1, Parallelism) workers into chunk-local
// table.ChunkEncoders, committed in chunk order: the first is adopted,
// the rest merged into the table's dictionaries. Field text is encoded
// directly (ChunkEncoder.AppendFields): value.Parse yields the
// attribute's kind and the chunk dictionary dedups by value, so no boxed
// row or per-text cache sits between the CSV reader and the codes.
// Adoption, merge and the columnar constraint post-pass reproduce a
// row-by-row Insert load bit for bit. A chunk that fails to parse still
// commits its parsed prefix after the chunks before it, and the error
// names the failing record's line exactly as a row-by-row load over one
// CSV reader would, so error text and partial state do not depend on the
// chunking or the worker count.
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

// Options tunes the loaders and writers. The zero value is serial
// operation with default chunking.
type Options struct {
	// Parallelism is the number of parse workers (and, for the directory
	// variants, concurrently processed relations, each with its share
	// of the workers). 0 or 1 means one worker and relations loaded one
	// after another. Results are identical at any setting.
	Parallelism int
	// ChunkBytes is the target chunk size for splitting input across
	// parse workers. 0 picks a default sized to keep all workers busy:
	// one chunk for one worker.
	ChunkBytes int
	// Journal, when non-nil, receives every batch of parsed rows before
	// the batch is applied to the table — the log-then-apply contract
	// crash recovery needs: after a crash mid-ingest, replaying the
	// journal reconverges on the applied state instead of re-parsing the
	// input. storage.WAL implements it. Loaded data is identical with or
	// without a journal.
	Journal Journal
}

// Journal is the write-ahead hook of the loaders: LogBatch must durably
// record the batch before returning, because the loader applies the rows
// immediately after. Batch boundaries are an implementation detail —
// replay convergence depends only on row order and the strict flag.
type Journal interface {
	LogBatch(rel string, rows []table.Row, strict bool) error
}

// Load reads rows from r into tab. The first record must be a header whose
// names are a permutation of (a subset of) the schema attributes; missing
// attributes load as NULL. When strict is false, constraint violations are
// loaded anyway and returned as a count — corrupted legacy extensions are
// the paper's normal case, not an error.
func Load(tab *table.Table, r io.Reader, strict bool) (violations int, err error) {
	return LoadCtx(context.Background(), tab, r, strict, Options{})
}

// LoadCtx is Load with observability (spans and ingest counters from the
// context's tracer, if any) and parallel parsing per Options. It buffers
// the input, splits the body into record-aligned chunks (one, for one
// worker and no ChunkBytes), parses them on max(1, opt.Parallelism)
// workers and commits the encoded batches in chunk order.
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
	workers := max(1, opt.Parallelism)
	chunks := splitRecords(body, chunkTarget(len(body), workers, opt.ChunkBytes))
	tr := obs.FromContext(ctx)
	tr.Add(obs.CtrIngestChunks, int64(len(chunks)))

	encs := make([]*table.ChunkEncoder, len(chunks))
	errs := make([]error, len(chunks))
	runBounded(workers, len(chunks), func(ci int) {
		encs[ci], errs[ci] = parseChunk(tab, chunks[ci], colIdx)
	})

	// Commit in chunk order: the merged state is then independent of
	// worker scheduling. A strict constraint violation in batch k leaves
	// chunks 0..k-1 plus the rolled-back prefix of k — a row-by-row
	// load's partial state — and the error line is recovered from the
	// record counts of the committed chunks. A parse error in chunk k
	// likewise lands after the chunks before it and k's parsed prefix.
	ap := tab.NewAppender()
	defer func() { tr.Add(obs.CtrIngestMergeRemaps, ap.Stats().Remaps) }()
	records := 0 // records in the chunks before the current one
	offset := bodyStart
	for ci, enc := range encs {
		n := enc.Len() // an adopting commit leaves the encoder empty
		if jn := opt.Journal; jn != nil && n > 0 {
			// Log-then-apply at chunk granularity: the journal record is
			// durable before the batch mutates the table. On a strict
			// abort the journal holds a superset of the applied rows;
			// replay's own strict abort reconverges.
			rows := make([]table.Row, n)
			for i := range rows {
				rows[i] = enc.DecodeRow(i, nil)
			}
			if err := jn.LogBatch(schema.Name, rows, strict); err != nil {
				return violations, fmt.Errorf("csvio: journaling relation %s: %w", schema.Name, err)
			}
		}
		v, err := ap.AppendBatch(enc, strict)
		violations += v
		if err != nil {
			var be *table.BatchError
			if errors.As(err, &be) {
				line := records + be.Row + 2 // header is line 1, first record line 2
				return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, be.Err)
			}
			return violations, err
		}
		if err := errs[ci]; err != nil {
			// The failing record follows the chunk's parsed prefix. CSV
			// syntax errors carry the chunk reader's physical line
			// numbers; shift them past the newlines before the chunk.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				shift := bytes.Count(data[:offset], []byte{'\n'})
				pe.StartLine += shift
				pe.Line += shift
				return violations, fmt.Errorf("csvio: relation %s: %w", schema.Name, err)
			}
			line := records + n + 2
			return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, err)
		}
		records += n
		offset += len(chunks[ci])
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

// readAll is io.ReadAll, except that a regular *os.File (the LoadFileCtx
// and LoadDirCtx case) is read into one buffer sized by Stat instead of
// a doubling series.
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

// chunkTarget picks the chunk size in bytes: chunkBytes when set, the
// whole body for a single worker.
func chunkTarget(bodyLen, workers, chunkBytes int) int {
	if chunkBytes > 0 {
		return chunkBytes
	}
	if workers == 1 {
		// One worker gains nothing from splitting, and every chunk after
		// the first pays a dictionary merge.
		return bodyLen
	}
	// Aim for ~4 chunks per worker so a straggler doesn't serialize the
	// tail, but never chunks so small that per-chunk overhead dominates.
	t := bodyLen / (workers * 4)
	if t < 64<<10 {
		t = 64 << 10
	}
	return t
}

// splitRecords cuts body into chunks of roughly target bytes, only at
// newlines with even quote parity — i.e. at record boundaries. RFC 4180
// escaped quotes ("") toggle the parity twice, so they cannot open a
// false boundary; a stray bare quote fails to parse in the chunk that
// holds it, whose start is still a record boundary.
func splitRecords(body []byte, target int) [][]byte {
	if len(body) > 0 && len(body) <= target {
		return [][]byte{body} // one chunk: skip the quote-parity scan
	}
	var chunks [][]byte
	start := 0
	inQuote := false
	for i, b := range body {
		switch b {
		case '"':
			inQuote = !inQuote
		case '\n':
			if !inQuote && i+1-start >= target {
				chunks = append(chunks, body[start:i+1])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		chunks = append(chunks, body[start:])
	}
	return chunks
}

// parseChunk encodes one record-aligned chunk into a ChunkEncoder, field
// text straight into the chunk dictionaries. On an error the encoder holds
// the records before the failing one, so the failing record's index in
// the chunk is the encoder's Len; the error carries no position beyond
// what csv.ParseError reports relative to the chunk.
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

// LoadFile is Load over a file path.
func LoadFile(tab *table.Table, path string, strict bool) (int, error) {
	return LoadFileCtx(context.Background(), tab, path, strict, Options{})
}

// LoadFileCtx is LoadCtx over a file path.
func LoadFileCtx(ctx context.Context, tab *table.Table, path string, strict bool, opt Options) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return LoadCtx(ctx, tab, f, strict, opt)
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
// Relations without a file stay empty. It returns the total number of
// constraint violations tolerated (strict=false).
func LoadDir(db *table.Database, dir string, strict bool) (int, error) {
	return LoadDirCtx(context.Background(), db, dir, strict, Options{})
}

// LoadDirCtx is LoadDir with observability and parallelism: relations are
// loaded concurrently, bounded by opt.Parallelism, largest file first, and
// each relation gets max(1, p / min(p, relations)) parse workers of its
// own, so a relation is split into chunks only when a worker would
// otherwise idle. Every file is opened before the first load starts (its
// size orders the dispatch). On success the result is identical to the
// serial walk at any setting; when some relation fails, the error
// reported is the one the serial walk would have hit first (catalog
// order), but relations after it may already be loaded and their
// violations counted — the serial walk stops instead.
func LoadDirCtx(ctx context.Context, db *table.Database, dir string, strict bool, opt Options) (int, error) {
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
	relOpt := opt
	relOpt.Parallelism = opt.Parallelism / max(1, min(opt.Parallelism, len(order)))
	viols := make([]int, len(names))
	runBounded(opt.Parallelism, len(order), func(k int) {
		i := order[k]
		defer files[i].Close()
		viols[i], errs[i] = LoadCtx(ctx, db.MustTable(names[i]), files[i], strict, relOpt)
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
