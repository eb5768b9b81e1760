// Package csvio loads and stores database extensions as CSV files, the way
// legacy unload utilities deliver them: one file per relation, a header row
// of attribute names, empty fields meaning NULL.
//
// Loading is batched and optionally parallel: the input is split at record
// boundaries (quote-aware, so multi-line quoted fields never straddle a
// chunk), and each chunk is parsed by a worker into a chunk-local
// table.ChunkEncoder. Field text is encoded directly
// (ChunkEncoder.AppendFields): value.Parse yields the attribute's kind and
// the chunk dictionary dedups by value, so no boxed row or per-text cache
// sits between the CSV reader and the codes. The encoded batches are
// committed to the table in chunk order through table.Appender, whose
// dictionary merge and columnar constraint post-pass reproduce the per-row
// Insert path bit for bit. Any chunk-level parse failure abandons the
// encoded batches (the table is untouched before commit) and re-runs the
// classic serial loader over the buffered bytes, so error text, error line
// numbers and partial state on the error path are byte-identical to the
// serial loader by construction.
package csvio

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dbre/internal/obs"
	"dbre/internal/sketch"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Options tunes the loaders and writers. The zero value is serial
// operation with default chunking.
type Options struct {
	// Parallelism is the number of parse workers (and, for the directory
	// variants, concurrently processed relations). 0 or 1 means serial.
	// Results are identical at any setting.
	Parallelism int
	// ChunkBytes is the target chunk size for splitting input across
	// parse workers. 0 picks a default sized to keep all workers busy.
	ChunkBytes int
	// Sketch enables incremental sketch maintenance (the approximate
	// discovery tier's per-column signatures and row sample) on the
	// target table before loading, so the sketches ride the batch
	// appends in the same pass instead of being rebuilt later. No-op on
	// the row engine. Loaded data is identical either way.
	Sketch bool
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

// journalBatchRows bounds how many parsed rows the serial loader buffers
// between journal writes.
const journalBatchRows = 1024

// Load reads rows from r into tab. The first record must be a header whose
// names are a permutation of (a subset of) the schema attributes; missing
// attributes load as NULL. When strict is false, constraint violations are
// loaded anyway (via InsertUnchecked) and returned as a count — corrupted
// legacy extensions are the paper's normal case, not an error.
func Load(tab *table.Table, r io.Reader, strict bool) (violations int, err error) {
	return LoadCtx(context.Background(), tab, r, strict, Options{})
}

// LoadCtx is Load with observability (spans and ingest counters from the
// context's tracer, if any) and parallel parsing per Options.
func LoadCtx(ctx context.Context, tab *table.Table, r io.Reader, strict bool, opt Options) (violations int, err error) {
	ctx, sp := obs.StartSpan(ctx, "ingest:"+tab.Schema().Name)
	defer sp.End()
	if opt.Sketch {
		tab.EnableSketches(sketch.Config{})
	}
	if opt.Parallelism <= 1 {
		return loadSerial(ctx, tab, r, strict, opt.Journal)
	}
	return loadParallel(ctx, tab, r, strict, opt)
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

// loadSerial is the classic one-row-at-a-time reference loader. The
// parallel path falls back to it (over buffered bytes) whenever a chunk
// fails to parse, which is what keeps the two paths byte-identical on
// errors.
func loadSerial(ctx context.Context, tab *table.Table, r io.Reader, strict bool, jn Journal) (violations int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("csvio: reading header: %w", err)
	}
	schema := tab.Schema()
	colIdx, err := resolveHeader(tab, header)
	if err != nil {
		return 0, err
	}
	// With a journal, parsed rows buffer here and are logged before they
	// are applied; line numbers ride along so the apply pass reports
	// errors exactly as the unjournaled path would.
	var pend []table.Row
	var pendLines []int
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		if err := jn.LogBatch(schema.Name, pend, strict); err != nil {
			return fmt.Errorf("csvio: journaling relation %s: %w", schema.Name, err)
		}
		for i, row := range pend {
			if err := tab.Insert(row); err != nil {
				if strict {
					return fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, pendLines[i], err)
				}
				violations++
				tab.InsertUnchecked(row)
			}
		}
		pend, pendLines = pend[:0], pendLines[:0]
		return nil
	}
	tr := obs.FromContext(ctx)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			if jn != nil {
				if err := flush(); err != nil {
					return violations, err
				}
			}
			tr.Add(obs.CtrIngestViolations, int64(violations))
			return violations, nil
		}
		if err != nil {
			return violations, fmt.Errorf("csvio: relation %s: %w", schema.Name, err)
		}
		line++
		if len(rec) != len(header) {
			return violations, fmt.Errorf("csvio: relation %s line %d: %d fields, header has %d",
				schema.Name, line, len(rec), len(header))
		}
		row := make(table.Row, len(schema.Attrs))
		for i := range row {
			row[i] = value.Null
		}
		for i, field := range rec {
			v, err := value.Parse(field, schema.Attrs[colIdx[i]].Type)
			if err != nil {
				return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, err)
			}
			row[colIdx[i]] = v
		}
		if jn != nil {
			pend = append(pend, row)
			pendLines = append(pendLines, line)
			if len(pend) >= journalBatchRows {
				if err := flush(); err != nil {
					return violations, err
				}
			}
			continue
		}
		if err := tab.Insert(row); err != nil {
			if strict {
				return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, err)
			}
			violations++
			tab.InsertUnchecked(row)
		}
	}
}

// loadParallel buffers the input, splits the body into record-aligned
// chunks, parses them on opt.Parallelism workers and commits the encoded
// batches in chunk order.
func loadParallel(ctx context.Context, tab *table.Table, r io.Reader, strict bool, opt Options) (int, error) {
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
	body := data[hr.InputOffset():]
	chunks := splitRecords(body, chunkTarget(len(body), opt))
	tr := obs.FromContext(ctx)
	tr.Add(obs.CtrIngestChunks, int64(len(chunks)))

	encs := make([]*table.ChunkEncoder, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	next := make(chan int)
	workers := opt.Parallelism
	if workers > len(chunks) {
		workers = len(chunks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				encs[ci], errs[ci] = parseChunk(tab, chunks[ci], colIdx)
			}
		}()
	}
	for ci := range chunks {
		next <- ci
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			// A chunk failed to parse. The table is untouched (nothing
			// was committed — and nothing journaled), so the serial
			// loader over the buffered bytes reproduces the exact serial
			// error and partial state.
			return loadSerial(ctx, tab, bytes.NewReader(data), strict, opt.Journal)
		}
	}
	// Commit in chunk order: the merged state is then independent of
	// worker scheduling. A strict constraint violation in batch k leaves
	// chunks 0..k-1 plus the rolled-back prefix of k — exactly the
	// serial loader's partial state — and the error line is recovered
	// from the record counts of the committed chunks.
	ap := tab.NewAppender()
	violations := 0
	records := 0
	for _, enc := range encs {
		if jn := opt.Journal; jn != nil {
			// Log-then-apply at chunk granularity: the journal record is
			// durable before the batch mutates the table. On a strict
			// abort the journal holds a superset of the applied rows;
			// replay's own strict abort reconverges.
			rows := make([]table.Row, enc.Len())
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
			tr.Add(obs.CtrIngestMergeRemaps, ap.Stats().Remaps)
			var be *table.BatchError
			if errors.As(err, &be) {
				line := records + be.Row + 2 // header is line 1, first record line 2
				return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, be.Err)
			}
			return violations, err
		}
		records += enc.Len()
	}
	tr.Add(obs.CtrIngestMergeRemaps, ap.Stats().Remaps)
	tr.Add(obs.CtrIngestViolations, int64(violations))
	return violations, nil
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

// chunkTarget picks the chunk size in bytes.
func chunkTarget(bodyLen int, opt Options) int {
	if opt.ChunkBytes > 0 {
		return opt.ChunkBytes
	}
	// Aim for ~4 chunks per worker so a straggler doesn't serialize the
	// tail, but never chunks so small that per-chunk overhead dominates.
	t := bodyLen / (opt.Parallelism * 4)
	if t < 64<<10 {
		t = 64 << 10
	}
	return t
}

// splitRecords cuts body into chunks of roughly target bytes, only at
// newlines with even quote parity — i.e. at record boundaries. RFC 4180
// escaped quotes ("") toggle the parity twice, so they cannot open a
// false boundary; inputs with stray bare quotes fail to parse in any
// case and take the serial-fallback path.
func splitRecords(body []byte, target int) [][]byte {
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
// text straight into the chunk dictionaries. Errors carry no position
// information: any error routes the whole load to the serial fallback,
// which re-derives exact line numbers.
func parseChunk(tab *table.Table, chunk []byte, colIdx []int) (*table.ChunkEncoder, error) {
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	enc := table.NewChunkEncoder(tab)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return enc, nil
		}
		if err != nil {
			return nil, err
		}
		if err := enc.AppendFields(rec, colIdx); err != nil {
			return nil, err
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
// fields. On the columnar engine each distinct value is formatted once per
// column (the dictionary is typically tiny next to the row count); the row
// engine formats per row, as before.
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
	rec := make([]string, len(header))
	if n := tab.Len(); n > 0 && len(header) > 0 && tab.ColumnCodes(0) != nil {
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
		for i := 0; i < n; i++ {
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
	var buf table.Row
	for i := 0; i < tab.Len(); i++ {
		row := tab.ReadRow(i, buf)
		buf = row
		for j, v := range row {
			if v.IsNull() {
				rec[j] = ""
			} else {
				rec[j] = v.String()
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
// loaded concurrently (each itself chunk-parallel), bounded by
// opt.Parallelism. On success the result is identical to the serial
// walk at any setting; when some relation fails, the error reported is
// the one the serial walk would have hit first (catalog order), but
// relations after it may already be loaded and their violations counted —
// the serial walk stops instead.
func LoadDirCtx(ctx context.Context, db *table.Database, dir string, strict bool, opt Options) (int, error) {
	ctx, sp := obs.StartSpan(ctx, "load-dir")
	defer sp.End()
	names := db.Catalog().Names()
	// Open once rather than Stat-then-Open: a file that disappears
	// between the two calls must mean "relation stays empty", not an
	// error a second racing process can inject.
	load := func(name string) (int, error) {
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			if os.IsNotExist(err) {
				return 0, nil
			}
			return 0, err
		}
		defer f.Close()
		return LoadCtx(ctx, db.MustTable(name), f, strict, opt)
	}
	if opt.Parallelism <= 1 {
		total := 0
		for _, name := range names {
			n, err := load(name)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	viols := make([]int, len(names))
	errs := make([]error, len(names))
	runBounded(opt.Parallelism, len(names), func(i int) {
		viols[i], errs[i] = load(names[i])
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
