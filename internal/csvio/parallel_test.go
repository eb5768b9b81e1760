package csvio

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbre/internal/core"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// The differential harness: every test here loads the same bytes through
// refLoad, the row-by-row reference, and through the batched loader —
// into an empty table, and in two calls whose second merges into the
// non-empty table as an incremental append does — and requires identical
// results: violation counts, error strings, and engine state down to the
// dictionary codes (which also pins dictionary assignment order, the part
// the merge step could most plausibly scramble).

// refLoad is the reference loader: one CSV reader over the whole input,
// each record parsed with value.Parse and stored with Insert, then with
// InsertUnchecked when a tolerant load meets a violation. Error lines
// count records (the header is line 1); CSV syntax errors keep the
// reader's own physical line numbers.
func refLoad(tab *table.Table, r io.Reader, strict bool) (violations int, err error) {
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
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return violations, nil
		}
		if err != nil {
			return violations, fmt.Errorf("csvio: relation %s: %w", schema.Name, err)
		}
		if len(rec) != len(header) {
			return violations, fmt.Errorf("csvio: relation %s line %d: %d fields, header has %d",
				schema.Name, line, len(rec), len(header))
		}
		row := make(table.Row, len(schema.Attrs))
		for i := range row {
			row[i] = value.Null
		}
		for i, field := range rec {
			if row[colIdx[i]], err = value.Parse(field, schema.Attrs[colIdx[i]].Type); err != nil {
				return violations, fmt.Errorf("csvio: relation %s line %d: %w", schema.Name, line, err)
			}
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

// tableStateDiff compares two tables through the exported engine-state
// surface: row count, version, per-column code vectors and dictionaries,
// and the exact bytes Store would emit. "" means identical.
func tableStateDiff(a, b *table.Table) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("rows %d vs %d", a.Len(), b.Len())
	}
	if a.Version() != b.Version() {
		return fmt.Sprintf("version %d vs %d", a.Version(), b.Version())
	}
	for c := range a.Schema().Attrs {
		ca, cb := a.ColumnCodes(c), b.ColumnCodes(c)
		if len(ca) != len(cb) {
			return fmt.Sprintf("col %d: %d vs %d codes", c, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return fmt.Sprintf("col %d row %d: code %d vs %d", c, i, ca[i], cb[i])
			}
		}
		da, db := a.ColumnDict(c), b.ColumnDict(c)
		if len(da) != len(db) {
			return fmt.Sprintf("col %d: dict %d vs %d", c, len(da), len(db))
		}
		for i := range da {
			if !da[i].Equal(db[i]) {
				return fmt.Sprintf("col %d: dict[%d] %v vs %v", c, i, da[i], db[i])
			}
		}
	}
	var ba, bb bytes.Buffer
	if err := Store(a, &ba); err != nil {
		return fmt.Sprintf("store a: %v", err)
	}
	if err := Store(b, &bb); err != nil {
		return fmt.Sprintf("store b: %v", err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		return "store bytes differ"
	}
	return ""
}

func dbStateDiff(a, b *table.Database) string {
	for _, name := range a.Catalog().Names() {
		if d := tableStateDiff(a.MustTable(name), b.MustTable(name)); d != "" {
			return name + ": " + d
		}
	}
	return ""
}

// genCSV writes a random Person extension with plenty of duplicate keys,
// NULL keys, quoted fields (commas, quotes, newlines) and blank lines —
// everything the batched loader and the violation post-pass must agree
// with the serial loader on. Fields also use several texts that parse to
// one value (padded or signed integers, NULL spellings, trailing zeros,
// padded dates), so a chunk dictionary must dedup by value, not by text.
func genCSV(rng *rand.Rand, nrows int) string {
	var raw bytes.Buffer
	w := csv.NewWriter(&raw)
	w.Write([]string{"id", "name", "salary", "hired"})
	names := []string{"Alice", "Bob", "quote\"inside", "comma,inside", "multi\nline", ""}
	nulls := []string{"", "NULL", "null", "Null"}
	idForms := []string{"%d", "0%d", " %d", "+%d"}
	salaries := []string{"1.5", "1.50", " 1.5", "-0.0", "0.0", "NaN"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	for i := 0; i < nrows; i++ {
		id := pick(nulls)
		if rng.Intn(10) != 0 { // 10% NULL keys
			id = fmt.Sprintf(pick(idForms), rng.Intn(nrows/2)) // ~2x dup rate
		}
		sal := pick(nulls)
		switch rng.Intn(6) {
		case 0, 1: // a third stay NULL
		case 2:
			sal = pick(salaries)
		default:
			sal = fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(10))
		}
		hired := pick(nulls)
		if rng.Intn(4) != 0 {
			hired = fmt.Sprintf("19%02d-0%d-1%d", rng.Intn(100), 1+rng.Intn(9), rng.Intn(10))
			if rng.Intn(5) == 0 {
				hired = " " + hired + " "
			}
		}
		name := pick(names)
		if name == "" {
			name = pick(nulls)
		}
		w.Write([]string{id, name, sal, hired})
	}
	w.Flush()
	// Sprinkle blank lines between records (csv skips them; line
	// arithmetic in both loaders counts records, and this pins that).
	lines := strings.SplitAfter(raw.String(), "\n")
	var out strings.Builder
	for i, l := range lines {
		out.WriteString(l)
		if i > 0 && i%17 == 0 {
			out.WriteString("\n")
		}
	}
	return out.String()
}

// parallelGrid holds the options the loads run under; LoadCtx parses a
// relation as one chunk whatever Parallelism says.
var parallelGrid = []Options{{}, {Parallelism: 8}}

// splitAfter cuts src after its header and first k records, at the byte
// offsets a CSV reader reports, so quoted newlines never straddle the
// cut: first is the header and those records, rest the header and every
// record after them.
func splitAfter(t testing.TB, src string, k int) (first, rest string) {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(src))
	cr.FieldsPerRecord = -1
	if _, err := cr.Read(); err != nil {
		t.Fatalf("splitAfter: header: %v", err)
	}
	header := src[:cr.InputOffset()]
	for i := 0; i < k; i++ {
		if _, err := cr.Read(); err != nil {
			break
		}
	}
	cut := cr.InputOffset()
	return src[:cut], header + src[cut:]
}

// appendLoad loads first into the empty tab, then rest into the
// non-empty tab, as a served dataset takes an appended batch, and
// returns the violations of both calls.
func appendLoad(tab *table.Table, first, rest string) (int, error) {
	v1, err := LoadCtx(context.Background(), tab, strings.NewReader(first), false, Options{})
	if err != nil {
		return v1, err
	}
	v2, err := LoadCtx(context.Background(), tab, strings.NewReader(rest), false, Options{})
	return v1 + v2, err
}

// TestParallelLoadDifferential: tolerant loads over random dirty CSVs,
// whole and as a load followed by an append.
func TestParallelLoadDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genCSV(rng, 120+rng.Intn(300))
		ref := table.New(schema())
		refViol, err := refLoad(ref, strings.NewReader(src), false)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, opt := range parallelGrid {
			got := table.New(schema())
			gotViol, err := LoadCtx(context.Background(), got, strings.NewReader(src), false, opt)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opt, err)
			}
			if gotViol != refViol {
				t.Fatalf("seed %d %+v: %d violations, want %d", seed, opt, gotViol, refViol)
			}
			if d := tableStateDiff(ref, got); d != "" {
				t.Fatalf("seed %d %+v: %s", seed, opt, d)
			}
		}
		for _, k := range []int{1, 60} {
			got := table.New(schema())
			first, rest := splitAfter(t, src, k)
			gotViol, err := appendLoad(got, first, rest)
			if err != nil {
				t.Fatalf("seed %d append after %d: %v", seed, k, err)
			}
			if gotViol != refViol {
				t.Fatalf("seed %d append after %d: %d violations, want %d", seed, k, gotViol, refViol)
			}
			if d := tableStateDiff(ref, got); d != "" {
				t.Fatalf("seed %d append after %d: %s", seed, k, d)
			}
		}
	}
}

// TestParallelLoadStrict: strict loads must fail with the identical error
// string (including the line number) and leave the identical partial
// state.
func TestParallelLoadStrict(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genCSV(rng, 150)
		ref := table.New(schema())
		_, refErr := refLoad(ref, strings.NewReader(src), true)
		for _, opt := range parallelGrid {
			got := table.New(schema())
			_, gotErr := LoadCtx(context.Background(), got, strings.NewReader(src), true, opt)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %+v: err %v, want %v", seed, opt, gotErr, refErr)
			}
			if refErr != nil && refErr.Error() != gotErr.Error() {
				t.Fatalf("seed %d %+v: err %q, want %q", seed, opt, gotErr, refErr)
			}
			if d := tableStateDiff(ref, got); d != "" {
				t.Fatalf("seed %d %+v: %s", seed, opt, d)
			}
		}
	}
}

// TestParallelLoadParseFallback: on a malformed field the loader must
// reproduce the reference's error and partial state byte for byte — the
// records before the failing one committed.
func TestParallelLoadParseFallback(t *testing.T) {
	// Deeper in the body: the error lines must count the records before
	// the failing one, and a csv syntax error physical lines, which the
	// quoted newline and the blank line skew.
	prefix := "id,name\n1,\"multi\nline\"\n\n"
	for i := 2; i < 12; i++ {
		prefix += fmt.Sprintf("%d,name%d\n", i, i)
	}
	srcs := []string{
		"id,name\n1,A\n2,B\nnotanint,C\n4,D\n",       // value parse error
		"id,name\n1,A\n2,B,extra\n3,C\n",             // field count mismatch
		"id,name\n1,A\n\"unterminated,B\n3,C\n4,D\n", // csv syntax error
		prefix + "notanint,C\n13,D\n",
		prefix + "12,B,extra\n13,D\n",
		prefix + "12,\"quoted\"x\n13,D\n",
	}
	for si, src := range srcs {
		for _, strict := range []bool{true, false} {
			ref := table.New(schema())
			refViol, refErr := refLoad(ref, strings.NewReader(src), strict)
			if refErr == nil {
				t.Fatalf("src %d: reference accepted bad input", si)
			}
			for _, opt := range parallelGrid {
				got := table.New(schema())
				gotViol, gotErr := LoadCtx(context.Background(), got, strings.NewReader(src), strict, opt)
				if gotErr == nil || gotErr.Error() != refErr.Error() {
					t.Fatalf("src %d strict=%v %+v: err %q, want %q", si, strict, opt, gotErr, refErr)
				}
				if gotViol != refViol {
					t.Fatalf("src %d strict=%v %+v: %d violations, want %d", si, strict, opt, gotViol, refViol)
				}
				if d := tableStateDiff(ref, got); d != "" {
					t.Fatalf("src %d strict=%v %+v: %s", si, strict, opt, d)
				}
			}
		}
	}
}

// TestLoadDirParallelDifferential: whole-directory loads over a generated
// workload, serial vs parallel, including the pipeline report run on top —
// the end-to-end "bit-identical engine state" claim.
func TestLoadDirParallelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	spec := workload.DefaultSpec(4242)
	spec.FactRows = 600
	spec.DimensionRows = 80
	spec.Corruption = 0.05
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := StoreDirCtx(context.Background(), wl.DB, dir, Options{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	// Each database gets its own catalog clone: the pipeline's Restruct
	// phase registers projection relations into the catalog it is handed,
	// so sharing one across runs would contaminate the comparison.
	serialDB := table.NewDatabase(wl.DB.Catalog().Clone())
	serialViol, err := LoadDir(serialDB, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// The stored copy of the generator's database must load back equal.
	if d := dbStateDiff(wl.DB, serialDB); d != "" {
		t.Fatalf("store/load round trip: %s", d)
	}
	tracer := obs.NewTracer("ingest-test")
	ctx := obs.NewContext(context.Background(), tracer)
	parDB := table.NewDatabase(wl.DB.Catalog().Clone())
	parViol, err := LoadDirCtx(ctx, parDB, dir, false, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if parViol != serialViol {
		t.Fatalf("violations %d, want %d", parViol, serialViol)
	}
	if d := dbStateDiff(serialDB, parDB); d != "" {
		t.Fatal(d)
	}
	if got, want := tracer.Count(obs.CtrIngestChunks), int64(wl.DB.Catalog().Len()); got != want {
		t.Errorf("ingest-chunks = %d, want %d (one per relation)", got, want)
	}
	if got := tracer.Count(obs.CtrIngestMergeRemaps); got != 0 {
		t.Errorf("ingest-merge-remaps = %d, want 0 (every empty table adopts its chunk)", got)
	}

	reportBody := func(db *table.Database) string {
		rep, err := core.Run(db, wl.Programs, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		text := rep.Text()
		if i := strings.Index(text, "\nTimings\n"); i >= 0 {
			text = text[:i] // timings are wall-clock, everything else is structural
		}
		return text
	}
	if a, b := reportBody(serialDB), reportBody(parDB); a != b {
		t.Error("pipeline reports differ between serial- and parallel-loaded databases")
	}
}

// TestLoadDirOpenOnce: a directory entry that is not a readable file must
// surface as an error, not be skipped — only genuine absence means "stays
// empty". (The Stat-then-Open race this replaces could misclassify both.)
func TestLoadDirOpenOnce(t *testing.T) {
	dir := t.TempDir()
	cat := relation.MustCatalog(schema())
	db := table.NewDatabase(cat)
	// Person.csv as a *directory*: os.Open succeeds, first read errors.
	// The loader must report it rather than silently skipping.
	if err := os.Mkdir(filepath.Join(dir, "Person.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(db, dir, true); err == nil {
		t.Error("unreadable Person.csv silently skipped")
	}
}
