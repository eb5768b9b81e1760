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
	"runtime"
	"strings"
	"testing"

	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// personLike is schema() under another relation name.
func personLike(name string) *relation.Schema {
	s := schema()
	return relation.MustSchema(name, s.Attrs, s.Uniques...)
}

// TestLoadDirUnevenSizes: relations of very different sizes (a missing
// file, a header-only file, two records, a few dozen, a few thousand) load
// to the reference state at every parallelism, however largest-first
// dispatch orders the work. A strict load reports the failing relation
// first in catalog order, even when a larger failing relation was
// dispatched before it.
func TestLoadDirUnevenSizes(t *testing.T) {
	sizes := map[string]int{"A": 3, "B": -1, "C": 2500, "D": 0, "E": 40, "F": 2, "G": 600}
	names := []string{"A", "B", "C", "D", "E", "F", "G"}
	var schemas []*relation.Schema
	for _, n := range names {
		schemas = append(schemas, personLike(n))
	}
	newDB := func() *table.Database { return table.NewDatabase(relation.MustCatalog(schemas...)) }
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	srcs := map[string]string{}
	for _, n := range names {
		switch sz := sizes[n]; {
		case sz < 0: // no file: the relation stays empty
		case sz == 0:
			srcs[n] = "id,name,salary,hired\n"
		default:
			srcs[n] = genCSV(rng, sz)
		}
		if src, ok := srcs[n]; ok {
			if err := os.WriteFile(filepath.Join(dir, n+".csv"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := newDB()
	refViol := 0
	for _, n := range names {
		if src, ok := srcs[n]; ok {
			v, err := refLoad(ref.MustTable(n), strings.NewReader(src), false)
			if err != nil {
				t.Fatal(err)
			}
			refViol += v
		}
	}
	for _, opt := range []Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 8}} {
		got := newDB()
		viol, err := LoadDirCtx(context.Background(), got, dir, false, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if viol != refViol {
			t.Fatalf("%+v: %d violations, want %d", opt, viol, refViol)
		}
		if d := dbStateDiff(ref, got); d != "" {
			t.Fatalf("%+v: %s", opt, d)
		}
	}

	// Strict: genCSV's duplicate keys fail A, C, E and G. The serial
	// walk's error is A's; the parallel loads dispatch C first.
	var refErr error
	for _, n := range names {
		if src, ok := srcs[n]; ok {
			if _, refErr = refLoad(newDB().MustTable(n), strings.NewReader(src), true); refErr != nil {
				break
			}
		}
	}
	if refErr == nil || !strings.Contains(refErr.Error(), "relation A ") {
		t.Fatalf("reference strict error %v, want one in relation A", refErr)
	}
	for _, p := range []int{1, 2, 8} {
		_, err := LoadDirCtx(context.Background(), newDB(), dir, true, Options{Parallelism: p})
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("parallelism %d: strict err %v, want %v", p, err, refErr)
		}
	}
}

// chunkDictLens is the reference for the merge-remap count: the number
// of distinct non-NULL values per column of one chunk of records, summed
// over the columns, computed with value.Parse and Key() alone.
func chunkDictLens(t *testing.T, tab *table.Table, header []string, chunk []byte) int {
	t.Helper()
	colIdx, err := resolveHeader(tab, header)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]map[string]bool, len(tab.Schema().Attrs))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, field := range rec {
			v, err := value.Parse(field, tab.Schema().Attrs[colIdx[i]].Type)
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsNull() {
				seen[colIdx[i]][v.Key()] = true
			}
		}
	}
	n := 0
	for _, m := range seen {
		n += len(m)
	}
	return n
}

// TestIngestCounters pins the ingest work counters exactly. A directory
// load gives each file one chunk, which the empty table adopts: one
// chunk per file and no remaps. A load into a non-empty table, as an
// incremental append is, merges its one chunk and remaps every entry of
// that chunk's dictionaries.
func TestIngestCounters(t *testing.T) {
	spec := workload.DefaultSpec(99)
	spec.FactRows = 400
	spec.DimensionRows = 50
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := StoreDir(wl.DB, dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("ingest-counters")
	db := table.NewDatabase(wl.DB.Catalog().Clone())
	if _, err := LoadDirCtx(obs.NewContext(context.Background(), tr), db, dir, false, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(obs.CtrIngestChunks); got != int64(len(files)) {
		t.Errorf("directory load: ingest-chunks = %d, want %d (one per file)", got, len(files))
	}
	if got := tr.Count(obs.CtrIngestMergeRemaps); got != 0 {
		t.Errorf("directory load: ingest-merge-remaps = %d, want 0", got)
	}

	src := genCSV(rand.New(rand.NewSource(21)), 400)
	first, rest := splitAfter(t, src, 150)
	tab := table.New(schema())
	if _, err := Load(tab, strings.NewReader(first), false); err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(rest, "\n")
	want := chunkDictLens(t, tab, strings.Split(header, ","), []byte(body))
	tr = obs.NewTracer("ingest-counters-append")
	if _, err := LoadCtx(obs.NewContext(context.Background(), tr), tab, strings.NewReader(rest), false, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(obs.CtrIngestChunks); got != 1 {
		t.Errorf("append: ingest-chunks = %d, want 1", got)
	}
	if got := tr.Count(obs.CtrIngestMergeRemaps); got != int64(want) {
		t.Errorf("append: ingest-merge-remaps = %d, want %d (the appended chunk's dictionaries)", got, want)
	}
}

// TestDictionaryDoesNotPinRecords: encoding/csv hands out fields as
// substrings of one string per record, so a dictionary entry stored as
// the field itself would keep its whole record line alive. Wide records
// with one unique string column must leave a table whose retained heap
// is far below the input size.
func TestDictionaryDoesNotPinRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	s := relation.MustSchema("W", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "u", Type: value.KindString},
		{Name: "pad", Type: value.KindString},
	})
	const records = 10000
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	pad := strings.Repeat("p", 2000)
	var b bytes.Buffer
	b.WriteString("id,u,pad\n")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, "%d,u%d,%s\n", i, i, pad)
	}
	src := b.Bytes()
	tab := table.New(s)
	if _, err := Load(tab, bytes.NewReader(src), true); err != nil {
		t.Fatal(err)
	}
	inputSize := len(src)
	src = nil
	b = bytes.Buffer{}
	runtime.GC()
	runtime.ReadMemStats(&m)
	retained := int64(m.HeapAlloc) - int64(before)
	if tab.Len() != records {
		t.Fatalf("%d rows, want %d", tab.Len(), records)
	}
	t.Logf("retained %d bytes for %d bytes of input", retained, inputSize)
	if limit := int64(inputSize / 4); retained > limit {
		t.Fatalf("loaded table retains %d bytes of heap for %d bytes of input, want <= %d", retained, inputSize, limit)
	}
	runtime.KeepAlive(tab)
}
