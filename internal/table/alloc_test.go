package table_test

import (
	"fmt"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Allocation-regression test for the batch appender's steady state: once
// every value in a batch is already interned, appending must cost only
// the amortized growth of the code vectors — no per-row map probes that
// allocate, no per-row boxing, no per-batch scratch churn (the encoder,
// the remap table and the violation bitmap are all reused). The bound is
// a ceiling, not an exact count: amortized slice growth lands a handful
// of allocations per op at this batch size.

func allocsPerOp(f func()) int64 {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return res.AllocsPerOp()
}

func TestAllocsAppendBatchSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	})
	tab := table.New(schema)
	const batch = 256
	rows := make([]table.Row, batch)
	strs := []value.Value{value.NewString("x"), value.NewString("y"), value.NewString("z")}
	for i := range rows {
		rows[i] = table.Row{
			value.NewInt(int64(i % 17)),
			value.NewInt(int64(i % 5)),
			strs[i%len(strs)],
		}
	}
	enc := table.NewChunkEncoder(tab)
	ap := tab.NewAppender()
	appendOnce := func() {
		enc.Reset()
		for _, r := range rows {
			if err := enc.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ap.AppendBatch(enc, false); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: intern every value and size the reusable scratch.
	appendOnce()
	if got := allocsPerOp(appendOnce); got > 12 {
		t.Errorf("steady-state AppendBatch: %d allocs per %d-row batch, want <= 12", got, batch)
	}
}

// TestAllocsAppendFieldsSteady gates the text-direct CSV encode: once
// every field text is interned, re-encoding a Reset encoder may allocate
// only for code-vector growth and the copies of the VARCHAR entries
// Reset drops (one per distinct string: 2 here). Integers, floats and
// dates parse to primitives interned without allocating. A boxed row or
// a parse-cache entry per record would blow through the ceiling.
func TestAllocsAppendFieldsSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
		{Name: "d", Type: value.KindFloat},
		{Name: "e", Type: value.KindDate},
	})
	const batch = 256
	// Fields arrive in an order other than the schema's, as in a CSV
	// whose header permutes the attributes.
	colIdx := []int{4, 0, 2, 1, 3}
	recs := make([][]string, batch)
	strs := []string{"x", "y", "NULL"}
	for i := range recs {
		recs[i] = []string{
			fmt.Sprintf(" 1996-01-%02d", 1+i%3),
			fmt.Sprint(i % 17),
			strs[i%len(strs)],
			fmt.Sprintf(" %d", i%5),
			fmt.Sprintf("%d.5", i%3),
		}
	}
	enc := table.NewChunkEncoder(table.New(schema))
	encodeOnce := func() {
		enc.Reset()
		for _, rec := range recs {
			if err := enc.AppendFields(rec, colIdx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up: intern every value and size the code vectors.
	encodeOnce()
	if got := allocsPerOp(encodeOnce); got > 4 {
		t.Errorf("steady-state AppendFields: %d allocs per %d-record chunk, want <= 4", got, batch)
	}
}

// TestAllocsDropAttrs gates Restruct's FD-split drop at O(columns): the
// surviving columns are shared, so dropping one column of a keyed
// 25-column relation must allocate the same count at 2,500 and at 25,000
// rows, under a small per-column ceiling. Each op migrates the same
// source into a fresh database, as Restruct does once per split.
func TestAllocsDropAttrs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const ncols = 25
	attrs := make([]relation.Attribute, ncols)
	for i := range attrs {
		attrs[i] = relation.Attribute{Name: fmt.Sprintf("c%d", i), Type: value.KindInt, NotNull: i%5 == 1}
	}
	schema := relation.MustSchema("F", attrs, relation.NewAttrSet("c0"))
	drop := relation.NewAttrSet(fmt.Sprintf("c%d", ncols-1))
	measure := func(nrows int) int64 {
		src := table.New(schema)
		enc := table.NewChunkEncoder(src)
		row := make(table.Row, ncols)
		for i := 0; i < nrows; i++ {
			row[0] = value.NewInt(int64(i))
			for c := 1; c < ncols; c++ {
				row[c] = value.NewInt(int64(i % (7 * c)))
			}
			if err := enc.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := src.NewAppender().AppendBatch(enc, true); err != nil {
			t.Fatal(err)
		}
		return allocsPerOp(func() {
			db, err := table.RestoreDatabase(relation.MustCatalog(schema), func(*relation.Schema) (*table.Table, error) {
				return src, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DropAttrs("F", drop); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(2500), measure(25000)
	t.Logf("DropAttrs: %d allocs per op at 2,500 rows, %d at 25,000", small, large)
	if small != large {
		t.Errorf("DropAttrs: %d allocs at 2,500 rows, %d at 25,000; want a row-independent count", small, large)
	}
	if limit := int64(2 * ncols); large > limit {
		t.Errorf("DropAttrs: %d allocs per op, want <= %d (2 per column)", large, limit)
	}
}
