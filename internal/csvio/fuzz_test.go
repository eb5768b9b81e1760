package csvio

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dbre/internal/table"
)

// FuzzCSVLoad drives the CSV ingest path with arbitrary bytes and checks
// three invariants on every input:
//
//  1. never panic, never hang — malformed legacy extensions must degrade
//     to errors;
//  2. the chunked loader is indistinguishable from the row-by-row
//     reference (refLoad): same violation count, same error text, same
//     engine state;
//  3. store → load is a fixed point after one round: loading what Store
//     wrote, storing that and loading again changes nothing (the first
//     round may normalize, e.g. a literal "NULL" string collapses to SQL
//     NULL on reload).
//
// Run continuously with `go test -fuzz FuzzCSVLoad ./internal/csvio`.
func FuzzCSVLoad(f *testing.F) {
	seeds := []string{
		"",
		"id,name,salary,hired\n",
		"id,name,salary,hired\n1,Alice,10.5,1996-01-02\n2,,,\n",
		"id,name\n1,A\n1,B\n,C\n",
		"name,id\nAlice,1\n",
		"id,ghost\n1,2\n",
		"id\nabc\n",
		"id,name\n1,\"multi\nline\"\n2,\"q\"\"q\"\n",
		"id,name\n1,A\n\n\n2,B\n",
		"id,name\n1,A\n2,B,extra\n",
		"id,name\n1,\"unterminated\n",
		"id,name,salary\n1,NULL,null\n",
		"id,name\n9999999999999999999999,A\n",
		"\xff\xfe,bad\n1\n",
		// Distinct texts, one value: the chunk dictionaries dedup by value.
		"id,name,salary,hired\n7,a,1.5,1996-01-02\n07,b,1.50, 1996-01-02 \n\" 7\",c, 1.5,\n+7,d,-0.0,1996-01-02 \n",
		"id,name,salary,hired\n1,NULL,0.0,null\n2,null,NaN,Null\n3,Null,NaN,\n,,-0.0,NULL\n",
		// Edge texts of the typed encoder: integer bounds, NaN, infinity
		// and hex-float spellings, pre-epoch and padded dates, and
		// strings holding the key terminator or whole encoded keys.
		"id,name,salary,hired\n-9223372036854775808,i7,-NaN,1969-12-31\n9223372036854775807,\"s\x01x\x1f\",+Inf, 0001-01-01 \n-0,\"a\x1fb\",0x1.8p0,nUlL\n",
		"id,name,salary\n9223372036854775808,a,1\n",
		"id,salary\n1,1e309\n",
		"id,hired\n1,1996-02-30\n",
		// A repeated header column stores its last field, NULL included.
		"id,id\n1,2\n",
		"id,id\n1,\n",
		"name,id,name\nNULL,1,x\nx,2,null\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ref := table.New(schema())
		refViol, refErr := refLoad(ref, strings.NewReader(src), false)

		par := table.New(schema())
		parViol, parErr := LoadCtx(context.Background(), par, strings.NewReader(src), false,
			Options{Parallelism: 3, ChunkBytes: 32})
		if (refErr == nil) != (parErr == nil) {
			t.Fatalf("parallel err %v, reference err %v", parErr, refErr)
		}
		if refErr != nil && refErr.Error() != parErr.Error() {
			t.Fatalf("parallel err %q, reference err %q", parErr, refErr)
		}
		if refViol != parViol {
			t.Fatalf("parallel %d violations, reference %d", parViol, refViol)
		}
		if d := tableStateDiff(ref, par); d != "" {
			t.Fatalf("parallel state diverged: %s", d)
		}

		if refErr != nil {
			return
		}
		var buf1 bytes.Buffer
		if err := Store(ref, &buf1); err != nil {
			t.Fatalf("store: %v", err)
		}
		t2 := table.New(schema())
		v2, err := Load(t2, bytes.NewReader(buf1.Bytes()), false)
		if err != nil {
			t.Fatalf("reload of stored output: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Store(t2, &buf2); err != nil {
			t.Fatalf("store (round 2): %v", err)
		}
		t3 := table.New(schema())
		v3, err := Load(t3, bytes.NewReader(buf2.Bytes()), false)
		if err != nil {
			t.Fatalf("reload (round 2): %v", err)
		}
		if v2 != v3 {
			t.Fatalf("violations not stable across round trips: %d then %d", v2, v3)
		}
		if d := tableStateDiff(t2, t3); d != "" {
			t.Fatalf("round trip not a fixed point: %s", d)
		}
	})
}
