package fd

import (
	"context"
	"fmt"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// keysDB builds relation R for the key inference tests.
func keysDB(t *testing.T, uniques ...relation.AttrSet) *table.Database {
	t.Helper()
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "grp", Type: value.KindInt},
		{Name: "seq", Type: value.KindInt},
		{Name: "note", Type: value.KindString},
	}, uniques...)
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	// id unique; (grp,seq) unique; grp and seq individually not; note has
	// NULLs.
	rows := [][4]interface{}{
		{1, 1, 1, "a"},
		{2, 1, 2, nil},
		{3, 2, 1, "a"},
		{4, 2, 2, "b"},
	}
	for _, r := range rows {
		note := value.Null
		if r[3] != nil {
			note = value.NewString(r[3].(string))
		}
		tab.MustInsert(table.Row{
			value.NewInt(int64(r[0].(int))),
			value.NewInt(int64(r[1].(int))),
			value.NewInt(int64(r[2].(int))),
			note,
		})
	}
	return db
}

func TestInferKeys(t *testing.T) {
	keys, err := InferKeys(keysDB(t), "R", DefaultKeyInferenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"id": true, "{grp, seq}": true}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for _, k := range keys {
		if !want[k.String()] {
			t.Errorf("unexpected key %v", k)
		}
	}
	// Minimality: no superset of id.
	for _, k := range keys {
		if k.Contains("id") && k.Len() > 1 {
			t.Errorf("non-minimal key %v", k)
		}
	}
	// note excluded (has NULLs) under RequireNotNull.
	for _, k := range keys {
		if k.Contains("note") {
			t.Errorf("nullable attribute in key %v", k)
		}
	}
}

func TestInferKeysNullableAllowed(t *testing.T) {
	opts := KeyInferenceOptions{MaxSize: 1, RequireNotNull: false}
	keys, err := InferKeys(keysDB(t), "R", opts)
	if err != nil {
		t.Fatal(err)
	}
	// note is unique over its non-null rows {a, a?} — no: a appears twice.
	for _, k := range keys {
		if k.Contains("note") {
			t.Errorf("non-unique nullable attribute accepted: %v", k)
		}
	}
	if len(keys) != 1 || !keys[0].Equal(relation.NewAttrSet("id")) {
		t.Errorf("keys = %v", keys)
	}
}

func TestInferKeysEmptyTable(t *testing.T) {
	s := relation.MustSchema("E", []relation.Attribute{{Name: "a", Type: value.KindInt}})
	keys, err := InferKeys(table.NewDatabase(relation.MustCatalog(s)), "E", DefaultKeyInferenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("empty table produced keys %v", keys)
	}
}

func TestInferKeysMaxSize(t *testing.T) {
	db := keysDB(t)
	keys, err := InferKeys(db, "R", KeyInferenceOptions{MaxSize: 1, RequireNotNull: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || !keys[0].Equal(relation.NewAttrSet("id")) {
		t.Errorf("keys = %v", keys)
	}
	// MaxSize < 1 clamps.
	if _, err := InferKeys(db, "R", KeyInferenceOptions{MaxSize: 0, RequireNotNull: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := InferKeys(db, "Ghost", DefaultKeyInferenceOptions()); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestInferKeysCountsThroughCache: every count of the level-wise search
// is a lookup in the caller's cache, so a repeated search is answered
// from it without a single new build.
func TestInferKeysCountsThroughCache(t *testing.T) {
	db := keysDB(t)
	cache := stats.NewCache(db)
	opts := KeyInferenceOptions{MaxSize: 2, Stats: cache}
	first, err := InferKeys(db, "R", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := cache.Metrics()
	if m.Misses == 0 {
		t.Fatalf("the search built nothing in the caller's cache: %+v", m)
	}
	again, err := InferKeys(db, "R", opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 := cache.Metrics(); m2.Misses != m.Misses || m2.Hits <= m.Hits {
		t.Errorf("repeated search: metrics %+v after %+v, want hits only", m2, m)
	}
	if fmt.Sprint(first) != fmt.Sprint(again) {
		t.Errorf("repeated search found %v, first %v", again, first)
	}
}

func TestInferMissingKeys(t *testing.T) {
	// One keyless relation, one with a declared key, one empty.
	noKey := relation.MustSchema("NoKey", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	})
	withKey := relation.MustSchema("WithKey", []relation.Attribute{
		{Name: "x", Type: value.KindInt},
	}, relation.NewAttrSet("x"))
	empty := relation.MustSchema("Empty", []relation.Attribute{
		{Name: "e", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(noKey, withKey, empty))
	db.MustTable("NoKey").MustInsert(table.Row{value.NewInt(1), value.NewInt(5)})
	db.MustTable("NoKey").MustInsert(table.Row{value.NewInt(2), value.NewInt(5)})
	db.MustTable("WithKey").MustInsert(table.Row{value.NewInt(1)})

	declared, err := InferMissingKeysCtx(context.Background(), db, DefaultKeyInferenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) != 1 || declared[0].String() != "NoKey.a" {
		t.Fatalf("declared = %v", declared)
	}
	s, _ := db.Catalog().Get("NoKey")
	if pk, ok := s.PrimaryKey(); !ok || !pk.Equal(relation.NewAttrSet("a")) {
		t.Errorf("NoKey key = %v %v", pk, ok)
	}
	// Pre-declared and empty relations untouched.
	s2, _ := db.Catalog().Get("WithKey")
	if len(s2.Uniques) != 1 {
		t.Error("WithKey modified")
	}
	s3, _ := db.Catalog().Get("Empty")
	if len(s3.Uniques) != 0 {
		t.Error("Empty got a key")
	}
}

func TestInferMissingKeysNoSupportedKey(t *testing.T) {
	// All columns have duplicates and NULLs: nothing inferable.
	s := relation.MustSchema("Dup", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	db.MustTable("Dup").MustInsert(table.Row{value.NewInt(1)})
	db.MustTable("Dup").MustInsert(table.Row{value.NewInt(1)})
	declared, err := InferMissingKeysCtx(context.Background(), db, DefaultKeyInferenceOptions())
	if err != nil || len(declared) != 0 {
		t.Errorf("declared = %v, %v", declared, err)
	}
}
