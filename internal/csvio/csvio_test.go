package csvio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
)

func schema() *relation.Schema {
	return relation.MustSchema("Person", []relation.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString},
		{Name: "salary", Type: value.KindFloat},
		{Name: "hired", Type: value.KindDate},
	}, relation.NewAttrSet("id"))
}

func TestLoadBasic(t *testing.T) {
	tab := table.New(schema())
	src := "id,name,salary,hired\n1,Alice,1000.5,1996-01-02\n2,,,\n"
	n, err := Load(tab, strings.NewReader(src), true)
	if err != nil || n != 0 {
		t.Fatalf("Load: %v, %d", err, n)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if !tab.Row(0)[2].Equal(value.NewFloat(1000.5)) {
		t.Errorf("salary = %v", tab.Row(0)[2])
	}
	if !tab.Row(1)[1].IsNull() || !tab.Row(1)[3].IsNull() {
		t.Error("empty fields not NULL")
	}
}

func TestLoadColumnSubsetAndOrder(t *testing.T) {
	tab := table.New(schema())
	src := "name,id\nAlice,1\n"
	if _, err := Load(tab, strings.NewReader(src), true); err != nil {
		t.Fatal(err)
	}
	if !tab.Row(0)[0].Equal(value.NewInt(1)) || !tab.Row(0)[2].IsNull() {
		t.Errorf("row = %v", tab.Row(0))
	}
}

func TestLoadErrors(t *testing.T) {
	tab := table.New(schema())
	if _, err := Load(tab, strings.NewReader(""), true); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Load(tab, strings.NewReader("id,ghost\n1,2\n"), true); err == nil {
		t.Error("unknown header accepted")
	}
	if _, err := Load(tab, strings.NewReader("id\nabc\n"), true); err == nil {
		t.Error("bad int accepted")
	}
}

func TestLoadStrictVsTolerant(t *testing.T) {
	src := "id,name\n1,A\n1,B\n"
	tabStrict := table.New(schema())
	if _, err := Load(tabStrict, strings.NewReader(src), true); err == nil {
		t.Error("strict load accepted duplicate key")
	}
	tabLoose := table.New(schema())
	n, err := Load(tabLoose, strings.NewReader(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || tabLoose.Len() != 2 {
		t.Errorf("violations=%d rows=%d", n, tabLoose.Len())
	}
}

func TestStoreRoundTrip(t *testing.T) {
	tab := table.New(schema())
	tab.MustInsert(table.Row{value.NewInt(1), value.NewString("Alice"), value.NewFloat(1.5), value.NewDate(1996, 2, 26)})
	tab.MustInsert(table.Row{value.NewInt(2), value.Null, value.Null, value.Null})
	var buf bytes.Buffer
	if err := Store(tab, &buf); err != nil {
		t.Fatal(err)
	}
	tab2 := table.New(schema())
	if _, err := Load(tab2, &buf, true); err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != 2 {
		t.Fatalf("round trip rows = %d", tab2.Len())
	}
	for i := 0; i < 2; i++ {
		for j := range tab.Row(i) {
			if !tab.Row(i)[j].Equal(tab2.Row(i)[j]) {
				t.Errorf("row %d col %d: %v vs %v", i, j, tab.Row(i)[j], tab2.Row(i)[j])
			}
		}
	}
}

func TestStoreDirLoadDir(t *testing.T) {
	dir := t.TempDir()
	cat := relation.MustCatalog(schema())
	db := table.NewDatabase(cat)
	db.MustTable("Person").MustInsert(table.Row{value.NewInt(1), value.NewString("A"), value.Null, value.Null})
	if err := StoreDir(db, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "Person.csv")); err != nil {
		t.Fatal(err)
	}
	cat2 := relation.MustCatalog(schema())
	db2 := table.NewDatabase(cat2)
	n, err := LoadDir(db2, dir, true)
	if err != nil || n != 0 {
		t.Fatalf("LoadDir: %v %d", err, n)
	}
	if db2.MustTable("Person").Len() != 1 {
		t.Error("LoadDir missed rows")
	}
}

// TestLoadFileMissing: a relation without a file in the directory loads
// empty, and the relations beside it load as usual.
func TestLoadFileMissing(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Person.csv"), []byte("id,name\n1,A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(relation.MustCatalog(schema(),
		relation.MustSchema("Empty", []relation.Attribute{{Name: "x", Type: value.KindInt}})))
	if _, err := LoadDir(db, dir, true); err != nil {
		t.Fatalf("LoadDir with missing file: %v", err)
	}
	if n := db.MustTable("Person").Len(); n != 1 {
		t.Errorf("Person: %d rows, want 1", n)
	}
	if n := db.MustTable("Empty").Len(); n != 0 {
		t.Errorf("Empty: %d rows, want 0", n)
	}
}
