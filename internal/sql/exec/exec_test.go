package exec

import (
	"strings"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/sql/parser"
	"dbre/internal/value"
)

const fixture = `
CREATE TABLE Person (
	id INTEGER PRIMARY KEY,
	name VARCHAR(40),
	zip-code VARCHAR(10),
	state VARCHAR(20)
);
CREATE TABLE HEmployee (
	no INTEGER,
	date DATE,
	salary FLOAT,
	PRIMARY KEY (no, date)
);
INSERT INTO Person VALUES (1, 'Alice', '69621', 'Rhone');
INSERT INTO Person VALUES (2, 'Bob',   '69621', 'Rhone');
INSERT INTO Person (id, name) VALUES (3, 'Carol');
INSERT INTO HEmployee VALUES (1, '1996-01-01', 1000.5);
INSERT INTO HEmployee VALUES (1, '1996-02-01', 1100.0);
INSERT INTO HEmployee VALUES (2, '1996-01-01', 900.0);
`

func TestLoadScript(t *testing.T) {
	db, errs := LoadScript(fixture)
	if len(errs) > 0 {
		t.Fatalf("LoadScript: %v", errs)
	}
	p, ok := db.Table("Person")
	if !ok || p.Len() != 3 {
		t.Fatalf("Person has %d rows", p.Len())
	}
	h, _ := db.Table("HEmployee")
	if h.Len() != 3 {
		t.Fatalf("HEmployee has %d rows", h.Len())
	}
	// NULLs from partial insert.
	if !p.Row(2)[3].IsNull() {
		t.Error("Carol.state should be NULL")
	}
	// Coercion: salary int literal into float column.
	if h.Row(1)[2].Kind() != value.KindFloat {
		t.Error("salary not coerced to float")
	}
}

func TestLoadScriptErrors(t *testing.T) {
	_, errs := LoadScript(`INSERT INTO Ghost VALUES (1);`)
	if len(errs) == 0 {
		t.Error("unknown relation accepted")
	}
	_, errs = LoadScript(`CREATE TABLE T (a INTEGER PRIMARY KEY); INSERT INTO T VALUES (1); INSERT INTO T VALUES (1);`)
	if len(errs) == 0 {
		t.Error("duplicate key accepted")
	}
	_, errs = LoadScript(`CREATE TABLE T (a INTEGER); INSERT INTO T (zz) VALUES (1);`)
	if len(errs) == 0 {
		t.Error("unknown column accepted")
	}
	_, errs = LoadScript(`CREATE TABLE T (a INTEGER); INSERT INTO T (a) VALUES (1, 2);`)
	if len(errs) == 0 {
		t.Error("arity mismatch accepted")
	}
	_, errs = LoadScript(`CREATE TABLE T (a INTEGER); INSERT INTO T VALUES ('abc');`)
	if len(errs) == 0 {
		t.Error("uncoercible value accepted")
	}
	_, errs = LoadScript(`CREATE TABLE T (a INTEGER); UPDATE T SET a = 1;`)
	if len(errs) == 0 {
		t.Error("UPDATE accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustLoadScript did not panic")
			}
		}()
		MustLoadScript(`BOGUS`)
	}()
}

// TestLoadScriptRejectsSelect: the loader evaluates no queries, so a
// SELECT in a dump is a statement-level error, and the statements around
// it still load.
func TestLoadScriptRejectsSelect(t *testing.T) {
	db, errs := LoadScript(fixture + `SELECT id FROM Person;
INSERT INTO Person VALUES (4, 'Dan', '75001', 'Seine');`)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "SELECT") {
		t.Fatalf("LoadScript errors = %v, want one naming the SELECT", errs)
	}
	if n := db.MustTable("Person").Len(); n != 4 {
		t.Errorf("Person has %d rows, want 4", n)
	}
}

func TestExecRejectsSelect(t *testing.T) {
	db := MustLoadScript(fixture)
	stmt, err := parser.ParseStatement(`SELECT id FROM Person`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Exec(db, stmt); err == nil {
		t.Error("Exec(SELECT) accepted")
	}
}

func TestExecAlterTable(t *testing.T) {
	db := MustLoadScript(`
CREATE TABLE Emp (no INTEGER, boss INTEGER);
CREATE TABLE Boss (id INTEGER);
INSERT INTO Boss VALUES (1); INSERT INTO Boss VALUES (2);
INSERT INTO Emp VALUES (10, 1); INSERT INTO Emp VALUES (11, 2);
ALTER TABLE Emp ADD UNIQUE (no);
ALTER TABLE Emp ADD FOREIGN KEY (boss) REFERENCES Boss (id);
`)
	s, _ := db.Catalog().Get("Emp")
	if !s.IsKey(value2AttrSet("no")) {
		t.Error("ALTER ADD UNIQUE not applied")
	}
	// Violated declarations error.
	_, errs := LoadScript(`
CREATE TABLE T (a INTEGER);
INSERT INTO T VALUES (1); INSERT INTO T VALUES (1);
ALTER TABLE T ADD UNIQUE (a);
`)
	if len(errs) == 0 {
		t.Error("violated UNIQUE accepted")
	}
	_, errs = LoadScript(`
CREATE TABLE A (x INTEGER); CREATE TABLE B (y INTEGER);
INSERT INTO A VALUES (5);
ALTER TABLE A ADD FOREIGN KEY (x) REFERENCES B (y);
`)
	if len(errs) == 0 {
		t.Error("violated FOREIGN KEY accepted")
	}
	_, errs = LoadScript(`ALTER TABLE Ghost ADD UNIQUE (x);`)
	if len(errs) == 0 {
		t.Error("unknown relation accepted")
	}
	_, errs = LoadScript(`
CREATE TABLE A (x INTEGER);
ALTER TABLE A ADD FOREIGN KEY (x) REFERENCES Ghost (y);
`)
	if len(errs) == 0 {
		t.Error("unknown FK target accepted")
	}
}

// value2AttrSet builds a one-attribute set (avoids importing relation in
// every assertion).
func value2AttrSet(name string) relation.AttrSet { return relation.NewAttrSet(name) }
