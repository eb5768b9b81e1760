package exec

import (
	"strings"
	"testing"
	"testing/quick"

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

func q(t *testing.T, src string) *Result {
	t.Helper()
	db := MustLoadScript(fixture)
	res, err := QueryString(db, src)
	if err != nil {
		t.Fatalf("QueryString(%q): %v", src, err)
	}
	return res
}

func TestSelectSimple(t *testing.T) {
	res := q(t, `SELECT name FROM Person WHERE id = 2`)
	if res.Len() != 1 || !res.Rows[0][0].Equal(value.NewString("Bob")) {
		t.Errorf("result = %v", res)
	}
}

func TestSelectStar(t *testing.T) {
	res := q(t, `SELECT * FROM Person WHERE id = 1`)
	if res.Len() != 1 || len(res.Rows[0]) != 4 {
		t.Errorf("result = %v", res)
	}
	if strings.Join(res.Cols, ",") != "id,name,zip-code,state" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectImplicitJoin(t *testing.T) {
	res := q(t, `SELECT p.name, h.salary FROM Person p, HEmployee h WHERE h.no = p.id`)
	if res.Len() != 3 {
		t.Errorf("join rows = %d, want 3", res.Len())
	}
}

func TestSelectExplicitJoin(t *testing.T) {
	res := q(t, `SELECT p.name FROM Person p JOIN HEmployee h ON h.no = p.id WHERE h.salary > 1000`)
	if res.Len() != 2 {
		t.Errorf("join rows = %d, want 2", res.Len())
	}
}

func TestSelectDistinct(t *testing.T) {
	res := q(t, `SELECT DISTINCT state FROM Person WHERE state IS NOT NULL`)
	if res.Len() != 1 {
		t.Errorf("distinct rows = %d, want 1", res.Len())
	}
}

func TestCountStar(t *testing.T) {
	res := q(t, `SELECT COUNT(*) FROM HEmployee`)
	if res.Len() != 1 || res.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", res)
	}
}

func TestCountDistinct(t *testing.T) {
	res := q(t, `SELECT COUNT(DISTINCT no) FROM HEmployee`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("count distinct no = %v", res.Rows[0][0])
	}
	// Multi-attribute.
	res2 := q(t, `SELECT COUNT(DISTINCT no, date) FROM HEmployee`)
	if res2.Rows[0][0].Int() != 3 {
		t.Errorf("count distinct (no,date) = %v", res2.Rows[0][0])
	}
	// NULLs excluded.
	res3 := q(t, `SELECT COUNT(DISTINCT state) FROM Person`)
	if res3.Rows[0][0].Int() != 1 {
		t.Errorf("count distinct state = %v", res3.Rows[0][0])
	}
}

func TestInSubquery(t *testing.T) {
	res := q(t, `SELECT name FROM Person WHERE id IN (SELECT no FROM HEmployee)`)
	if res.Len() != 2 {
		t.Errorf("IN rows = %d, want 2", res.Len())
	}
	res2 := q(t, `SELECT name FROM Person WHERE id NOT IN (SELECT no FROM HEmployee)`)
	if res2.Len() != 1 || !res2.Rows[0][0].Equal(value.NewString("Carol")) {
		t.Errorf("NOT IN = %v", res2)
	}
}

func TestExistsCorrelated(t *testing.T) {
	res := q(t, `SELECT name FROM Person p WHERE EXISTS (SELECT * FROM HEmployee h WHERE h.no = p.id)`)
	if res.Len() != 2 {
		t.Errorf("EXISTS rows = %d, want 2", res.Len())
	}
	res2 := q(t, `SELECT name FROM Person p WHERE NOT EXISTS (SELECT * FROM HEmployee h WHERE h.no = p.id)`)
	if res2.Len() != 1 {
		t.Errorf("NOT EXISTS rows = %d, want 1", res2.Len())
	}
}

func TestIntersect(t *testing.T) {
	res := q(t, `SELECT id FROM Person INTERSECT SELECT no FROM HEmployee`)
	if res.Len() != 2 {
		t.Errorf("INTERSECT rows = %d, want 2: %v", res.Len(), res)
	}
}

func TestInList(t *testing.T) {
	res := q(t, `SELECT name FROM Person WHERE id IN (1, 3)`)
	if res.Len() != 2 {
		t.Errorf("IN list rows = %d", res.Len())
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{`SELECT id FROM Person WHERE state IS NULL`, 1},
		{`SELECT id FROM Person WHERE state IS NOT NULL`, 2},
		{`SELECT id FROM Person WHERE name LIKE 'A%'`, 1},
		{`SELECT id FROM Person WHERE name LIKE '_ob'`, 1},
		{`SELECT id FROM Person WHERE name NOT LIKE 'A%'`, 2},
		{`SELECT no FROM HEmployee WHERE salary BETWEEN 950 AND 1050`, 1},
		{`SELECT id FROM Person WHERE id <> 1`, 2},
		{`SELECT id FROM Person WHERE id >= 2 AND id <= 3`, 2},
		{`SELECT id FROM Person WHERE id = 1 OR id = 3`, 2},
		{`SELECT id FROM Person WHERE NOT id = 1`, 2},
		// NULL comparisons are false.
		{`SELECT id FROM Person WHERE state = 'Rhone' OR state <> 'Rhone'`, 2},
	}
	for _, c := range cases {
		res := q(t, c.src)
		if res.Len() != c.want {
			t.Errorf("%s: %d rows, want %d", c.src, res.Len(), c.want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := MustLoadScript(fixture)
	bad := []string{
		`SELECT x FROM Ghost`,
		`SELECT nosuch FROM Person`,
		`SELECT id FROM Person, HEmployee WHERE date = date`, // fine actually? date unambiguous in HEmployee only
		`SELECT name FROM Person WHERE id = :host-var`,
		`SELECT id FROM Person WHERE id IN (SELECT no, date FROM HEmployee)`,
	}
	for i, src := range bad {
		if i == 2 {
			// "date" resolves only in HEmployee → unambiguous, skip.
			continue
		}
		if _, err := QueryString(db, src); err == nil {
			t.Errorf("QueryString(%q) succeeded", src)
		}
	}
	// Ambiguity: same column name in both tables.
	if _, err := QueryString(db, `SELECT id FROM Person p, Person q`); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := QueryString(db, `INSERT INTO Person VALUES (9, 'x', 'y', 'z')`); err == nil {
		t.Error("non-SELECT accepted by QueryString")
	}
}

func TestResultString(t *testing.T) {
	res := q(t, `SELECT id, name FROM Person WHERE id = 1`)
	s := res.String()
	if !strings.Contains(s, "id | name") || !strings.Contains(s, "1 | Alice") {
		t.Errorf("String = %q", s)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "_ello", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "a_c", true},
		{"abc", "a__c", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestExecSelectDiscards(t *testing.T) {
	db := MustLoadScript(fixture)
	stmt, err := parser.ParseStatement(`SELECT id FROM Person`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Exec(db, stmt); err != nil {
		t.Errorf("Exec(SELECT) = %v", err)
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

// TestQuickCountDistinctMatchesEngine: for random single-column data, the
// SQL COUNT(DISTINCT x) answer equals the storage engine's DistinctCount —
// the executor and the elicitation algorithms must agree on ‖r[X]‖.
func TestQuickCountDistinctMatchesEngine(t *testing.T) {
	f := func(vals []int16) bool {
		db := MustLoadScript(`CREATE TABLE T (x INTEGER);`)
		tab, _ := db.Table("T")
		for _, v := range vals {
			tab.MustInsert([]value.Value{value.NewInt(int64(v))})
		}
		res, err := QueryString(db, `SELECT COUNT(DISTINCT x) FROM T`)
		if err != nil {
			return false
		}
		want, err := tab.DistinctCount([]string{"x"})
		if err != nil {
			return false
		}
		return res.Rows[0][0].Int() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDistinctSelectMatchesEngine: SELECT DISTINCT row count equals
// the engine's distinct count (NULL-free case).
func TestQuickDistinctSelectMatchesEngine(t *testing.T) {
	f := func(vals []uint8) bool {
		db := MustLoadScript(`CREATE TABLE T (x INTEGER, y INTEGER);`)
		tab, _ := db.Table("T")
		for i, v := range vals {
			tab.MustInsert([]value.Value{value.NewInt(int64(v % 7)), value.NewInt(int64(i % 3))})
		}
		res, err := QueryString(db, `SELECT DISTINCT x, y FROM T`)
		if err != nil {
			return false
		}
		n, err := tab.DistinctCount([]string{"x", "y"})
		if err != nil {
			return false
		}
		return res.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrderBy(t *testing.T) {
	res := q(t, `SELECT id, name FROM Person ORDER BY name DESC`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	if !res.Rows[0][1].Equal(value.NewString("Carol")) || !res.Rows[2][1].Equal(value.NewString("Alice")) {
		t.Errorf("DESC order = %v", res.Rows)
	}
	res2 := q(t, `SELECT id FROM Person ORDER BY id ASC`)
	if !res2.Rows[0][0].Equal(value.NewInt(1)) || !res2.Rows[2][0].Equal(value.NewInt(3)) {
		t.Errorf("ASC order = %v", res2.Rows)
	}
	// Qualified key resolved against output labels.
	res3 := q(t, `SELECT p.name FROM Person p ORDER BY p.name`)
	if !res3.Rows[0][0].Equal(value.NewString("Alice")) {
		t.Errorf("qualified order = %v", res3.Rows)
	}
	// Multi-key: state then id descending within equal states.
	res4 := q(t, `SELECT state, id FROM Person WHERE state IS NOT NULL ORDER BY state, id DESC`)
	if !res4.Rows[0][1].Equal(value.NewInt(2)) {
		t.Errorf("multi-key order = %v", res4.Rows)
	}
	// Unknown ORDER BY columns are tolerated (legacy reports).
	res5 := q(t, `SELECT id FROM Person ORDER BY nothing-here`)
	if res5.Len() != 3 {
		t.Errorf("tolerant order = %v", res5.Rows)
	}
}
