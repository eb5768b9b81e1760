package appscan

import (
	"sort"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/relation"
	"dbre/internal/sql/parser"
	"dbre/internal/value"
)

// paperCatalog builds the Section 5 schema.
func paperCatalog() *relation.Catalog {
	attr := func(name string, k value.Kind) relation.Attribute {
		return relation.Attribute{Name: name, Type: k}
	}
	return relation.MustCatalog(
		relation.MustSchema("Person", []relation.Attribute{
			attr("id", value.KindInt), attr("name", value.KindString),
			attr("street", value.KindString), attr("number", value.KindInt),
			attr("zip-code", value.KindString), attr("state", value.KindString),
		}, relation.NewAttrSet("id")),
		relation.MustSchema("HEmployee", []relation.Attribute{
			attr("no", value.KindInt), attr("date", value.KindDate), attr("salary", value.KindFloat),
		}, relation.NewAttrSet("no", "date")),
		relation.MustSchema("Department", []relation.Attribute{
			attr("dep", value.KindInt), attr("emp", value.KindInt),
			attr("skill", value.KindString),
			{Name: "location", Type: value.KindString, NotNull: true},
			attr("proj", value.KindInt),
		}, relation.NewAttrSet("dep")),
		relation.MustSchema("Assignment", []relation.Attribute{
			attr("emp", value.KindInt), attr("dep", value.KindInt),
			attr("proj", value.KindInt), attr("date", value.KindDate),
			attr("project-name", value.KindString),
		}, relation.NewAttrSet("emp", "dep", "proj")),
	)
}

func extract(t *testing.T, src string) []deps.EquiJoin {
	t.Helper()
	stmt, err := parser.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return NewExtractor(paperCatalog()).FromStatement(stmt)
}

func joinStrings(js []deps.EquiJoin) []string {
	var out []string
	for _, j := range js {
		out = append(out, j.Canonical().String())
	}
	sort.Strings(out)
	return out
}

func TestWhereEqualityJoin(t *testing.T) {
	js := extract(t, `SELECT h.salary FROM HEmployee h, Person p WHERE h.no = p.id`)
	if len(js) != 1 {
		t.Fatalf("joins = %v", js)
	}
	want := deps.NewEquiJoin(deps.NewSide("HEmployee", "no"), deps.NewSide("Person", "id"))
	if js[0].Key() != want.Key() {
		t.Errorf("join = %v, want %v", js[0], want)
	}
}

func TestUnqualifiedColumnsResolved(t *testing.T) {
	// `no` only in HEmployee, `id` only in Person.
	js := extract(t, `SELECT salary FROM HEmployee, Person WHERE no = id`)
	if len(js) != 1 {
		t.Fatalf("joins = %v", js)
	}
	if js[0].Canonical().String() != "HEmployee[no] |><| Person[id]" {
		t.Errorf("join = %v", js[0])
	}
}

func TestAmbiguousColumnsSkipped(t *testing.T) {
	// `emp` occurs in both Department and Assignment: unqualified is
	// ambiguous, so no join may be inferred.
	js := extract(t, `SELECT 1 FROM Department, Assignment WHERE emp = emp`)
	if len(js) != 0 {
		t.Errorf("ambiguous join inferred: %v", js)
	}
	// `dep = proj`? both ambiguous too.
	js2 := extract(t, `SELECT 1 FROM Department, Assignment WHERE dep = proj`)
	if len(js2) != 0 {
		t.Errorf("ambiguous join inferred: %v", js2)
	}
}

func TestExplicitJoinOn(t *testing.T) {
	js := extract(t, `SELECT * FROM Department d JOIN HEmployee h ON d.emp = h.no`)
	if len(js) != 1 || js[0].Canonical().String() != "Department[emp] |><| HEmployee[no]" {
		t.Errorf("joins = %v", js)
	}
}

func TestMultiAttributeJoinGrouped(t *testing.T) {
	js := extract(t, `SELECT * FROM HEmployee h, Assignment a WHERE h.no = a.emp AND h.date = a.date`)
	if len(js) != 1 {
		t.Fatalf("joins = %v", js)
	}
	j := js[0].Canonical()
	if j.Arity() != 2 {
		t.Errorf("arity = %d: %v", j.Arity(), j)
	}
}

func TestInSubqueryJoin(t *testing.T) {
	js := extract(t, `SELECT name FROM Person WHERE id IN (SELECT no FROM HEmployee)`)
	if len(js) != 1 || js[0].Canonical().String() != "HEmployee[no] |><| Person[id]" {
		t.Errorf("joins = %v", js)
	}
	// NOT IN is not a join path.
	js2 := extract(t, `SELECT name FROM Person WHERE id NOT IN (SELECT no FROM HEmployee)`)
	if len(js2) != 0 {
		t.Errorf("NOT IN produced joins: %v", js2)
	}
}

func TestExistsCorrelatedJoin(t *testing.T) {
	js := extract(t, `SELECT name FROM Person p WHERE EXISTS (SELECT * FROM HEmployee h WHERE h.no = p.id)`)
	if len(js) != 1 || js[0].Canonical().String() != "HEmployee[no] |><| Person[id]" {
		t.Errorf("joins = %v", js)
	}
	js2 := extract(t, `SELECT name FROM Person p WHERE NOT EXISTS (SELECT * FROM HEmployee h WHERE h.no = p.id)`)
	if len(js2) != 0 {
		t.Errorf("NOT EXISTS produced joins: %v", js2)
	}
}

func TestIntersectJoin(t *testing.T) {
	js := extract(t, `SELECT dep FROM Department INTERSECT SELECT dep FROM Assignment`)
	if len(js) != 1 {
		t.Fatalf("joins = %v", js)
	}
	got := js[0].Canonical().String()
	if got != "Assignment[dep] |><| Department[dep]" {
		t.Errorf("join = %v", got)
	}
}

func TestOrAndNotContextsIgnored(t *testing.T) {
	js := extract(t, `SELECT 1 FROM HEmployee h, Person p WHERE h.no = p.id OR h.salary > 0`)
	if len(js) != 0 {
		t.Errorf("OR context produced joins: %v", js)
	}
	js2 := extract(t, `SELECT 1 FROM HEmployee h, Person p WHERE NOT (h.no = p.id)`)
	if len(js2) != 0 {
		t.Errorf("NOT context produced joins: %v", js2)
	}
}

func TestLiteralAndParamEqualitiesIgnored(t *testing.T) {
	js := extract(t, `SELECT 1 FROM Department d WHERE d.dep = 42 AND d.emp = :host`)
	if len(js) != 0 {
		t.Errorf("literal equalities produced joins: %v", js)
	}
}

func TestSelfJoin(t *testing.T) {
	js := extract(t, `SELECT 1 FROM Department a, Department b WHERE a.emp = b.dep`)
	if len(js) != 1 {
		t.Fatalf("joins = %v", js)
	}
	j := js[0].Canonical()
	if j.Left.Rel != "Department" || j.Right.Rel != "Department" {
		t.Errorf("self join = %v", j)
	}
	// Intra-binding equality is not a join.
	js2 := extract(t, `SELECT 1 FROM Department a WHERE a.emp = a.dep`)
	if len(js2) != 0 {
		t.Errorf("intra-binding equality produced join: %v", js2)
	}
}

func TestTransitiveClosure(t *testing.T) {
	src := `SELECT 1 FROM Person p, HEmployee h, Department d
	        WHERE p.id = h.no AND h.no = d.emp`
	js := extract(t, src)
	if len(js) != 3 { // p-h, h-d and the implied p-d
		t.Fatalf("transitive joins = %v", joinStrings(js))
	}
	// Without closure: only the two written joins.
	stmt, _ := parser.ParseStatement(src)
	e := NewExtractor(paperCatalog())
	e.TransitiveClosure = false
	js2 := e.FromStatement(stmt)
	if len(js2) != 2 {
		t.Errorf("direct joins = %v", joinStrings(js2))
	}
}

func TestUpdateDeleteJoins(t *testing.T) {
	js := extract(t, `UPDATE Department SET skill = 'x' WHERE emp IN (SELECT no FROM HEmployee)`)
	if len(js) != 1 || js[0].Canonical().String() != "Department[emp] |><| HEmployee[no]" {
		t.Errorf("update joins = %v", js)
	}
	js2 := extract(t, `DELETE FROM Assignment WHERE proj IN (SELECT proj FROM Department)`)
	if len(js2) != 1 {
		t.Errorf("delete joins = %v", js2)
	}
}

func TestUnknownRelationSkipped(t *testing.T) {
	js := extract(t, `SELECT 1 FROM Ghost g, Person p WHERE g.x = p.id`)
	if len(js) != 0 {
		t.Errorf("joins against unknown relation: %v", js)
	}
}

// TestPaperExampleQ reproduces the paper's Section 5 set Q from a realistic
// mix of application programs (experiment E2).
func TestPaperExampleQ(t *testing.T) {
	programs := map[string]string{
		// A report joining employees with their person record.
		"report1.sql": `SELECT p.name, h.salary FROM HEmployee h, Person p WHERE h.no = p.id;`,
		// A COBOL program joining departments with employees.
		"managers.cob": `000100 PROCEDURE DIVISION.
000200     EXEC SQL
000300         SELECT skill INTO :ws-skill
000400         FROM Department d, HEmployee h
000500         WHERE d.emp = h.no
000600     END-EXEC.`,
		// A C program joining assignments with employees.
		"assign.c": `int f(void) {
	char *q = "SELECT a.date FROM Assignment a, HEmployee h "
	          "WHERE a.emp = h.no";
	return run(q);
}`,
		// Nested IN spelling of Assignment-Department on dep.
		"depts.sql": `SELECT dep FROM Assignment WHERE dep IN (SELECT dep FROM Department);`,
		// INTERSECT spelling of Department-Assignment on proj.
		"projs.sql": `SELECT proj FROM Department INTERSECT SELECT proj FROM Assignment;`,
	}
	var rep Report
	var snippets []Snippet
	for name, content := range programs {
		snippets = append(snippets, ScanSource(name, content, &rep)...)
	}
	q := NewExtractor(paperCatalog()).ExtractQ(snippets)
	want := []string{
		"Assignment[dep] |><| Department[dep]",
		"Assignment[emp] |><| HEmployee[no]",
		"Assignment[proj] |><| Department[proj]",
		"Department[emp] |><| HEmployee[no]",
		"HEmployee[no] |><| Person[id]",
	}
	var got []string
	for _, j := range q.Sorted() {
		got = append(got, j.String())
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("Q = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Q[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
