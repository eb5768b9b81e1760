package relation

import (
	"strings"
	"testing"

	"dbre/internal/value"
)

// paperCatalog builds the running example of Section 5:
//
//	Person(id, name, street, number, zip-code, state)    key {id}
//	HEmployee(no, date, salary)                          key {no,date}
//	Department(dep, emp, skill, location, proj)          key {dep}, location NOT NULL
//	Assignment(emp, dep, proj, date, project-name)       key {emp,dep,proj}
func paperCatalog(t *testing.T) *Catalog {
	t.Helper()
	person := MustSchema("Person", []Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString},
		{Name: "street", Type: value.KindString},
		{Name: "number", Type: value.KindInt},
		{Name: "zip-code", Type: value.KindString},
		{Name: "state", Type: value.KindString},
	}, NewAttrSet("id"))
	hemployee := MustSchema("HEmployee", []Attribute{
		{Name: "no", Type: value.KindInt},
		{Name: "date", Type: value.KindDate},
		{Name: "salary", Type: value.KindFloat},
	}, NewAttrSet("no", "date"))
	department := MustSchema("Department", []Attribute{
		{Name: "dep", Type: value.KindInt},
		{Name: "emp", Type: value.KindInt},
		{Name: "skill", Type: value.KindString},
		{Name: "location", Type: value.KindString, NotNull: true},
		{Name: "proj", Type: value.KindInt},
	}, NewAttrSet("dep"))
	assignment := MustSchema("Assignment", []Attribute{
		{Name: "emp", Type: value.KindInt},
		{Name: "dep", Type: value.KindInt},
		{Name: "proj", Type: value.KindInt},
		{Name: "date", Type: value.KindDate},
		{Name: "project-name", Type: value.KindString},
	}, NewAttrSet("emp", "dep", "proj"))
	return MustCatalog(person, hemployee, department, assignment)
}

func TestPaperExampleK(t *testing.T) {
	c := paperCatalog(t)
	got := c.Keys()
	want := []Ref{
		NewRef("Assignment", "emp", "dep", "proj"),
		NewRef("Department", "dep"),
		NewRef("HEmployee", "no", "date"),
		NewRef("Person", "id"),
	}
	if len(got) != len(want) {
		t.Fatalf("K has %d elements: %v", len(got), got)
	}
	for i := range want {
		if got[i].Compare(want[i]) != 0 {
			t.Errorf("K[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPaperExampleN(t *testing.T) {
	c := paperCatalog(t)
	got := c.NotNulls()
	want := map[string]bool{
		"Assignment.dep": true, "Assignment.emp": true, "Assignment.proj": true,
		"Department.dep": true, "Department.location": true,
		"HEmployee.no": true, "HEmployee.date": true,
		"Person.id": true,
	}
	if len(got) != len(want) {
		t.Fatalf("N has %d elements: %v", len(got), got)
	}
	for _, r := range got {
		if !want[r.String()] {
			t.Errorf("unexpected element of N: %v", r)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Attribute{{Name: "a"}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("R", nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewSchema("R", []Attribute{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("R", []Attribute{{Name: ""}}); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewSchema("R", []Attribute{{Name: "a"}}, NewAttrSet("b")); err == nil {
		t.Error("UNIQUE over unknown attribute accepted")
	}
	if _, err := NewSchema("R", []Attribute{{Name: "a"}}, NewAttrSet()); err == nil {
		t.Error("empty UNIQUE accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := MustSchema("R", []Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindString, NotNull: true},
		{Name: "c", Type: value.KindFloat},
	}, NewAttrSet("a"))
	if !s.AttrSet().Equal(NewAttrSet("a", "b", "c")) {
		t.Errorf("AttrSet = %v", s.AttrSet())
	}
	if a, ok := s.Attr("b"); !ok || a.Type != value.KindString {
		t.Errorf("Attr(b) = %v, %v", a, ok)
	}
	if _, ok := s.Attr("z"); ok {
		t.Error("Attr(z) found")
	}
	if !s.HasAttr("c") || s.HasAttr("z") {
		t.Error("HasAttr wrong")
	}
	if !s.IsKey(NewAttrSet("a")) || s.IsKey(NewAttrSet("b")) {
		t.Error("IsKey wrong")
	}
	pk, ok := s.PrimaryKey()
	if !ok || !pk.Equal(NewAttrSet("a")) {
		t.Errorf("PrimaryKey = %v, %v", pk, ok)
	}
	if !s.NotNullSet().Equal(NewAttrSet("a", "b")) {
		t.Errorf("NotNullSet = %v", s.NotNullSet())
	}
	// AddUnique dedup.
	if err := s.AddUnique(NewAttrSet("a")); err != nil {
		t.Errorf("AddUnique dup: %v", err)
	}
	if len(s.Uniques) != 1 {
		t.Errorf("duplicate UNIQUE added: %v", s.Uniques)
	}
}

func TestSchemaNoKey(t *testing.T) {
	s := MustSchema("R", []Attribute{{Name: "a"}})
	if _, ok := s.PrimaryKey(); ok {
		t.Error("keyless schema reported a primary key")
	}
	if !s.NotNullSet().IsEmpty() {
		t.Error("keyless, null-allowed schema has NOT NULLs")
	}
}

func TestDropAttrs(t *testing.T) {
	s := MustSchema("Department", []Attribute{
		{Name: "dep"}, {Name: "emp"}, {Name: "skill"},
		{Name: "location", NotNull: true}, {Name: "proj"},
	}, NewAttrSet("dep"))
	got := s.DropAttrs(NewAttrSet("skill", "proj"))
	if !got.AttrSet().Equal(NewAttrSet("dep", "emp", "location")) {
		t.Errorf("DropAttrs result = %v", got.AttrSet())
	}
	if !got.IsKey(NewAttrSet("dep")) {
		t.Error("key lost although untouched")
	}
	// Key dropped when it mentions a removed attribute.
	got2 := s.DropAttrs(NewAttrSet("dep"))
	if len(got2.Uniques) != 0 {
		t.Error("UNIQUE kept although its attribute was dropped")
	}
	// Original untouched.
	if len(s.Attrs) != 5 {
		t.Error("DropAttrs mutated the receiver")
	}
}

func TestSchemaString(t *testing.T) {
	c := paperCatalog(t)
	dep, _ := c.Get("Department")
	got := dep.String()
	if got != "Department(#dep, emp, skill, location*, proj)" {
		t.Errorf("String = %q", got)
	}
}

func TestRef(t *testing.T) {
	r := NewRef("HEmployee", "no")
	if r.String() != "HEmployee.no" {
		t.Errorf("String = %q", r.String())
	}
	r2 := NewRef("HEmployee", "no", "date")
	if r2.String() != "HEmployee.{date, no}" {
		t.Errorf("String = %q", r2.String())
	}
	if r.Compare(NewRef("HEmployee", "no")) != 0 {
		t.Error("Compare of equal refs is not 0")
	}
	if r.Compare(r2) != -1 || r2.Compare(r) != 1 || r.Compare(r) != 0 {
		t.Error("Compare wrong")
	}
	if r.Key() == r2.Key() {
		t.Error("Key collision")
	}
}

func TestCatalog(t *testing.T) {
	c := paperCatalog(t)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Names(); strings.Join(got, ",") != "Person,HEmployee,Department,Assignment" {
		t.Errorf("Names = %v", got)
	}
	if _, ok := c.Get("Person"); !ok {
		t.Error("Get(Person) failed")
	}
	if c.Has("Nobody") {
		t.Error("Has(Nobody)")
	}
	dup := MustSchema("Person", []Attribute{{Name: "x"}})
	if err := c.Add(dup); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := c.Replace(dup); err != nil {
		t.Errorf("Replace: %v", err)
	}
	if got, _ := c.Get("Person"); !got.AttrSet().Equal(NewAttrSet("x")) {
		t.Error("Replace did not take effect")
	}
	if err := c.Replace(MustSchema("Ghost", []Attribute{{Name: "x"}})); err == nil {
		t.Error("Replace of unknown relation accepted")
	}
}

func TestCatalogClone(t *testing.T) {
	c := paperCatalog(t)
	cl := c.Clone()
	s, _ := cl.Get("Person")
	s.Attrs[0].Name = "mutated"
	orig, _ := c.Get("Person")
	if orig.Attrs[0].Name != "id" {
		t.Error("Clone shares attribute storage")
	}
	if err := cl.Add(MustSchema("New", []Attribute{{Name: "n"}})); err != nil {
		t.Fatal(err)
	}
	if c.Has("New") {
		t.Error("Clone shares order storage")
	}
}

func TestCatalogString(t *testing.T) {
	c := paperCatalog(t)
	s := c.String()
	if !strings.Contains(s, "Person(#id, name, street, number, zip-code, state)") {
		t.Errorf("catalog String missing Person: %s", s)
	}
	if strings.Count(s, "\n") != 3 {
		t.Errorf("catalog String line count: %q", s)
	}
}
