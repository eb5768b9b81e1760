package eer

import (
	"context"
	"sort"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/restruct"
	"dbre/internal/value"
)

// paperEER drives the full chain to the EER schema.
func paperEER(t *testing.T) *Schema {
	t.Helper()
	db := paperex.Database()
	oracle := paperex.Oracle()
	indRes, err := ind.DiscoverCtx(context.Background(), db, paperex.Q(), oracle, ind.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	inS := map[string]bool{}
	for _, n := range indRes.NewRelations {
		inS[n] = true
	}
	lhsRes, err := restruct.DiscoverLHS(db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
	if err != nil {
		t.Fatal(err)
	}
	rhsRes, err := fd.DiscoverRHSCtx(context.Background(), db, lhsRes.LHS, lhsRes.Hidden, oracle, fd.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := restruct.RunCtx(context.Background(), db, rhsRes.FDs, rhsRes.Hidden, indRes.INDs, restruct.Opts{Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := Translate(db.Catalog(), res.RIC)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// TestE7_Figure1 reproduces the paper's final EER schema (experiment E7).
func TestE7_Figure1(t *testing.T) {
	s := paperEER(t)

	// Entity-types: Figure 1 shows Person, Employee, Manager, HEmployee
	// (weak), Department, Other-Dept, Ass-Dept, Project. Assignment is a
	// relationship, not an entity.
	wantEntities := []string{"Ass-Dept", "Department", "Employee", "HEmployee",
		"Manager", "Other-Dept", "Person", "Project"}
	var gotEntities []string
	for _, e := range s.Entities {
		gotEntities = append(gotEntities, e.Name)
	}
	if strings.Join(gotEntities, "|") != strings.Join(wantEntities, "|") {
		t.Fatalf("entities = %v, want %v", gotEntities, wantEntities)
	}
	if _, isEntity := s.entity("Assignment"); isEntity {
		t.Error("Assignment must not be an entity-type")
	}

	// Is-a hierarchy: Employee→Person, Manager→Employee, Ass-Dept→both.
	if got := s.supers("Employee"); strings.Join(got, ",") != "Person" {
		t.Errorf("Employee supers = %v", got)
	}
	if got := s.supers("Manager"); strings.Join(got, ",") != "Employee" {
		t.Errorf("Manager supers = %v", got)
	}
	if got := s.supers("Ass-Dept"); strings.Join(got, ",") != "Department,Other-Dept" {
		t.Errorf("Ass-Dept supers = %v", got)
	}
	if len(s.ISA) != 4 {
		t.Errorf("ISA links = %v", s.ISA)
	}

	// HEmployee is a weak entity identified by Employee.
	he, ok := s.entity("HEmployee")
	if !ok || !he.Weak || strings.Join(he.Owners, ",") != "Employee" {
		t.Errorf("HEmployee = %+v", he)
	}

	// Assignment is a ternary many-to-many relationship over Employee,
	// Other-Dept, Project carrying the attribute date.
	asg, ok := s.relationship("Assignment")
	if !ok {
		t.Fatal("Assignment relationship missing")
	}
	var parts []string
	for _, p := range asg.Participants {
		parts = append(parts, p.Entity+":"+p.Card)
	}
	if strings.Join(parts, "|") != "Employee:N|Other-Dept:N|Project:N" {
		t.Errorf("Assignment participants = %v", parts)
	}
	if strings.Join(asg.Attrs, ",") != "date" {
		t.Errorf("Assignment attrs = %v", asg.Attrs)
	}

	// Binary relationships Department–Manager and Manager–Project.
	dm, ok := s.relationship("Department-Manager")
	if !ok || len(dm.Participants) != 2 {
		t.Fatalf("Department-Manager = %+v", dm)
	}
	if dm.Participants[0].Card == dm.Participants[1].Card {
		t.Errorf("Department-Manager cards = %+v", dm.Participants)
	}
	if _, ok := s.relationship("Manager-Project"); !ok {
		t.Error("Manager-Project missing")
	}
	if len(s.Relationships) != 3 {
		t.Errorf("relationships = %d", len(s.Relationships))
	}
	if len(s.Skipped) != 0 {
		t.Errorf("skipped = %v", s.Skipped)
	}
}

func TestE7_Renderings(t *testing.T) {
	s := paperEER(t)
	text := s.Text()
	for _, want := range []string{
		"weak entity HEmployee",
		"is-a Employee -> Person",
		"is-a Ass-Dept -> Department",
		"relationship Assignment",
		"attrs={date}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() misses %q:\n%s", want, text)
		}
	}
	dot := s.DOT()
	for _, want := range []string{
		"digraph EER",
		`"HEmployee" [shape=box, peripheries=2`,
		`"rel_Assignment" [shape=diamond`,
		`"Employee" -> "Person" [label="isa"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT() misses %q:\n%s", want, dot)
		}
	}
}

func smallCatalog() *relation.Catalog {
	return relation.MustCatalog(
		relation.MustSchema("A", []relation.Attribute{
			{Name: "id", Type: value.KindInt},
		}, relation.NewAttrSet("id")),
		relation.MustSchema("B", []relation.Attribute{
			{Name: "id", Type: value.KindInt},
		}, relation.NewAttrSet("id")),
	)
}

func TestTranslateCycleSkipped(t *testing.T) {
	ric := []deps.IND{
		deps.NewIND(deps.NewSide("A", "id"), deps.NewSide("B", "id")),
		deps.NewIND(deps.NewSide("B", "id"), deps.NewSide("A", "id")),
	}
	s, err := Translate(smallCatalog(), ric)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ISA) != 1 || len(s.Skipped) != 1 {
		t.Errorf("ISA = %v, skipped = %v", s.ISA, s.Skipped)
	}
	if !strings.Contains(s.Text(), "skipped: cyclic") {
		t.Error("skip not rendered")
	}
}

func TestTranslateUnknownRelation(t *testing.T) {
	ric := []deps.IND{deps.NewIND(deps.NewSide("Ghost", "x"), deps.NewSide("A", "id"))}
	if _, err := Translate(smallCatalog(), ric); err == nil {
		t.Error("unknown left relation accepted")
	}
	ric2 := []deps.IND{deps.NewIND(deps.NewSide("A", "id"), deps.NewSide("Ghost", "x"))}
	if _, err := Translate(smallCatalog(), ric2); err == nil {
		t.Error("unknown right relation accepted")
	}
}

func TestTranslateWeakVsRelationship(t *testing.T) {
	// R(k1,k2,x) with key {k1,k2}: both parts referencing entities makes
	// a relationship; only one part makes a weak entity.
	cat := relation.MustCatalog(
		relation.MustSchema("E1", []relation.Attribute{{Name: "a", Type: value.KindInt}}, relation.NewAttrSet("a")),
		relation.MustSchema("E2", []relation.Attribute{{Name: "b", Type: value.KindInt}}, relation.NewAttrSet("b")),
		relation.MustSchema("R", []relation.Attribute{
			{Name: "k1", Type: value.KindInt},
			{Name: "k2", Type: value.KindInt},
			{Name: "x", Type: value.KindInt},
		}, relation.NewAttrSet("k1", "k2")),
	)
	full := []deps.IND{
		deps.NewIND(deps.NewSide("R", "k1"), deps.NewSide("E1", "a")),
		deps.NewIND(deps.NewSide("R", "k2"), deps.NewSide("E2", "b")),
	}
	s, err := Translate(cat, full)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.relationship("R"); !ok {
		t.Errorf("R should be a relationship: %s", s.Text())
	}
	partial := full[:1]
	s2, err := Translate(cat, partial)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.entity("R")
	if !ok || !e.Weak || strings.Join(e.Owners, ",") != "E1" {
		t.Errorf("R should be weak owned by E1: %+v", e)
	}
}

func TestTranslateOverlappingKeyPartsWeak(t *testing.T) {
	// Overlapping LHSs cannot partition the key: weak entity.
	cat := relation.MustCatalog(
		relation.MustSchema("E1", []relation.Attribute{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}},
			relation.NewAttrSet("a", "b")),
		relation.MustSchema("E2", []relation.Attribute{{Name: "a", Type: value.KindInt}}, relation.NewAttrSet("a")),
		relation.MustSchema("R", []relation.Attribute{
			{Name: "k1", Type: value.KindInt},
			{Name: "k2", Type: value.KindInt},
		}, relation.NewAttrSet("k1", "k2")),
	)
	ric := []deps.IND{
		deps.NewIND(deps.NewSide("R", "k1", "k2"), deps.NewSide("E1", "a", "b")),
		deps.NewIND(deps.NewSide("R", "k2"), deps.NewSide("E2", "a")),
	}
	s, err := Translate(cat, ric)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.entity("R")
	if !ok || !e.Weak {
		t.Errorf("R = %+v", e)
	}
}

func TestTranslateKeylessRelation(t *testing.T) {
	cat := relation.MustCatalog(
		relation.MustSchema("NoKey", []relation.Attribute{{Name: "x", Type: value.KindInt}}),
	)
	s, err := Translate(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.entity("NoKey"); !ok {
		t.Error("keyless relation should still map to an entity-type")
	}
}

func TestTranslateEmptyRIC(t *testing.T) {
	s, err := Translate(smallCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Entities) != 2 || len(s.Relationships) != 0 || len(s.ISA) != 0 {
		t.Errorf("schema = %s", s.Text())
	}
}

// TestTranslateDeterministic ensures repeated runs produce identical text.
func TestTranslateDeterministic(t *testing.T) {
	a := paperEER(t).Text()
	b := paperEER(t).Text()
	if a != b {
		t.Error("Translate output not deterministic")
	}
}

// entity returns the entity-type with the given name.
func (s *Schema) entity(name string) (*Entity, bool) {
	for _, e := range s.Entities {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// relationship returns the relationship-type with the given name.
func (s *Schema) relationship(name string) (*Relationship, bool) {
	for _, r := range s.Relationships {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// supers returns the supertypes of an entity, sorted.
func (s *Schema) supers(sub string) []string {
	var out []string
	for _, l := range s.ISA {
		if l.Sub == sub {
			out = append(out, l.Super)
		}
	}
	sort.Strings(out)
	return out
}
