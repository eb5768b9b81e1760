package eer

import (
	"context"
	"strings"
	"testing"

	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/restruct"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// paperAnnotated runs the paper chain and annotates against the migrated
// extension.
func paperAnnotated(t *testing.T) *Schema {
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
	if err := Annotate(stats.NewCache(db), schema); err != nil {
		t.Fatal(err)
	}
	return schema
}

func findLeg(t *testing.T, s *Schema, rel, entity string) Participant {
	t.Helper()
	r, ok := s.Relationship(rel)
	if !ok {
		t.Fatalf("relationship %s missing", rel)
	}
	for _, p := range r.Participants {
		if p.Entity == entity {
			return p
		}
	}
	t.Fatalf("relationship %s has no leg %s", rel, entity)
	return Participant{}
}

func TestAnnotatePaperExample(t *testing.T) {
	s := paperAnnotated(t)

	// Department–Manager: some departments have no manager (NULL emp) —
	// Department's participation is partial; every manager manages some
	// department — Manager total. Managers 1-20 run two departments, so
	// emp is not unique in Department and the leg stays N.
	dep := findLeg(t, s, "Department-Manager", "Department")
	if !dep.Optional || dep.Card != "N" {
		t.Errorf("Department leg = %+v", dep)
	}
	mgr := findLeg(t, s, "Department-Manager", "Manager")
	if mgr.Optional {
		t.Errorf("Manager leg = %+v", mgr)
	}

	// Manager–Project: every manager has a project (total), but only 80
	// of the 200 projects have a manager (partial on the Project side).
	m := findLeg(t, s, "Manager-Project", "Manager")
	if m.Optional {
		t.Errorf("Manager leg = %+v", m)
	}
	p := findLeg(t, s, "Manager-Project", "Project")
	if !p.Optional {
		t.Errorf("Project leg = %+v", p)
	}

	// Rendering shows the partial marks.
	if !strings.Contains(s.Text(), "Department(emp):N?") {
		t.Errorf("Text misses optional mark:\n%s", s.Text())
	}
}

func TestAnnotateOneToOne(t *testing.T) {
	// R(a unique fk) — S(id): the N side collapses to 1.
	cat := relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{
			{Name: "id", Type: value.KindInt},
			{Name: "fk", Type: value.KindInt},
		}, relation.NewAttrSet("id")),
		relation.MustSchema("S", []relation.Attribute{
			{Name: "sid", Type: value.KindInt},
		}, relation.NewAttrSet("sid")),
	)
	db := table.NewDatabase(cat)
	for i := 1; i <= 3; i++ {
		db.MustTable("S").MustInsert(table.Row{value.NewInt(int64(i))})
		db.MustTable("R").MustInsert(table.Row{value.NewInt(int64(i)), value.NewInt(int64(i))})
	}
	s := &Schema{Relationships: []*Relationship{{
		Name: "R-S",
		Participants: []Participant{
			{Entity: "R", Via: []string{"fk"}, Card: "N"},
			{Entity: "S", Via: []string{"sid"}, Card: "1"},
		},
	}}}
	if err := Annotate(stats.NewCache(db), s); err != nil {
		t.Fatal(err)
	}
	leg := s.Relationships[0].Participants[0]
	if leg.Card != "1" || leg.Optional {
		t.Errorf("R leg = %+v", leg)
	}
	sLeg := s.Relationships[0].Participants[1]
	if sLeg.Optional {
		t.Errorf("S leg = %+v (all targets referenced)", sLeg)
	}
}

func TestAnnotateErrorsAndSkips(t *testing.T) {
	db := table.NewDatabase(relation.MustCatalog())
	s := &Schema{Relationships: []*Relationship{{
		Name: "X",
		Participants: []Participant{
			{Entity: "Ghost", Via: []string{"a"}, Card: "N"},
			{Entity: "Ghost2", Via: []string{"b"}, Card: "1"},
		},
	}}}
	if err := Annotate(stats.NewCache(db), s); err == nil || err.Error() != `eer: relationship X references unknown relation "Ghost"` {
		t.Errorf("unknown relation: err = %v", err)
	}
	// Ternary relationships are skipped untouched.
	s2 := &Schema{Relationships: []*Relationship{{
		Name: "T",
		Participants: []Participant{
			{Entity: "A", Card: "N"}, {Entity: "B", Card: "N"}, {Entity: "C", Card: "N"},
		},
	}}}
	if err := Annotate(stats.NewCache(db), s2); err != nil {
		t.Errorf("ternary skip failed: %v", err)
	}
	// Unknown attribute on a known relation errors.
	cat := relation.MustCatalog(
		relation.MustSchema("R", []relation.Attribute{{Name: "a", Type: value.KindInt}}),
		relation.MustSchema("S", []relation.Attribute{{Name: "b", Type: value.KindInt}}),
	)
	db2 := table.NewDatabase(cat)
	s3 := &Schema{Relationships: []*Relationship{{
		Name: "R-S",
		Participants: []Participant{
			{Entity: "R", Via: []string{"ghost"}, Card: "N"},
			{Entity: "S", Via: []string{"b"}, Card: "1"},
		},
	}}}
	if err := Annotate(stats.NewCache(db2), s3); err == nil || err.Error() != "eer: relationship R-S: unknown attributes [ghost] in R" {
		t.Errorf("unknown attribute: err = %v", err)
	}
}
