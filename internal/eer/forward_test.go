package eer

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/relation"
	"dbre/internal/value"
)

// forwardMap translates an EER schema back into a relational schema with
// key-based inclusion dependencies, following the modular mapping of
// Markowitz and Shoshani that the paper cites as the design-time
// counterpart of its reverse method:
//
//   - an entity-type becomes a relation keyed on its key attributes;
//   - an is-a link becomes an inclusion of the subtype's key in the
//     supertype's key;
//   - a weak entity keeps its composite key and an inclusion from the
//     borrowed key part to each owner;
//   - a relationship-type becomes a relation whose key is the union of the
//     participants' foreign keys (n-ary case), with one inclusion per leg;
//     binary N:1 relationships collapse into the N-side relation's
//     existing foreign-key attributes.
//
// Attribute types default to integer for borrowed keys when the schema
// carries no type information (the EER metamodel stores names only).
// The result is the (R, K, RIC)-shape input that Translate consumes, so
// forwardMap ∘ Translate is testable as a round trip.
func forwardMap(s *Schema) (*relation.Catalog, []deps.IND, error) {
	cat, err := relation.NewCatalog()
	if err != nil {
		return nil, nil, err
	}
	var ric []deps.IND

	// Entity-types (weak ones included: their full attribute lists are
	// already recorded on the entity).
	for _, e := range s.Entities {
		if len(e.Attrs) == 0 {
			return nil, nil, fmt.Errorf("eer: entity %s has no attributes", e.Name)
		}
		attrs := make([]relation.Attribute, len(e.Attrs))
		for i, a := range e.Attrs {
			attrs[i] = relation.Attribute{Name: a, Type: value.KindInt}
		}
		var uniques []relation.AttrSet
		if len(e.Key) > 0 {
			uniques = append(uniques, relation.NewAttrSet(e.Key...))
		}
		schema, err := relation.NewSchema(e.Name, attrs, uniques...)
		if err != nil {
			return nil, nil, err
		}
		if err := cat.Add(schema); err != nil {
			return nil, nil, err
		}
	}

	// Is-a links: subtype key included in supertype key.
	for _, l := range s.ISA {
		sub, ok := cat.Get(l.Sub)
		if !ok {
			return nil, nil, fmt.Errorf("eer: is-a from unknown entity %q", l.Sub)
		}
		super, ok := cat.Get(l.Super)
		if !ok {
			return nil, nil, fmt.Errorf("eer: is-a to unknown entity %q", l.Super)
		}
		subKey, ok1 := sub.PrimaryKey()
		superKey, ok2 := super.PrimaryKey()
		if !ok1 || !ok2 || subKey.Len() != superKey.Len() {
			return nil, nil, fmt.Errorf("eer: is-a %s -> %s with incompatible keys", l.Sub, l.Super)
		}
		ric = append(ric, deps.NewIND(
			deps.Side{Rel: l.Sub, Attrs: subKey.Names()},
			deps.Side{Rel: l.Super, Attrs: superKey.Names()},
		))
	}

	// Weak entities: the borrowed key part references each owner's key.
	for _, e := range s.Entities {
		if !e.Weak {
			continue
		}
		for _, ownerName := range e.Owners {
			owner, ok := cat.Get(ownerName)
			if !ok {
				return nil, nil, fmt.Errorf("eer: weak entity %s owned by unknown %q", e.Name, ownerName)
			}
			ownerKey, ok := owner.PrimaryKey()
			if !ok {
				return nil, nil, fmt.Errorf("eer: owner %s of %s has no key", ownerName, e.Name)
			}
			// The borrowed part is the intersection of the weak key with
			// the owner's key attribute names.
			borrowed := relation.NewAttrSet(e.Key...).Intersect(ownerKey)
			if borrowed.IsEmpty() {
				return nil, nil, fmt.Errorf("eer: weak entity %s borrows nothing from %s", e.Name, ownerName)
			}
			ric = append(ric, deps.NewIND(
				deps.Side{Rel: e.Name, Attrs: borrowed.Names()},
				deps.Side{Rel: ownerName, Attrs: borrowed.Names()},
			))
		}
	}

	// Relationship-types.
	for _, r := range s.Relationships {
		if isBinaryN1(r) {
			// Collapsed representation: the N side already carries the
			// foreign key; only the inclusion is emitted.
			n, one := legs(r)
			ric = append(ric, deps.NewIND(
				deps.Side{Rel: n.Entity, Attrs: n.Via},
				deps.Side{Rel: one.Entity, Attrs: one.Via},
			))
			continue
		}
		// N-ary (or N:N): a relation of its own keyed on the union of the
		// participants' keys, one inclusion per leg.
		var attrs []relation.Attribute
		var keyNames []string
		seen := map[string]bool{}
		for _, p := range r.Participants {
			for _, a := range p.Via {
				if !seen[a] {
					seen[a] = true
					attrs = append(attrs, relation.Attribute{Name: a, Type: value.KindInt})
					keyNames = append(keyNames, a)
				}
			}
		}
		for _, a := range r.Attrs {
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, relation.Attribute{Name: a, Type: value.KindInt})
			}
		}
		if len(keyNames) == 0 {
			return nil, nil, fmt.Errorf("eer: relationship %s has no realizable legs", r.Name)
		}
		schema, err := relation.NewSchema(r.Name, attrs, relation.NewAttrSet(keyNames...))
		if err != nil {
			return nil, nil, err
		}
		if err := cat.Add(schema); err != nil {
			return nil, nil, err
		}
		for _, p := range r.Participants {
			target, ok := cat.Get(p.Entity)
			if !ok {
				return nil, nil, fmt.Errorf("eer: relationship %s references unknown entity %q", r.Name, p.Entity)
			}
			targetKey, ok := target.PrimaryKey()
			if !ok {
				return nil, nil, fmt.Errorf("eer: participant %s of %s has no key", p.Entity, r.Name)
			}
			ric = append(ric, deps.NewIND(
				deps.Side{Rel: r.Name, Attrs: p.Via},
				deps.Side{Rel: p.Entity, Attrs: targetKey.Names()},
			))
		}
	}

	deps.SortINDs(ric)
	return cat, ric, nil
}

// isBinaryN1 reports whether the relationship is the collapsed binary
// shape: exactly two legs, one N (or 1 after annotation) holding the
// foreign key and one 1-side being referenced.
func isBinaryN1(r *Relationship) bool {
	if len(r.Participants) != 2 {
		return false
	}
	cards := []string{r.Participants[0].Card, r.Participants[1].Card}
	sort.Strings(cards)
	return cards[0] == "1" // {1,N} or {1,1}
}

// legs returns the (N-side, 1-side) of a binary relationship.
func legs(r *Relationship) (nSide, oneSide Participant) {
	if r.Participants[0].Card == "1" && r.Participants[1].Card != "1" {
		return r.Participants[1], r.Participants[0]
	}
	if r.Participants[1].Card == "1" {
		return r.Participants[0], r.Participants[1]
	}
	return r.Participants[0], r.Participants[1]
}

// TestForwardMapPaperRoundTrip: forward-mapping the Figure 1 EER schema
// yields a relational schema whose re-translation reproduces the same EER
// structure — Translate and ForwardMap are inverse on the paper example.
func TestForwardMapPaperRoundTrip(t *testing.T) {
	original := paperEER(t)
	cat, ric, err := forwardMap(original)
	if err != nil {
		t.Fatal(err)
	}

	// The mapped catalog holds the 8 entity relations + Assignment.
	if cat.Len() != 9 {
		t.Fatalf("catalog = %v", cat.Names())
	}
	asg, ok := cat.Get("Assignment")
	if !ok {
		t.Fatal("Assignment relation missing")
	}
	pk, _ := asg.PrimaryKey()
	if !pk.Equal(relation.NewAttrSet("emp", "dep", "proj")) {
		t.Errorf("Assignment key = %v", pk)
	}
	if !asg.HasAttr("date") {
		t.Error("relationship attribute lost")
	}

	// Re-translate and compare EER structure.
	back, err := Translate(cat, ric)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(back.Entities), names(original.Entities); got != want {
		t.Errorf("entities: %s vs %s", got, want)
	}
	if len(back.ISA) != len(original.ISA) {
		t.Errorf("ISA: %v vs %v", back.ISA, original.ISA)
	}
	if len(back.Relationships) != len(original.Relationships) {
		t.Errorf("relationships: %d vs %d", len(back.Relationships), len(original.Relationships))
	}
	// The ternary relationship survives with the same participants.
	asgRel, ok := back.relationship("Assignment")
	if !ok || len(asgRel.Participants) != 3 {
		t.Fatalf("Assignment relationship = %+v", asgRel)
	}
	// The weak entity survives.
	he, ok := back.entity("HEmployee")
	if !ok || !he.Weak || strings.Join(he.Owners, ",") != "Employee" {
		t.Errorf("HEmployee = %+v", he)
	}
}

func names(es []*Entity) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return strings.Join(out, ",")
}

func TestForwardMapBinaryCollapsed(t *testing.T) {
	s := &Schema{
		Entities: []*Entity{
			{Name: "R", Attrs: []string{"id", "fk"}, Key: []string{"id"}},
			{Name: "S", Attrs: []string{"sid"}, Key: []string{"sid"}},
		},
		Relationships: []*Relationship{{
			Name: "R-S",
			Participants: []Participant{
				{Entity: "R", Via: []string{"fk"}, Card: "N"},
				{Entity: "S", Via: []string{"sid"}, Card: "1"},
			},
		}},
	}
	cat, ric, err := forwardMap(s)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Has("R-S") {
		t.Error("binary N:1 relationship materialized as a relation")
	}
	if len(ric) != 1 || ric[0].String() != "R[fk] << S[sid]" {
		t.Errorf("ric = %v", ric)
	}
}

func TestForwardMapManyToMany(t *testing.T) {
	s := &Schema{
		Entities: []*Entity{
			{Name: "A", Attrs: []string{"a"}, Key: []string{"a"}},
			{Name: "B", Attrs: []string{"b"}, Key: []string{"b"}},
		},
		Relationships: []*Relationship{{
			Name: "AB",
			Participants: []Participant{
				{Entity: "A", Via: []string{"a"}, Card: "N"},
				{Entity: "B", Via: []string{"b"}, Card: "N"},
			},
			Attrs: []string{"since"},
		}},
	}
	cat, ric, err := forwardMap(s)
	if err != nil {
		t.Fatal(err)
	}
	ab, ok := cat.Get("AB")
	if !ok {
		t.Fatal("AB relation missing")
	}
	pk, _ := ab.PrimaryKey()
	if !pk.Equal(relation.NewAttrSet("a", "b")) {
		t.Errorf("AB key = %v", pk)
	}
	if len(ric) != 2 {
		t.Errorf("ric = %v", ric)
	}
}

func TestForwardMapErrors(t *testing.T) {
	cases := []*Schema{
		{Entities: []*Entity{{Name: "E"}}}, // no attributes
		{ISA: []ISALink{{Sub: "X", Super: "Y"}}},
		{
			Entities: []*Entity{
				{Name: "A", Attrs: []string{"a"}, Key: []string{"a"}},
				{Name: "B", Attrs: []string{"b", "c"}, Key: []string{"b", "c"}},
			},
			ISA: []ISALink{{Sub: "A", Super: "B"}}, // incompatible keys
		},
		{
			Entities: []*Entity{
				{Name: "W", Attrs: []string{"k"}, Key: []string{"k"}, Weak: true, Owners: []string{"Ghost"}},
			},
		},
		{
			Entities: []*Entity{
				{Name: "W", Attrs: []string{"k"}, Key: []string{"k"}, Weak: true, Owners: []string{"O"}},
				{Name: "O", Attrs: []string{"different"}, Key: []string{"different"}},
			}, // weak entity borrows nothing
		},
		{
			Relationships: []*Relationship{{
				Name: "X",
				Participants: []Participant{
					{Entity: "Nope", Via: []string{"v"}, Card: "N"},
					{Entity: "Nope2", Via: []string{"w"}, Card: "N"},
				},
			}},
		},
	}
	for i, s := range cases {
		if _, _, err := forwardMap(s); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestForwardMapRICAreKeyBased(t *testing.T) {
	// Every emitted IND's right side is a declared key — the defining
	// property of the design-time mapping the paper builds on.
	original := paperEER(t)
	cat, ric, err := forwardMap(original)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ric {
		s, ok := cat.Get(d.Right.Rel)
		if !ok {
			t.Fatalf("IND references unknown relation %s", d.Right.Rel)
		}
		if !s.IsKey(relation.NewAttrSet(d.Right.Attrs...)) {
			t.Errorf("IND %s is not key-based", d)
		}
	}
}
