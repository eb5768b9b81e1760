// Package eer implements the target conceptual model of the method — the
// Entity-Relationship model extended with specialization (is-a) links and
// weak entity-types — and the paper's Translate algorithm (Section 7),
// which maps the restructured 3NF relational schema onto it. Renderers
// regenerate Figure 1 as text and as GraphViz DOT.
package eer

import (
	"fmt"
	"sort"
	"strings"
)

// Entity is an EER entity-type. A weak entity depends on its owners for
// identification (double box in Figure 1).
type Entity struct {
	Name  string
	Attrs []string // all attributes of the underlying relation
	Key   []string
	Weak  bool
	// Owners lists the entity-types a weak entity depends on.
	Owners []string
}

// Participant is one leg of a relationship-type.
type Participant struct {
	Entity string
	// Via names the foreign-key attributes realizing the leg.
	Via []string
	// Card is the cardinality annotation on the leg: "N" for the many
	// side of an n-ary relationship, "1" when the leg is single-valued.
	Card string
	// Optional marks partial participation: not every instance of the
	// entity takes part in the relationship (set by Annotate from the
	// extension).
	Optional bool
}

// Relationship is an EER relationship-type (diamond in Figure 1).
type Relationship struct {
	Name         string
	Participants []Participant
	Attrs        []string // descriptive attributes (e.g. Assignment.date)
}

// ISALink is a specialization link: Sub is-a Super.
type ISALink struct {
	Sub   string
	Super string
}

// Schema is a complete EER schema.
type Schema struct {
	Entities      []*Entity
	Relationships []*Relationship
	ISA           []ISALink
	// Skipped records relational constructs the sketch does not handle
	// (e.g. cyclic inclusion dependencies), with a reason each.
	Skipped []string
}

// sortSchema orders every component deterministically.
func (s *Schema) sort() {
	sort.Slice(s.Entities, func(i, j int) bool { return s.Entities[i].Name < s.Entities[j].Name })
	sort.Slice(s.Relationships, func(i, j int) bool { return s.Relationships[i].Name < s.Relationships[j].Name })
	sort.Slice(s.ISA, func(i, j int) bool {
		if s.ISA[i].Sub != s.ISA[j].Sub {
			return s.ISA[i].Sub < s.ISA[j].Sub
		}
		return s.ISA[i].Super < s.ISA[j].Super
	})
	for _, r := range s.Relationships {
		sort.Slice(r.Participants, func(i, j int) bool { return r.Participants[i].Entity < r.Participants[j].Entity })
	}
}

// Text renders the schema as an indented outline (the textual Figure 1).
func (s *Schema) Text() string {
	var b strings.Builder
	b.WriteString("EER schema\n")
	b.WriteString("==========\n")
	for _, e := range s.Entities {
		kind := "entity"
		if e.Weak {
			kind = "weak entity"
		}
		fmt.Fprintf(&b, "%s %s(%s) key={%s}", kind, e.Name,
			strings.Join(e.Attrs, ", "), strings.Join(e.Key, ", "))
		if e.Weak && len(e.Owners) > 0 {
			fmt.Fprintf(&b, " identified-by %s", strings.Join(e.Owners, ", "))
		}
		b.WriteByte('\n')
	}
	for _, l := range s.ISA {
		fmt.Fprintf(&b, "is-a %s -> %s\n", l.Sub, l.Super)
	}
	for _, r := range s.Relationships {
		parts := make([]string, len(r.Participants))
		for i, p := range r.Participants {
			card := p.Card
			if p.Optional {
				card += "?"
			}
			parts[i] = fmt.Sprintf("%s(%s):%s", p.Entity, strings.Join(p.Via, ","), card)
		}
		fmt.Fprintf(&b, "relationship %s [%s]", r.Name, strings.Join(parts, " -- "))
		if len(r.Attrs) > 0 {
			fmt.Fprintf(&b, " attrs={%s}", strings.Join(r.Attrs, ", "))
		}
		b.WriteByte('\n')
	}
	for _, sk := range s.Skipped {
		fmt.Fprintf(&b, "skipped: %s\n", sk)
	}
	return b.String()
}

// DOT renders the schema as a GraphViz digraph in the visual vocabulary of
// Figure 1: rectangles for entity-types, double rectangles ("peripheries=2")
// for weak entity-types, diamonds for relationship-types, and arrows with
// an "isa" label for specialization links.
func (s *Schema) DOT() string {
	var b strings.Builder
	b.WriteString("digraph EER {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	for _, e := range s.Entities {
		shape := "box"
		extra := ""
		if e.Weak {
			extra = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s, label=\"%s\\n(%s)\"];\n",
			e.Name, shape, extra, e.Name, strings.Join(e.Key, ", "))
	}
	for _, r := range s.Relationships {
		label := r.Name
		if len(r.Attrs) > 0 {
			label += "\\n{" + strings.Join(r.Attrs, ", ") + "}"
		}
		fmt.Fprintf(&b, "  %q [shape=diamond, label=%q];\n", "rel_"+r.Name, label)
		for _, p := range r.Participants {
			fmt.Fprintf(&b, "  %q -> %q [dir=none, label=%q];\n", "rel_"+r.Name, p.Entity, p.Card)
		}
	}
	for _, l := range s.ISA {
		fmt.Fprintf(&b, "  %q -> %q [label=\"isa\", arrowhead=normalnormal];\n", l.Sub, l.Super)
	}
	for _, e := range s.Entities {
		if e.Weak {
			for _, o := range e.Owners {
				fmt.Fprintf(&b, "  %q -> %q [style=dashed];\n", e.Name, o)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
