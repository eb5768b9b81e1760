// Package relation models relational schemas the way a legacy data
// dictionary exposes them: relation names, typed attributes, UNIQUE and NOT
// NULL declarations. From these it computes the two constraint sets the
// paper's method starts from — K (key attribute sets) and N (null-not-allowed
// attributes) — without any expert involvement (Section 4 of the paper).
package relation

import (
	"fmt"
	"sort"
	"strings"

	"dbre/internal/value"
)

// Attribute is a named, typed column with its dictionary-level NOT NULL flag.
type Attribute struct {
	Name    string
	Type    value.Kind
	NotNull bool // declared NOT NULL (a UNIQUE declaration implies it too)
}

// Schema describes one relation R_i(X_i) plus its declared constraints.
type Schema struct {
	Name  string
	Attrs []Attribute
	// Uniques holds the attribute sets declared UNIQUE (or PRIMARY KEY).
	// Per the paper these are exactly the key constraints in K.
	Uniques []AttrSet
}

// NewSchema builds a schema, validating attribute and constraint sanity.
func NewSchema(name string, attrs []Attribute, uniques ...AttrSet) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation %s: no attributes", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	s := &Schema{Name: name, Attrs: attrs}
	for _, u := range uniques {
		if err := s.AddUnique(u); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(name string, attrs []Attribute, uniques ...AttrSet) *Schema {
	s, err := NewSchema(name, attrs, uniques...)
	if err != nil {
		panic(err)
	}
	return s
}

// AddUnique declares a UNIQUE constraint over the given attributes.
func (s *Schema) AddUnique(u AttrSet) error {
	if u.IsEmpty() {
		return fmt.Errorf("relation %s: empty UNIQUE constraint", s.Name)
	}
	all := s.AttrSet()
	if !all.ContainsAll(u) {
		return fmt.Errorf("relation %s: UNIQUE over unknown attributes %v", s.Name, u.Minus(all))
	}
	for _, prev := range s.Uniques {
		if prev.Equal(u) {
			return nil
		}
	}
	s.Uniques = append(s.Uniques, u)
	return nil
}

// AttrSet returns the full attribute set X_i of the relation.
func (s *Schema) AttrSet() AttrSet {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return NewAttrSet(names...)
}

// Attr returns the attribute with the given name, if any.
func (s *Schema) Attr(name string) (Attribute, bool) {
	for _, a := range s.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// HasAttr reports whether the relation has an attribute with the given name.
func (s *Schema) HasAttr(name string) bool {
	_, ok := s.Attr(name)
	return ok
}

// IsKey reports whether u is one of the declared keys of the relation.
func (s *Schema) IsKey(u AttrSet) bool {
	for _, k := range s.Uniques {
		if k.Equal(u) {
			return true
		}
	}
	return false
}

// PrimaryKey returns the first declared key, which by convention is the
// primary one (the paper's algorithms use "the key K_i of R_i").
func (s *Schema) PrimaryKey() (AttrSet, bool) {
	if len(s.Uniques) == 0 {
		return AttrSet{}, false
	}
	return s.Uniques[0], true
}

// NotNullSet returns the set N restricted to this relation: attributes
// declared NOT NULL plus every attribute taking part in a UNIQUE constraint
// (standard SQL semantics adopted by the paper).
func (s *Schema) NotNullSet() AttrSet {
	var names []string
	for _, a := range s.Attrs {
		if a.NotNull {
			names = append(names, a.Name)
		}
	}
	set := NewAttrSet(names...)
	for _, u := range s.Uniques {
		set = set.Union(u)
	}
	return set
}

// DropAttrs returns a copy of the schema with the given attributes removed
// (used by the Restruct algorithm when splitting a relation along an FD).
// UNIQUE constraints mentioning a removed attribute are dropped.
func (s *Schema) DropAttrs(drop AttrSet) *Schema {
	out := &Schema{Name: s.Name}
	for _, a := range s.Attrs {
		if !drop.Contains(a.Name) {
			out.Attrs = append(out.Attrs, a)
		}
	}
	for _, u := range s.Uniques {
		if u.Intersect(drop).IsEmpty() {
			out.Uniques = append(out.Uniques, u)
		}
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Name: s.Name, Attrs: append([]Attribute{}, s.Attrs...)}
	out.Uniques = append(out.Uniques, s.Uniques...)
	return out
}

// String renders the schema in the paper's style: keys underlined is not
// possible in plain text, so key attributes are marked with a leading '#'
// and NOT NULL non-key attributes with a trailing '*'.
func (s *Schema) String() string {
	pk, _ := s.PrimaryKey()
	nn := s.NotNullSet()
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		p := a.Name
		if pk.Contains(a.Name) {
			p = "#" + p
		} else if nn.Contains(a.Name) {
			p += "*"
		}
		parts[i] = p
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Ref is a qualified attribute set "R.X" — a relation name plus an
// unordered set of its attributes. It is the currency of the sets K, LHS
// and H in the paper.
type Ref struct {
	Rel   string
	Attrs AttrSet
}

// NewRef builds a qualified attribute set.
func NewRef(rel string, attrs ...string) Ref {
	return Ref{Rel: rel, Attrs: NewAttrSet(attrs...)}
}

// Compare orders refs by relation then attribute set.
func (r Ref) Compare(o Ref) int {
	if c := strings.Compare(r.Rel, o.Rel); c != 0 {
		return c
	}
	return r.Attrs.Compare(o.Attrs)
}

// String renders the ref in the paper's "R.{a,b}" notation.
func (r Ref) String() string {
	if r.Attrs.Len() == 1 {
		return r.Rel + "." + r.Attrs.Names()[0]
	}
	return r.Rel + "." + r.Attrs.String()
}

// Key returns a canonical map key.
func (r Ref) Key() string { return r.Rel + "\x01" + r.Attrs.Key() }

// SortRefs orders a slice of refs deterministically in place.
func SortRefs(refs []Ref) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].Compare(refs[j]) < 0 })
}

// Catalog is an ordered collection of relation schemas — the set R (and,
// as the method progresses, R ∪ S).
type Catalog struct {
	byName map[string]*Schema
	order  []string
}

// NewCatalog builds a catalog over the given schemas.
func NewCatalog(schemas ...*Schema) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]*Schema, len(schemas))}
	for _, s := range schemas {
		if err := c.Add(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustCatalog is NewCatalog that panics on error.
func MustCatalog(schemas ...*Schema) *Catalog {
	c, err := NewCatalog(schemas...)
	if err != nil {
		panic(err)
	}
	return c
}

// Add registers a schema; duplicate names are an error.
func (c *Catalog) Add(s *Schema) error {
	if _, dup := c.byName[s.Name]; dup {
		return fmt.Errorf("relation: duplicate relation %q", s.Name)
	}
	c.byName[s.Name] = s
	c.order = append(c.order, s.Name)
	return nil
}

// Replace swaps the schema registered under s.Name, keeping its position.
// It is an error if no schema with that name exists.
func (c *Catalog) Replace(s *Schema) error {
	if _, ok := c.byName[s.Name]; !ok {
		return fmt.Errorf("relation: cannot replace unknown relation %q", s.Name)
	}
	c.byName[s.Name] = s
	return nil
}

// Remove deletes the named relation from the catalog. The incremental
// re-validation path uses it to retract an NEI concept relation whose
// join was re-decided differently after a delta.
func (c *Catalog) Remove(name string) error {
	if _, ok := c.byName[name]; !ok {
		return fmt.Errorf("relation: cannot remove unknown relation %q", name)
	}
	delete(c.byName, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return nil
}

// Get returns the schema with the given name.
func (c *Catalog) Get(name string) (*Schema, bool) {
	s, ok := c.byName[name]
	return s, ok
}

// Has reports whether a relation with the given name exists.
func (c *Catalog) Has(name string) bool {
	_, ok := c.byName[name]
	return ok
}

// Names returns the relation names in insertion order.
func (c *Catalog) Names() []string { return append([]string{}, c.order...) }

// Len reports the number of relations.
func (c *Catalog) Len() int { return len(c.order) }

// Schemas returns the schemas in insertion order.
func (c *Catalog) Schemas() []*Schema {
	out := make([]*Schema, len(c.order))
	for i, n := range c.order {
		out[i] = c.byName[n]
	}
	return out
}

// Clone returns a deep copy of the catalog.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{byName: make(map[string]*Schema, len(c.byName))}
	for _, n := range c.order {
		out.byName[n] = c.byName[n].Clone()
		out.order = append(out.order, n)
	}
	return out
}

// Keys computes the paper's set K: one Ref per declared UNIQUE constraint,
// ordered deterministically.
func (c *Catalog) Keys() []Ref {
	var out []Ref
	for _, n := range c.order {
		for _, u := range c.byName[n].Uniques {
			out = append(out, Ref{Rel: n, Attrs: u})
		}
	}
	SortRefs(out)
	return out
}

// NotNulls computes the paper's set N: one Ref per null-not-allowed single
// attribute (declared NOT NULL or member of a UNIQUE constraint).
func (c *Catalog) NotNulls() []Ref {
	var out []Ref
	for _, n := range c.order {
		for _, a := range c.byName[n].NotNullSet().Names() {
			out = append(out, NewRef(n, a))
		}
	}
	SortRefs(out)
	return out
}

// String renders all schemas, one per line, in insertion order.
func (c *Catalog) String() string {
	var b strings.Builder
	for i, n := range c.order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.byName[n].String())
	}
	return b.String()
}
