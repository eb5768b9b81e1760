package workload

import (
	"strconv"
	"strings"
	"testing"

	"dbre/internal/appscan"
	"dbre/internal/table"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.Catalog().String() != b.DB.Catalog().String() {
		t.Error("catalogs differ across runs")
	}
	if len(a.Programs) != len(b.Programs) {
		t.Error("program sets differ")
	}
	for name, src := range a.Programs {
		if b.Programs[name] != src {
			t.Errorf("program %s differs", name)
		}
	}
	if a.DB.TotalRows() != b.DB.TotalRows() {
		t.Error("extensions differ")
	}
	// Different seeds differ.
	c, _ := Generate(DefaultSpec(43))
	if a.DB.Catalog().String() == c.DB.Catalog().String() {
		t.Log("same shape for different seed (possible but unusual)")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// FKsPerFact clamped to Dimensions.
	spec := DefaultSpec(1)
	spec.Dimensions = 2
	spec.FKsPerFact = 10
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < spec.Facts; f++ {
		s, _ := w.DB.Catalog().Get("F0")
		if len(s.Attrs) == 0 {
			t.Fatal("fact lost")
		}
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	w, err := Generate(DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	// Every expected IND holds on the clean extension.
	for _, d := range w.Truth.ExpectedINDs {
		l := w.DB.MustTable(d.Left.Rel)
		r := w.DB.MustTable(d.Right.Rel)
		if !holdsIND(t, l, d.Left.Attrs, r, d.Right.Attrs) {
			t.Errorf("expected IND %s does not hold", d)
		}
	}
	// Every expected FD holds (brute force per pair).
	for _, f := range w.Truth.ExpectedFDs {
		tab := w.DB.MustTable(f.Rel)
		for _, b := range f.RHS.Names() {
			li, _ := tab.ColIndex(f.LHS.Names()[0])
			ri, _ := tab.ColIndex(b)
			seen := map[string]string{}
			for i := 0; i < tab.Len(); i++ {
				row := tab.Row(i)
				k, v := row[li].Key(), row[ri].Key()
				if prev, dup := seen[k]; dup && prev != v {
					t.Fatalf("expected FD %s violated", f)
				}
				seen[k] = v
			}
		}
	}
	// Dropped dimensions are not in the catalog; surviving ones are.
	for _, l := range w.Truth.Links {
		if l.Dropped && w.DB.Catalog().Has(l.Dim) {
			t.Errorf("dropped dimension %s still present", l.Dim)
		}
		if !l.Dropped && !w.DB.Catalog().Has(l.Dim) {
			t.Errorf("surviving dimension %s missing", l.Dim)
		}
		if l.Embedded && len(l.EmbeddedAttrs) == 0 {
			t.Errorf("embedded link %v has no attrs", l)
		}
	}
}

func TestProgramsParseAndYieldJoins(t *testing.T) {
	spec := DefaultSpec(9)
	spec.ProgramsPerJoin = 2
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rep appscan.Report
	var snippets []appscan.Snippet
	for name, src := range w.Programs {
		snippets = append(snippets, appscan.ScanSource(name, src, &rep)...)
	}
	if rep.ParseFailures != 0 {
		t.Fatalf("parse failures: %v", rep.FailureSamples)
	}
	got := appscan.NewExtractor(w.DB.Catalog()).ExtractQ(snippets)
	// Joins referencing dropped dimensions resolve only on the fact-fact
	// shape; every planted join between *existing* relations must be
	// recovered.
	for _, q := range w.Joins.Sorted() {
		if !w.DB.Catalog().Has(q.Left.Rel) || !w.DB.Catalog().Has(q.Right.Rel) {
			continue
		}
		if !got.Contains(q) {
			t.Errorf("planted join %s not extracted", q)
		}
	}
	// Language mix: at least two host shapes appear with 2 programs/join.
	langs := map[string]bool{}
	for name := range w.Programs {
		langs[name[strings.LastIndex(name, ".")+1:]] = true
	}
	if len(langs) < 2 {
		t.Errorf("language mix = %v", langs)
	}
}

func TestCorruptionPlantsDanglingFKs(t *testing.T) {
	spec := DefaultSpec(3)
	spec.Corruption = 0.2
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	violated := 0
	for _, d := range w.Truth.ExpectedINDs {
		l := w.DB.MustTable(d.Left.Rel)
		r := w.DB.MustTable(d.Right.Rel)
		if !holdsIND(t, l, d.Left.Attrs, r, d.Right.Attrs) {
			violated++
		}
	}
	if violated == 0 {
		t.Error("20% corruption violated no planted IND")
	}
}

func TestSpecSizing(t *testing.T) {
	spec := DefaultSpec(1)
	spec.DimensionRows = 50
	spec.FactRows = 100
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < spec.Facts; f++ {
		if n := w.DB.MustTable("F" + string(rune('0'+f))).Len(); n != 100 {
			t.Errorf("F%d rows = %d", f, n)
		}
	}
}

// TestCompositeDimensions checks two-attribute dimension keys produce
// binary (k-ary) equi-joins and inclusion dependencies end to end.
func TestCompositeDimensions(t *testing.T) {
	spec := DefaultSpec(13)
	spec.CompositeDims = 2
	spec.DropProb = 0 // keep every dimension so all INDs are expected
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// At least one planted IND is binary.
	binary := 0
	for _, d := range w.Truth.ExpectedINDs {
		if len(d.Left.Attrs) == 2 {
			binary++
			// And it holds on the clean extension.
			l := w.DB.MustTable(d.Left.Rel)
			r := w.DB.MustTable(d.Right.Rel)
			if !holdsIND(t, l, d.Left.Attrs, r, d.Right.Attrs) {
				t.Errorf("binary IND %s violated", d)
			}
		}
	}
	if binary == 0 {
		t.Skip("seed produced no composite links; adjust seed")
	}
	// Programs express them and the extractor recovers them.
	var rep appscan.Report
	var snippets []appscan.Snippet
	for name, src := range w.Programs {
		snippets = append(snippets, appscan.ScanSource(name, src, &rep)...)
	}
	if rep.ParseFailures != 0 {
		t.Fatalf("parse failures: %v", rep.FailureSamples)
	}
	q := appscan.NewExtractor(w.DB.Catalog()).ExtractQ(snippets)
	for _, j := range w.Joins.Sorted() {
		if j.Arity() == 2 && !q.Contains(j) {
			t.Errorf("binary join %s not extracted", j)
		}
	}
}

// holdsIND reports whether the NULL-free value combinations of
// l[la] are all among those of r[ra], by plain maps over Row(i).
func holdsIND(t *testing.T, l *table.Table, la []string, r *table.Table, ra []string) bool {
	t.Helper()
	keys := func(tab *table.Table, attrs []string) map[string]bool {
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			c, ok := tab.ColIndex(a)
			if !ok {
				t.Fatalf("relation %s has no attribute %q", tab.Schema().Name, a)
			}
			cols[i] = c
		}
		set := make(map[string]bool)
	rows:
		for i := 0; i < tab.Len(); i++ {
			key := ""
			for _, c := range cols {
				v := tab.Row(i)[c]
				if v.IsNull() {
					continue rows
				}
				key += strconv.Itoa(len(v.Key())) + ":" + v.Key()
			}
			set[key] = true
		}
		return set
	}
	right := keys(r, ra)
	for k := range keys(l, la) {
		if !right[k] {
			return false
		}
	}
	return true
}
