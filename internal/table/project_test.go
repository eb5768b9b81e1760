package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/value"
)

// Differential tests for Table.ProjectDistinct. The reference is the
// boxed definition, over plain maps: collect one boxed row per distinct
// NULL-free combination of Row(i) in first-occurrence order, sort.Slice
// the rows by value.Compare, filter, drop later rows of a key already
// taken, and commit the rest through a ChunkEncoder and one strict
// AppendBatch into the empty target. ProjectDistinct must leave the same
// engine state, conflict count and first error on live, sample-read,
// lazily restored and epoch-pinned sources.

// projectReference migrates the distinct projection of src over attrs
// into dst the boxed way.
func projectReference(src, dst *Table, attrs, key []string, keep func([]value.Value) bool) (int, error) {
	idx, err := src.colIndexes(attrs)
	if err != nil {
		return 0, err
	}
	var rows [][]value.Value
	seen := make(map[string]bool)
	for i := 0; i < src.Len(); i++ {
		r := src.Row(i)
		k, null := rowKey(r, idx)
		if null || seen[k] {
			continue
		}
		seen[k] = true
		row := make([]value.Value, len(idx))
		for j, c := range idx {
			row[j] = r[c]
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return compareRows(rows[i], rows[j]) < 0 })
	var keyPos []int
	for j, a := range attrs {
		for _, k := range key {
			if a == k {
				keyPos = append(keyPos, j)
			}
		}
	}
	if len(keyPos) == 0 {
		keyPos = iotaInts(len(attrs))
	}
	conflicts := 0
	taken := make(map[string]bool)
	enc := NewChunkEncoder(dst)
	for _, row := range rows {
		if keep != nil && !keep(row) {
			continue
		}
		k, _ := rowKey(row, keyPos)
		if taken[k] {
			conflicts++
			continue
		}
		taken[k] = true
		if err := enc.AppendRow(row); err != nil {
			return conflicts, err
		}
	}
	if _, err := dst.NewAppender().AppendBatch(enc, true); err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return conflicts, err
	}
	return conflicts, nil
}

// projectCase is one randomized projection: the projected attributes
// (a permuted subset of the source's), the target schema, the dedup key
// and the membership filter.
type projectCase struct {
	attrs []string
	dst   *relation.Schema
	key   []string
	keep  func([]value.Value) bool
}

// randomProjectCase draws a projection of s. The key is all of attrs
// (NEI, hidden objects) or a proper subset (an FD split, whose dirty
// extensions produce conflicts); the target sometimes declares an extra
// UNIQUE the key does not imply, so commits can fail part-way; the
// filter, when present, keeps a pseudo-random half of the combinations.
func randomProjectCase(rng *rand.Rand, s *relation.Schema) projectCase {
	perm := rng.Perm(len(s.Attrs))[:1+rng.Intn(len(s.Attrs))]
	var c projectCase
	attrs := make([]relation.Attribute, len(perm))
	for j, i := range perm {
		a := s.Attrs[i]
		attrs[j] = relation.Attribute{Name: a.Name, Type: a.Type}
		c.attrs = append(c.attrs, a.Name)
	}
	c.key = c.attrs
	if len(perm) > 1 && rng.Intn(2) == 0 {
		c.key = c.attrs[:1+rng.Intn(len(perm)-1)]
	}
	uniques := []relation.AttrSet{relation.NewAttrSet(c.key...)}
	if rng.Intn(4) == 0 {
		uniques = append(uniques, relation.NewAttrSet(c.attrs[rng.Intn(len(perm))]))
	}
	c.dst = relation.MustSchema("P", attrs, uniques...)
	if rng.Intn(3) == 0 {
		salt := rng.Uint64()
		c.keep = func(row []value.Value) bool {
			h := salt
			for _, v := range row {
				h = (h ^ v.Hash()) * 1099511628211
			}
			return h>>33&1 == 0
		}
	}
	return c
}

// checkProject runs one case through ProjectDistinct on src and through
// the reference on ref (a table with src's content), requiring identical
// conflicts, errors and target state. Both targets then take the same
// follow-up batch.
func checkProject(t *testing.T, label string, src, ref *Table, c projectCase, more []Row) {
	t.Helper()
	want := New(c.dst)
	wc, werr := projectReference(ref, want, c.attrs, c.key, c.keep)
	got := New(c.dst)
	gc, gerr := src.ProjectDistinct(got, c.attrs, c.key, c.keep)
	if wc != gc || errText(werr) != errText(gerr) {
		t.Fatalf("%s: (%d conflicts, %q), reference (%d, %q)", label, gc, errText(gerr), wc, errText(werr))
	}
	if d := migratedDiff(t, want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	wv, we := appendAll(want, more)
	gv, ge := appendAll(got, more)
	if wv != gv || errText(we) != errText(ge) {
		t.Fatalf("%s: follow-up batch: (%d, %v), reference (%d, %v)", label, gv, ge, wv, we)
	}
	if d := migratedDiff(t, want, got); d != "" {
		t.Fatalf("%s: after a follow-up batch: %s", label, d)
	}
}

func iotaInts(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// TestProjectDistinctDifferential sweeps randomized schemas with NULLs,
// NaN and ±0.0 ties, clean and dirty extensions, keyed and filtered
// projections, over live, sample-read, lazily restored and
// epoch-pinned sources, requiring ProjectDistinct ≡ the boxed reference
// every time. The sweep must reach conflicts, failed commits, filters
// and more than twelve Compare-tied groups (sort.Slice's insertion-sort
// cutoff), or the checks are vacuous.
func TestProjectDistinctDifferential(t *testing.T) {
	var conflicts, failures, filtered, unstable int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomDropSchema(rng)
		dirty := rng.Intn(2) == 0
		n := rng.Intn(300)
		dom := 1 + rng.Intn(n/2+2)
		rows := dropRows(rng, s, n, dom)
		tab := New(s)
		if rng.Intn(3) == 0 {
			tab.SampleRows()
		}
		ops := rand.New(rand.NewSource(seed))
		loadDropSource(tab, ops, rows, dirty)
		c := randomProjectCase(rng, s)
		more := dropRows(rng, c.dst, 1+rng.Intn(20), dom)
		src, kind := tab, "live"
		switch rng.Intn(3) {
		case 1:
			src, kind = restoreLazy(t, tab), "lazy"
		case 2:
			src, kind = tab.PinEpoch(), "pinned"
		}
		label := fmt.Sprintf("seed %d (%s, dirty %v, %v project %v key %v filter %v)", seed, kind, dirty, s, c.attrs, c.key, c.keep != nil)
		checkProject(t, label, src, tab, c, more)

		ref := New(c.dst)
		k, err := projectReference(tab, ref, c.attrs, c.key, c.keep)
		conflicts += k
		if err != nil {
			failures++
		}
		if c.keep != nil {
			filtered++
		}
		if tiedGroups(t, tab, c.attrs) > 12 {
			unstable++
		}
	}
	if conflicts == 0 || failures == 0 || filtered == 0 || unstable == 0 {
		t.Errorf("sweep reached %d conflicts, %d failed commits, %d filters, %d tie-unstable sorts; want all > 0",
			conflicts, failures, filtered, unstable)
	}
}

// tiedGroups counts the distinct NULL-free combinations of attrs that
// Compare equal to another one.
func tiedGroups(t *testing.T, tab *Table, attrs []string) int {
	t.Helper()
	dst := New(relation.MustSchema("T", attrSchema(tab, attrs)))
	if _, err := tab.ProjectDistinct(dst, attrs, nil, nil); err != nil {
		t.Fatal(err)
	}
	tied := 0
	for i := 0; i < dst.Len(); i++ {
		if (i > 0 && compareRows(dst.Row(i-1), dst.Row(i)) == 0) ||
			(i+1 < dst.Len() && compareRows(dst.Row(i), dst.Row(i+1)) == 0) {
			tied++
		}
	}
	return tied
}

// attrSchema copies the named attributes of tab's schema, without
// constraints.
func attrSchema(tab *Table, attrs []string) []relation.Attribute {
	out := make([]relation.Attribute, len(attrs))
	for j, name := range attrs {
		a, _ := tab.schema.Attr(name)
		out[j] = relation.Attribute{Name: a.Name, Type: a.Type}
	}
	return out
}

// TestProjectDistinctTies pins the tie order on a hand-built column:
// more than twelve distinct values, half of them −0.0/+0.0 pairs that
// Compare equal, so sort.Slice takes its unstable path and the
// reference's permutation of the tied pairs must be reproduced.
func TestProjectDistinctTies(t *testing.T) {
	s := relation.MustSchema("F", []relation.Attribute{
		{Name: "f", Type: value.KindFloat},
		{Name: "i", Type: value.KindInt},
	})
	tab := New(s)
	for i := 0; i < 60; i++ {
		f := value.NewFloat(math.Copysign(0, float64(1-2*(i/25%2))))
		switch {
		case i >= 50:
			f = value.NewFloat(float64(i % 3))
		case i%9 == 0:
			f = value.NewFloat(math.NaN())
		}
		tab.MustInsert(Row{f, value.NewInt(int64(i % 25))})
	}
	for _, attrs := range [][]string{{"f"}, {"f", "i"}, {"i", "f"}} {
		c := projectCase{attrs: attrs, dst: relation.MustSchema("P", attrSchema(tab, attrs), relation.NewAttrSet(attrs...))}
		c.key = attrs
		checkProject(t, fmt.Sprint(attrs), tab, tab, c, nil)
		if attrs[0] == "f" && len(attrs) == 2 && tiedGroups(t, tab, attrs) <= 12 {
			t.Fatalf("%v: too few tied groups to leave insertion sort", attrs)
		}
	}
}

// TestProjectDistinctValidation covers the argument errors.
func TestProjectDistinctValidation(t *testing.T) {
	tab := New(refineSchema())
	tab.MustInsert(Row{value.NewInt(1), value.NewString("a"), value.NewFloat(1)})
	one := relation.MustSchema("P", []relation.Attribute{{Name: "i", Type: value.KindInt}})
	if _, err := tab.ProjectDistinct(New(one), []string{"zz"}, nil, nil); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := tab.ProjectDistinct(New(one), []string{"i", "s"}, nil, nil); err == nil {
		t.Error("target arity mismatch accepted")
	}
	if _, err := tab.ProjectDistinct(New(one), []string{"i"}, []string{"s"}, nil); err == nil {
		t.Error("key outside the projection accepted")
	}
	str := relation.MustSchema("P", []relation.Attribute{{Name: "i", Type: value.KindString}})
	if _, err := tab.ProjectDistinct(New(str), []string{"i"}, nil, nil); err == nil {
		t.Error("target attribute of another type accepted")
	}
	full := New(one)
	full.MustInsert(Row{value.NewInt(5)})
	if _, err := tab.ProjectDistinct(full, []string{"i"}, nil, nil); err == nil {
		t.Error("non-empty target accepted")
	}
}

// TestProjectDistinctConcurrentSources is the -race gate for Restruct's
// fan-out: several ProjectDistinct calls run at once from one live
// source and from one lazily restored source whose deferred columns
// load inside the concurrent calls, each into its own target. Every
// target must equal the serial boxed reference.
func TestProjectDistinctConcurrentSources(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomDropSchema(rng)
		n := 50 + rng.Intn(250)
		tab := New(s)
		loadDropSource(tab, rand.New(rand.NewSource(seed)), dropRows(rng, s, n, 1+rng.Intn(n/2)), true)
		lazy := restoreLazy(t, tab)
		if lazy.PendingColumns() == 0 {
			t.Fatal("restoreLazy loaded every column; the test needs deferred sections")
		}
		cases := make([]projectCase, 6)
		want := make([]*Table, len(cases))
		wantErr := make([]string, len(cases))
		wantConflicts := make([]int, len(cases))
		for i := range cases {
			cases[i] = randomProjectCase(rng, s)
			cases[i].keep = nil // Restruct projects without a filter
			want[i] = New(cases[i].dst)
			k, err := projectReference(tab, want[i], cases[i].attrs, cases[i].key, nil)
			wantConflicts[i], wantErr[i] = k, errText(err)
		}
		got := make([]*Table, 2*len(cases))
		gotErr := make([]string, len(got))
		gotConflicts := make([]int, len(got))
		var wg sync.WaitGroup
		for i := range got {
			c, src := cases[i/2], tab
			if i%2 == 1 {
				src = lazy
			}
			got[i] = New(c.dst)
			wg.Add(1)
			go func() {
				defer wg.Done()
				k, err := src.ProjectDistinct(got[i], c.attrs, c.key, nil)
				gotConflicts[i], gotErr[i] = k, errText(err)
			}()
		}
		wg.Wait()
		for i := range got {
			label := fmt.Sprintf("seed %d case %d (lazy %v)", seed, i/2, i%2 == 1)
			if gotConflicts[i] != wantConflicts[i/2] || gotErr[i] != wantErr[i/2] {
				t.Fatalf("%s: (%d conflicts, %q), reference (%d, %q)", label, gotConflicts[i], gotErr[i], wantConflicts[i/2], wantErr[i/2])
			}
			if d := migratedDiff(t, want[i/2], got[i]); d != "" {
				t.Fatalf("%s: %s", label, d)
			}
		}
	}
}
