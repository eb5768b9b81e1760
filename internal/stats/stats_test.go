package stats_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// twoRelations builds a database with R(a,b,c) and S(x,y), R.a ⊆ S.x.
func twoRelations(t testing.TB) *table.Database {
	t.Helper()
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	})
	s := relation.MustSchema("S", []relation.Attribute{
		{Name: "x", Type: value.KindInt},
		{Name: "y", Type: value.KindString},
	}, relation.NewAttrSet("x"))
	cat, err := relation.NewCatalog(r, s)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	rt := db.MustTable("R")
	for _, row := range []table.Row{
		{value.NewInt(1), value.NewInt(10), value.NewString("u")},
		{value.NewInt(1), value.NewInt(20), value.NewString("v")},
		{value.NewInt(2), value.NewInt(10), value.NewString("u")},
		{value.NewInt(3), value.Null, value.NewString("w")},
		{value.Null, value.NewInt(30), value.NewString("w")},
	} {
		if err := rt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	st := db.MustTable("S")
	for i := int64(1); i <= 4; i++ {
		if err := st.Insert(table.Row{value.NewInt(i), value.NewString("d")}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// scanGroups is the test reference for every projection view: the rows
// of tab grouped by their NULL-free value combination over attrs, keyed
// canonically (value.AppendKey plus a 0x1f terminator per attribute),
// read with tab.Row(i) into plain maps.
func scanGroups(t testing.TB, tab *table.Table, attrs []string) map[string][]int32 {
	t.Helper()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := tab.ColIndex(a)
		if !ok {
			t.Fatalf("relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	groups := make(map[string][]int32)
rows:
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		var key []byte
		for _, c := range cols {
			if row[c].IsNull() {
				continue rows
			}
			key = append(row[c].AppendKey(key), 0x1f)
		}
		groups[string(key)] = append(groups[string(key)], int32(i))
	}
	return groups
}

func TestCacheCountsMatchDirectScans(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	for _, attrs := range [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}} {
		want := len(scanGroups(t, db.MustTable("R"), attrs))
		got, err := c.DistinctCount("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("DistinctCount(R, %v) = %d, direct scan = %d", attrs, got, want)
		}
	}
	// Joins and containments, including the mixed case of an integer
	// projection against a string one (keys of different kinds never
	// match) and a composite join.
	for _, j := range []struct {
		relK, relL string
		ak, al     []string
	}{
		{"R", "S", []string{"a"}, []string{"x"}},
		{"S", "R", []string{"x"}, []string{"a"}},
		{"R", "S", []string{"c"}, []string{"y"}},
		{"R", "S", []string{"a"}, []string{"y"}},
		{"R", "S", []string{"a", "c"}, []string{"x", "y"}},
	} {
		gk := scanGroups(t, db.MustTable(j.relK), j.ak)
		gl := scanGroups(t, db.MustTable(j.relL), j.al)
		wantJoin, wantIn := 0, true
		for k := range gk {
			if _, ok := gl[k]; ok {
				wantJoin++
			} else {
				wantIn = false
			}
		}
		gotJoin, err := c.JoinDistinctCount(j.relK, j.ak, j.relL, j.al)
		if err != nil {
			t.Fatal(err)
		}
		if gotJoin != wantJoin {
			t.Errorf("JoinDistinctCount(%s%v, %s%v) = %d, direct = %d", j.relK, j.ak, j.relL, j.al, gotJoin, wantJoin)
		}
		gotIn, err := c.ContainedIn(j.relK, j.ak, j.relL, j.al)
		if err != nil {
			t.Fatal(err)
		}
		if gotIn != wantIn {
			t.Errorf("ContainedIn(%s%v, %s%v) = %v, direct = %v", j.relK, j.ak, j.relL, j.al, gotIn, wantIn)
		}
	}
	// NULL-bearing rows are excluded from the projection, as in a direct
	// scan: R has 5 rows, one with NULL a and one with NULL b.
	if n, _ := c.NonNullRows("R", []string{"a"}); n != 4 {
		t.Errorf("NonNullRows(a) = %d, want 4", n)
	}
	if n, _ := c.NonNullRows("R", []string{"a", "b"}); n != 3 {
		t.Errorf("NonNullRows(a,b) = %d, want 3", n)
	}
}

// TestRowGroupsMatchGroupRows cross-checks the cache's projection views
// — GroupVector, GroupRows, KeySet — against a direct scan's row groups
// on both the int fast path ({a}) and the generic string encoding.
func TestRowGroupsMatchGroupRows(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	tab := db.MustTable("R")
	for _, attrs := range [][]string{{"a"}, {"c"}, {"a", "b"}, {"a", "b", "c"}} {
		want := scanGroups(t, tab, attrs)
		rg, n, _, err := c.GroupVector("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Errorf("GroupVector(%v) groups = %d, direct scan = %d", attrs, n, len(want))
		}
		if len(rg) != tab.Len() {
			t.Fatalf("GroupVector(%v) has %d entries for %d rows", attrs, len(rg), tab.Len())
		}
		starts, rows, err := c.GroupRows("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) != n+1 || int(starts[n]) != len(rows) {
			t.Fatalf("GroupRows(%v): %d starts ending at %d for %d groups of %d rows", attrs, len(starts), starts[len(starts)-1], n, len(rows))
		}
		// Each cached group must appear, row for row, in the scan.
		byFirst := make(map[int32][]int32)
		for _, g := range want {
			byFirst[g[0]] = g
		}
		for id := 0; id < n; id++ {
			g := rows[starts[id]:starts[id+1]]
			if len(g) == 0 {
				t.Fatalf("GroupRows(%v) group %d is empty", attrs, id)
			}
			ref := byFirst[g[0]]
			if len(ref) != len(g) {
				t.Fatalf("GroupRows(%v) group %d = %v, scan has %v", attrs, id, g, ref)
			}
			for j := range g {
				if g[j] != ref[j] {
					t.Fatalf("GroupRows(%v) group %d = %v, scan has %v", attrs, id, g, ref)
				}
			}
			for _, i := range g {
				if rg[i] != int32(id) {
					t.Fatalf("row %d is in group %d but GroupVector says %d", i, id, rg[i])
				}
			}
		}
		set, err := c.KeySet("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != len(want) {
			t.Errorf("KeySet(%v) has %d keys, want %d", attrs, len(set), len(want))
		}
		for k := range want {
			if _, ok := set[k]; !ok {
				t.Errorf("KeySet(%v) is missing scanned key %q", attrs, k)
			}
		}
	}
}

func TestCacheHitMissMetrics(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	if _, err := c.DistinctCount("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DistinctCount("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KeySet("R", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Hits != 2 {
		t.Errorf("metrics = %+v, want 1 miss / 2 hits", m)
	}
	// The key is order-sensitive: (a,b) and (b,a) are distinct entries.
	if _, err := c.DistinctCount("R", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DistinctCount("R", []string{"b", "a"}); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != 3 || m.Entries != 3 {
		t.Errorf("metrics after order-sensitive lookups = %+v", m)
	}
	if _, err := c.DistinctCount("nope", []string{"a"}); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestInsertInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	before, err := c.DistinctCount("S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if before != 4 {
		t.Fatalf("distinct x = %d, want 4", before)
	}
	if err := db.MustTable("S").Insert(table.Row{value.NewInt(99), value.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	after, err := c.DistinctCount("S", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if after != 5 {
		t.Errorf("distinct x after Insert = %d, want 5", after)
	}
	if m := c.Metrics(); m.Stale != 1 {
		t.Errorf("Stale = %d, want 1", m.Stale)
	}
}

// TestInsertUncheckedInvalidates also rebuilds multi-attribute entries
// over NULL-bearing rows: after the inserts every cached group vector
// must equal a direct projection of the grown extension.
func TestInsertUncheckedInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	tab := db.MustTable("R")
	lists := [][]string{{"a", "b"}, {"b", "a", "c"}}
	for _, attrs := range append(lists, []string{"b"}) {
		if _, err := c.DistinctCount("R", attrs); err != nil {
			t.Fatal(err)
		}
	}
	tab.InsertUnchecked(table.Row{value.NewInt(7), value.NewInt(777), value.NewString("z")})
	tab.InsertUnchecked(table.Row{value.NewInt(1), value.Null, value.NewString("z")})
	got, err := c.DistinctCount("R", []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tab.DistinctCount([]string{"b"})
	if got != want {
		t.Errorf("distinct b after InsertUnchecked = %d, want %d", got, want)
	}
	for _, attrs := range lists {
		rg, n, nn, err := c.GroupVector("R", attrs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := tab.Projection(attrs)
		if err != nil {
			t.Fatal(err)
		}
		if n != p.Len() || nn != p.NonNull || !slices.Equal(rg, p.RowGroup) {
			t.Errorf("GroupVector(%v) after InsertUnchecked = %v (%d groups, %d non-null), direct projection %v (%d, %d)",
				attrs, rg, n, nn, p.RowGroup, p.Len(), p.NonNull)
		}
	}
}

func TestDropAttrsInvalidates(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 4 {
		t.Fatalf("distinct x = %d, want 4", n)
	}
	// Restruct's FD-split drop: fresh schema and a fresh *Table whose
	// version (its row count) may well equal the old table's, so only the
	// pointer change can flag the entry stale.
	if err := db.DropAttrs("S", relation.NewAttrSet("y")); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 4 {
		t.Errorf("distinct x after DropAttrs = %d, want 4", n)
	}
	if m := c.Metrics(); m.Stale != 1 || m.Misses != 2 {
		t.Errorf("Stale/Misses = %d/%d, want 1/2 (rebuilt over the fresh table)", m.Stale, m.Misses)
	}
	if _, err := c.DistinctCount("S", []string{"y"}); err == nil {
		t.Error("dropped attribute still answered")
	}
}

func TestExplicitInvalidation(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	for _, a := range []string{"a", "b", "c"} {
		if _, err := c.DistinctCount("R", []string{a}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DistinctCount("S", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("R")
	m := c.Metrics()
	if m.Entries != 1 || m.Invalidations != 3 {
		t.Errorf("after Invalidate(R): %+v, want 1 entry / 3 invalidations", m)
	}
	c.InvalidateAll()
	m = c.Metrics()
	if m.Entries != 0 || m.Invalidations != 4 {
		t.Errorf("after InvalidateAll: %+v, want 0 entries / 4 invalidations", m)
	}
	// Dropped entries rebuild correctly.
	if n, _ := c.DistinctCount("S", []string{"x"}); n != 4 {
		t.Errorf("rebuilt distinct x = %d, want 4", n)
	}
}

func TestCacheKeySeparatorCollisions(t *testing.T) {
	// The cache key is length-prefixed, so splits of the same concatenated
	// bytes must not share an entry: ("R", [ab,c]) vs ("R", [a,bc]) vs
	// ("Ra", [b,c]) all spell "Rabc" when naively joined.
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindString},
		{Name: "b", Type: value.KindString},
		{Name: "c", Type: value.KindString},
		{Name: "ab", Type: value.KindString},
		{Name: "bc", Type: value.KindString},
	})
	ra := relation.MustSchema("Ra", []relation.Attribute{
		{Name: "b", Type: value.KindString},
		{Name: "c", Type: value.KindString},
	})
	cat, err := relation.NewCatalog(r, ra)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	rt := db.MustTable("R")
	for i := 0; i < 4; i++ {
		// a,bc repeat pairwise (2 distinct pairs); ab,c are all distinct.
		rt.MustInsert(table.Row{
			value.NewString("a" + string(rune('0'+i%2))),
			value.NewString("b"),
			value.NewString("c" + string(rune('0'+i))),
			value.NewString("ab" + string(rune('0'+i))),
			value.NewString("bc" + string(rune('0'+i%2))),
		})
	}
	rat := db.MustTable("Ra")
	rat.MustInsert(table.Row{value.NewString("u"), value.NewString("v")})
	// ("a", "0b") spells R's ("a0", "b") when its values are naively
	// concatenated; the value keys are self-delimiting, so they differ.
	rat.MustInsert(table.Row{value.NewString("a"), value.NewString("0b")})

	c := stats.NewCache(db)
	nAB, err := c.DistinctCount("R", []string{"ab", "c"})
	if err != nil {
		t.Fatal(err)
	}
	nA, err := c.DistinctCount("R", []string{"a", "bc"})
	if err != nil {
		t.Fatal(err)
	}
	if nAB != 4 || nA != 2 {
		t.Errorf("DistinctCount(R,[ab c]) = %d, (R,[a bc]) = %d; want 4 and 2", nAB, nA)
	}
	nRa, err := c.DistinctCount("Ra", []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if nRa != 2 {
		t.Errorf("DistinctCount(Ra,[b c]) = %d, want 2", nRa)
	}
	if n, err := c.JoinDistinctCount("R", []string{"a", "b"}, "Ra", []string{"b", "c"}); err != nil || n != 0 {
		t.Errorf("JoinDistinctCount(R[a b], Ra[b c]) = %d, %v; want 0", n, err)
	}
	// Invalidating R must not evict Ra's entry: "Ra" is not a segment-wise
	// prefix of itself under R's length-prefixed key.
	before := c.Metrics()
	c.Invalidate("R")
	if _, err := c.DistinctCount("Ra", []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	if after.Hits != before.Hits+1 {
		t.Errorf("Invalidate(R) evicted Ra's entry: hits %d -> %d", before.Hits, after.Hits)
	}
}

func TestEvictionBound(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	stats.SetMaxEntries(c, 2)
	projections := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}}
	for _, p := range projections {
		want, _ := db.MustTable("R").DistinctCount(p)
		got, err := c.DistinctCount("R", p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("DistinctCount(R, %v) = %d, want %d", p, got, want)
		}
	}
	m := c.Metrics()
	if m.Entries > 2 {
		t.Errorf("Entries = %d, bound is 2", m.Entries)
	}
	if m.Evictions < 3 {
		t.Errorf("Evictions = %d, want ≥ 3", m.Evictions)
	}
}

func TestConcurrentLookups(t *testing.T) {
	db := twoRelations(t)
	c := stats.NewCache(db)
	projections := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"}}
	want := make([]int, len(projections))
	for i, p := range projections {
		want[i], _ = db.MustTable("R").DistinctCount(p)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, p := range projections {
					got, err := c.DistinctCount("R", p)
					if err != nil {
						errc <- err
						return
					}
					if got != want[i] {
						t.Errorf("concurrent DistinctCount(R, %v) = %d, want %d", p, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// 16 goroutines × 20 rounds × 6 projections, only 6 builds.
	if m := c.Metrics(); m.Misses != uint64(len(projections)) {
		t.Errorf("Misses = %d, want %d (duplicate builds must coalesce)", m.Misses, len(projections))
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			visited := make([]int32, n)
			var mu sync.Mutex
			stats.ForEach(n, workers, func(i int) {
				mu.Lock()
				visited[i]++
				mu.Unlock()
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestArenaZeroInvariant pins the AcquireInts contract: every handout is
// all-zero, at any requested length, including buffers recycled after a
// holder dirtied them and re-zeroed its window.
func TestArenaZeroInvariant(t *testing.T) {
	c := stats.NewCache(twoRelations(t))
	rng := rand.New(rand.NewSource(5))
	held := [][]int32{}
	for op := 0; op < 200; op++ {
		if len(held) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(held))
			clear(held[i])
			c.ReleaseCleanInts(held[i])
			held = append(held[:i], held[i+1:]...)
			continue
		}
		n := 1 + rng.Intn(500)
		buf := c.AcquireInts(n)
		if len(buf) != n {
			t.Fatalf("AcquireInts(%d) returned len %d", n, len(buf))
		}
		for j, v := range buf {
			if v != 0 {
				t.Fatalf("AcquireInts(%d)[%d] = %d, want 0", n, j, v)
			}
		}
		for j := range buf {
			buf[j] = int32(rng.Intn(1000)) + 1 // dirty it
		}
		held = append(held, buf)
	}
}

// TestAllNullNonIntegerColumns: a column holding only NULLs used to be
// int-flavored whatever its type (no non-integer value had been seen);
// the flavor now comes from the attribute's type, so an all-NULL
// VARCHAR, FLOAT, BOOLEAN or DATE column has an empty key dictionary.
// Every count over it must be what the definitions give — and what the
// int-flavored empty dictionary gave: ‖r[X]‖ = 0, no shared values in
// any join, contained in everything, containing only the empty set.
func TestAllNullNonIntegerColumns(t *testing.T) {
	r := relation.MustSchema("R", []relation.Attribute{
		{Name: "s", Type: value.KindString},
		{Name: "f", Type: value.KindFloat},
		{Name: "b", Type: value.KindBool},
		{Name: "d", Type: value.KindDate},
		{Name: "n", Type: value.KindInt},
	})
	v := relation.MustSchema("V", []relation.Attribute{
		{Name: "i", Type: value.KindInt},
		{Name: "t", Type: value.KindString},
	})
	cat, err := relation.NewCatalog(r, v)
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(cat)
	for i := 0; i < 3; i++ {
		db.MustTable("R").MustInsert(table.Row{value.Null, value.Null, value.Null, value.Null, value.Null})
		db.MustTable("V").MustInsert(table.Row{value.NewInt(int64(i)), value.NewString("x")})
	}
	c := stats.NewCache(db)
	for _, a := range []string{"s", "f", "b", "d", "n"} {
		if n, err := c.DistinctCount("R", []string{a}); err != nil || n != 0 {
			t.Errorf("DistinctCount(R.%s) = %d, %v; want 0", a, n, err)
		}
		for _, other := range []struct{ rel, attr string }{{"V", "i"}, {"V", "t"}, {"R", "n"}, {"R", "s"}} {
			for _, swap := range []bool{false, true} {
				relK, ak, relL, al := "R", a, other.rel, other.attr
				if swap {
					relK, ak, relL, al = relL, al, relK, ak
				}
				if n, err := c.JoinDistinctCount(relK, []string{ak}, relL, []string{al}); err != nil || n != 0 {
					t.Errorf("JoinDistinctCount(%s.%s, %s.%s) = %d, %v; want 0", relK, ak, relL, al, n, err)
				}
				want := relK == "R" // an empty set is contained in every set; V's are not empty
				if ok, err := c.ContainedIn(relK, []string{ak}, relL, []string{al}); err != nil || ok != want {
					t.Errorf("ContainedIn(%s.%s ≪ %s.%s) = %v, %v; want %v", relK, ak, relL, al, ok, err, want)
				}
			}
		}
		if n, err := c.JoinDistinctCount("R", []string{a, "n"}, "V", []string{"t", "i"}); err != nil || n != 0 {
			t.Errorf("JoinDistinctCount(R.%s n, V.t i) = %d, %v; want 0", a, n, err)
		}
	}
}
