package fd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// Differential tests for the FD check kernels: the dense joint-count
// kernel (CheckStats), its grouped sparse fallback (checkStatsSparse),
// and the direct row scan (referenceCheck) must agree on support counts
// for every candidate dependency, over NULL-bearing randomized tables,
// under both partition-refinement remapping strategies, and across the
// dense-budget fallback boundary.

// referenceCheck is the kernel reference: a direct scan of the table
// grouping tuples by their left-hand-side value string. Tuples with a
// NULL in the left-hand side are skipped; a NULL right-hand side is one
// regular value. Violations are the tuples outside their group's
// majority right-hand-side value.
func referenceCheck(tab *table.Table, lhs []string, rhs string) (expert.FDSupport, error) {
	cols := make([]int, len(lhs))
	for i, a := range lhs {
		c, ok := tab.ColIndex(a)
		if !ok {
			return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	rcol, ok := tab.ColIndex(rhs)
	if !ok {
		return expert.FDSupport{}, fmt.Errorf("fd: relation %s has no attribute %q", tab.Schema().Name, rhs)
	}
	groups := make(map[string]map[string]int) // lhs key → rhs value counts
	rows := 0
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		var key strings.Builder
		hasNull := false
		for _, c := range cols {
			if row[c].IsNull() {
				hasNull = true
				break
			}
			key.WriteString(row[c].Key())
			key.WriteByte(0x1f)
		}
		if hasNull {
			continue
		}
		rows++
		k := key.String()
		if groups[k] == nil {
			groups[k] = make(map[string]int)
		}
		groups[k][row[rcol].Key()]++
	}
	violations := 0
	for _, counts := range groups {
		total, max := 0, 0
		for _, n := range counts {
			total += n
			if n > max {
				max = n
			}
		}
		violations += total - max
	}
	return expert.FDSupport{Rows: rows, Violations: violations}, nil
}

// kernelDB builds R(a,b,c,d) where a/b/c are small-domain NULL-bearing
// columns (the dense regime) and d is near-unique (with wide to force
// the over-budget fallback to the sparse kernel).
func kernelDB(tb testing.TB, seed int64, nrows int, wide bool) *table.Database {
	tb.Helper()
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
		{Name: "d", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nrows; i++ {
		draw := func(dom int) value.Value {
			if rng.Intn(6) == 0 {
				return value.Null
			}
			return value.NewInt(int64(rng.Intn(dom)))
		}
		str := value.Value(value.Null)
		if rng.Intn(6) != 0 {
			str = value.NewString(fmt.Sprintf("s%d", rng.Intn(4)))
		}
		d := value.Value(value.NewInt(int64(i)))
		if !wide {
			d = draw(9)
		}
		tab.InsertUnchecked(table.Row{draw(8), draw(5), str, d})
	}
	return db
}

// kernelCandidates enumerates the dependencies under test; rhs "c" and
// "b" carry NULLs, lhs lists mix nullable attributes and composites.
var kernelCandidates = []struct {
	lhs []string
	rhs string
}{
	{[]string{"a"}, "b"},
	{[]string{"a"}, "c"},
	{[]string{"b"}, "a"},
	{[]string{"a", "b"}, "c"},
	{[]string{"c", "a"}, "b"},
	{[]string{"d"}, "a"},
	{[]string{"a", "d"}, "b"},
	{[]string{"a", "b", "c"}, "d"},
}

func compareKernels(t *testing.T, db *table.Database, label string) {
	t.Helper()
	tab := db.MustTable("R")
	cache := stats.NewCache(db)
	for _, cand := range kernelCandidates {
		want, err := referenceCheck(tab, cand.lhs, cand.rhs)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := checkStatsSparse(cache, "R", cand.lhs, cand.rhs)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := CheckStats(cache, "R", cand.lhs, cand.rhs)
		if err != nil {
			t.Fatal(err)
		}
		if sparse != want {
			t.Errorf("%s: checkStatsSparse(%v -> %s) = %+v, row scan says %+v",
				label, cand.lhs, cand.rhs, sparse, want)
		}
		if dense != want {
			t.Errorf("%s: CheckStats(%v -> %s) = %+v, row scan says %+v",
				label, cand.lhs, cand.rhs, dense, want)
		}
	}
}

// TestCheckKernelDifferential sweeps randomized tables through all three
// check kernels under both refinement remapping strategies.
func TestCheckKernelDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := kernelDB(t, seed, 80+int(seed)*23, false)
			for _, budget := range []int64{-1, 0} {
				prev := table.SetRefineDenseBudget(budget)
				compareKernels(t, db, fmt.Sprintf("budget %d", budget))
				table.SetRefineDenseBudget(prev)
			}
		})
	}
}

// TestCheckKernelFallbackBoundary uses a near-unique column so that
// candidates involving d overflow the dense joint-count budget
// (nLHS × (nRHS+1) > 4n + 2^16) and exercise CheckStats's fallback to
// the sparse kernel, while the small-domain candidates in the same
// sweep stay on the dense path.
func TestCheckKernelFallbackBoundary(t *testing.T) {
	db := kernelDB(t, 77, 400, true)
	// Sanity-check the budget really is exceeded for the widest pair:
	// d near-unique against itself-scale domains.
	tab := db.MustTable("R")
	pd, err := tab.Projection([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	if int64(pd.Len())*int64(pd.Len()+1) <= int64(checkDenseSlack*tab.Len()+checkDenseFloor) {
		t.Fatalf("fixture too small to cross the dense budget: %d groups over %d rows", pd.Len(), tab.Len())
	}
	compareKernels(t, db, "fallback")
	// And the same candidates with d as the RHS: wide stride.
	cache := stats.NewCache(db)
	for _, lhs := range [][]string{{"d"}, {"a", "d"}} {
		want, err := referenceCheck(tab, lhs, "d")
		if err != nil {
			t.Fatal(err)
		}
		got, err := CheckStats(cache, "R", lhs, "d")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CheckStats(%v -> d) = %+v, row scan says %+v", lhs, got, want)
		}
	}
}
