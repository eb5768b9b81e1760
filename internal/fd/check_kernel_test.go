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

// Differential tests for the FD check: CheckStats and the direct row
// scan (referenceCheck) must agree on support counts for every candidate
// dependency, over NULL-bearing randomized tables, under both
// partition-refinement remapping strategies, and on a near-unique column
// as left- and right-hand side.

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
// columns, and d is one too or, with wide, unique.
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

// kernelCandidate is one dependency lhs → rhs under test.
type kernelCandidate struct {
	lhs []string
	rhs string
}

// kernelCandidates enumerates the dependencies under test; rhs "c" and
// "b" carry NULLs, lhs lists mix nullable attributes and composites.
var kernelCandidates = []kernelCandidate{
	{[]string{"a"}, "b"},
	{[]string{"a"}, "c"},
	{[]string{"b"}, "a"},
	{[]string{"a", "b"}, "c"},
	{[]string{"c", "a"}, "b"},
	{[]string{"d"}, "a"},
	{[]string{"a", "d"}, "b"},
	{[]string{"a", "b", "c"}, "d"},
}

// compareKernels checks every candidate through CheckStats against the
// row scan, over a fresh cache.
func compareKernels(t *testing.T, db *table.Database, label string, cands []kernelCandidate) {
	t.Helper()
	tab := db.MustTable("R")
	cache := stats.NewCache(db)
	for _, cand := range cands {
		want, err := referenceCheck(tab, cand.lhs, cand.rhs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CheckStats(cache, "R", cand.lhs, cand.rhs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: CheckStats(%v -> %s) = %+v, row scan says %+v",
				label, cand.lhs, cand.rhs, got, want)
		}
	}
}

// TestCheckKernelDifferential sweeps randomized tables through CheckStats
// under both refinement remapping strategies, then a wide table whose
// unique d gives as many groups as rows, with d as left- and right-hand
// side.
func TestCheckKernelDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := kernelDB(t, seed, 80+int(seed)*23, false)
			for _, budget := range []int64{-1, 0} {
				prev := table.SetRefineDenseBudget(budget)
				compareKernels(t, db, fmt.Sprintf("budget %d", budget), kernelCandidates)
				table.SetRefineDenseBudget(prev)
			}
		})
	}
	t.Run("wide", func(t *testing.T) {
		wide := append([]kernelCandidate{{[]string{"d"}, "d"}, {[]string{"a", "d"}, "d"}, {[]string{"a"}, "d"}}, kernelCandidates...)
		compareKernels(t, kernelDB(t, 77, 400, true), "wide", wide)
	})
}
