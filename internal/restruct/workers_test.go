package restruct

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/relation"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// Restruct projects each step's new relations on a worker pool. These
// tests pin that the pool changes nothing: Workers 1, 2 and 8 and the
// one-relation-at-a-time order (each split planned, populated from the
// tables as the previous drop left them, and committed before the next)
// give the same Result, catalog and extension, or the same error.

// restructCase is one randomized Restruct input over a fresh database.
type restructCase struct {
	db     *table.Database
	fds    []deps.FD
	hidden []relation.Ref
	inds   *deps.INDSet
}

// randomRestructCase builds 1–3 relations R<i>(k, a0..a<w-1>) keyed on k
// over small value domains, so FDs drawn at random are mostly dirty and
// enforced splits produce conflicts. Some rows repeat a key through
// InsertUnchecked, so an attribute drop's strict re-check can fail. The
// FDs and hidden objects are drawn over each relation's non-key
// attributes, so later FDs often name attributes an earlier split drops.
func randomRestructCase(seed int64) restructCase {
	rng := rand.New(rand.NewSource(seed))
	var schemas []*relation.Schema
	for r := 0; r < 1+rng.Intn(3); r++ {
		attrs := []relation.Attribute{{Name: "k", Type: value.KindInt}}
		for a := 0; a < 2+rng.Intn(4); a++ {
			typ := value.KindInt
			if rng.Intn(3) == 0 {
				typ = value.KindString
			}
			attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("a%d", a), Type: typ})
		}
		schemas = append(schemas, relation.MustSchema(fmt.Sprintf("R%d", r), attrs, relation.NewAttrSet("k")))
	}
	c := restructCase{db: table.NewDatabase(relation.MustCatalog(schemas...)), inds: deps.NewINDSet()}
	for _, s := range schemas {
		tab := c.db.MustTable(s.Name)
		n, dom := 1+rng.Intn(200), 1+rng.Intn(12)
		for i := 0; i < n; i++ {
			row := table.Row{value.NewInt(int64(i))}
			for _, a := range s.Attrs[1:] {
				switch v := rng.Intn(dom + 1); {
				case v == dom:
					row = append(row, value.Null)
				case a.Type == value.KindInt:
					row = append(row, value.NewInt(int64(v-dom/2)))
				default:
					row = append(row, value.NewString(fmt.Sprintf("s%d", v)))
				}
			}
			tab.MustInsert(row)
		}
		if rng.Intn(8) == 0 {
			dup := tab.Row(rng.Intn(n))
			tab.InsertUnchecked(dup)
		}
		nonKey := s.AttrSet().Minus(relation.NewAttrSet("k")).Names()
		pick := func() relation.AttrSet {
			var names []string
			for _, a := range nonKey {
				if rng.Intn(3) == 0 {
					names = append(names, a)
				}
			}
			if len(names) == 0 {
				names = append(names, nonKey[rng.Intn(len(nonKey))])
			}
			return relation.NewAttrSet(names...)
		}
		for f := rng.Intn(4); f > 0; f-- {
			lhs := pick()
			rhs := pick().Minus(lhs)
			if !rhs.IsEmpty() {
				c.fds = append(c.fds, deps.NewFD(s.Name, lhs, rhs))
			}
		}
		for h := rng.Intn(3); h > 0; h-- {
			c.hidden = append(c.hidden, relation.Ref{Rel: s.Name, Attrs: pick()})
		}
		if len(schemas) > 1 && rng.Intn(2) == 0 {
			a := nonKey[rng.Intn(len(nonKey))]
			c.inds.Add(deps.NewIND(deps.Side{Rel: s.Name, Attrs: []string{a}}, deps.Side{Rel: schemas[0].Name, Attrs: []string{"k"}}))
		}
	}
	return c
}

// runOneAtATime is Restruct in the one-relation-at-a-time order: each
// hidden object, then each FD in canonical order, runs as its own
// Restruct step, with the INDs carried from one to the next.
func runOneAtATime(c restructCase) (*Result, error) {
	ctx := context.Background()
	res, err := RunCtx(ctx, c.db, nil, c.hidden, c.inds, Opts{Workers: 1})
	if err != nil {
		return nil, err
	}
	fds := append([]deps.FD{}, c.fds...)
	deps.SortFDs(fds)
	for _, f := range fds {
		step, err := RunCtx(ctx, c.db, []deps.FD{f}, nil, res.INDs, Opts{Workers: 1})
		if err != nil {
			return nil, err
		}
		res.INDs, res.RIC, res.Keys = step.INDs, step.RIC, step.Keys
		res.NewRelations = append(res.NewRelations, step.NewRelations...)
		res.MappedFDs = append(res.MappedFDs, step.MappedFDs...)
		res.ConflictRows += step.ConflictRows
	}
	return res, nil
}

// restructOutcome renders a run's error, or its Result, catalog and
// extension, as text.
func restructOutcome(db *table.Database, res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "keys %v\ninds %v\nric %v\nnew %v\nmapped %v\nconflicts %d\n%s\n",
		res.Keys, res.INDs.Sorted(), res.RIC, res.NewRelations, res.MappedFDs, res.ConflictRows, db.Catalog().DDL())
	for _, name := range db.Catalog().Names() {
		tab := db.MustTable(name)
		fmt.Fprintf(&b, "%s: %d rows, version %d\n", name, tab.Len(), tab.Version())
		for i := 0; i < tab.Len(); i++ {
			fmt.Fprintf(&b, "  %v\n", tab.Row(i))
		}
	}
	return b.String()
}

// TestWorkersMatchOneAtATime runs randomized Restruct inputs on 1, 2 and
// 8 workers and in the one-at-a-time order. The sweep must reach dirty
// splits (conflicts), FDs whose attributes an earlier split removed, and
// failed attribute drops, or the comparison is vacuous.
func TestWorkersMatchOneAtATime(t *testing.T) {
	var conflicts, lacking, failedDrops int
	for seed := int64(0); seed < 150; seed++ {
		c := randomRestructCase(seed)
		ref, err := runOneAtATime(c)
		want := restructOutcome(c.db, ref, err)
		switch {
		case err == nil:
			conflicts += ref.ConflictRows
		case strings.Contains(err.Error(), "lacks attributes"):
			lacking++
		case strings.Contains(err.Error(), "restruct: projecting"):
			failedDrops++
		}
		for _, workers := range []int{1, 2, 8} {
			c := randomRestructCase(seed)
			res, err := RunCtx(context.Background(), c.db, c.fds, c.hidden, c.inds, Opts{Workers: workers})
			if got := restructOutcome(c.db, res, err); got != want {
				t.Fatalf("seed %d, %d workers:\n%s\none at a time:\n%s", seed, workers, got, want)
			}
		}
	}
	if conflicts == 0 || lacking == 0 || failedDrops == 0 {
		t.Errorf("sweep reached %d conflict rows, %d FDs over dropped attributes, %d failed drops; want all > 0",
			conflicts, lacking, failedDrops)
	}
}

// TestWorkersPipelineWorkloads compares Workers 1, 2 and 8 on generated
// legacy workloads taken through discovery, with an expert that
// conceptualizes NEIs, so both steps split several relations. (Generated
// workloads yield no conflicting split; TestWorkersMatchOneAtATime covers
// those.)
func TestWorkersPipelineWorkloads(t *testing.T) {
	splits := 0
	for seed := int64(30); seed < 36; seed++ {
		var want string
		for _, workers := range []int{1, 2, 8} {
			spec := workload.DefaultSpec(seed)
			spec.FactRows = 300
			spec.DimensionRows = 50
			spec.EmbedProb = 0.7
			spec.Corruption = 0.02
			w, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			res := drive(t, w.DB, w.Joins, expert.NewAuto(), workers)
			got := restructOutcome(w.DB, res, nil)
			if workers == 1 {
				want = got
				splits += len(res.MappedFDs)
			} else if got != want {
				t.Fatalf("seed %d: %d workers:\n%s\n1 worker:\n%s", seed, workers, got, want)
			}
		}
	}
	if splits < 6 {
		t.Errorf("%d FD splits over 6 workloads; want several per step to fan out", splits)
	}
}
