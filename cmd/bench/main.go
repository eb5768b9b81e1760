// Command bench regenerates every experiment of EXPERIMENTS.md: the
// exact-reproduction artifacts E1–E7 (the paper's worked example, checked
// against the expected sets) and the quantitative tables B1–B17
// (query-guided vs exhaustive discovery, scalability, corruption sweeps,
// the statistics cache, the columnar storage engine and its refinement
// kernels, parallel batched ingest, the FD sketch triage, snapshot
// persistence vs cold re-ingest, incremental re-validation vs full
// re-discovery under live appends, and the job server's resident dataset
// pool vs cold per-job serving).
//
// Usage:
//
//	bench -run all            # everything
//	bench -run E3,B2          # a selection
//	bench -list               # show the experiment registry
//	bench -run B14 -json out.json  # also write machine-readable results
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dbre"
	"dbre/internal/appscan"
	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/obs"
	"dbre/internal/paperex"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func(io.Writer) error
}

// curMetrics and curExact collect the machine-readable figures of the
// experiment currently running; run functions publish into them via
// record and recordExact, and the -json writer emits them alongside the
// wall time.
var curMetrics, curExact map[string]float64

func record(name string, v float64) {
	if curMetrics != nil {
		curMetrics[name] = v
	}
}

// recordExact publishes a deterministic work counter (cache hits,
// extension queries, kernel steps): cmd/perfgate requires it to equal
// the baseline exactly.
func recordExact(name string, v float64) {
	if curExact != nil {
		curExact[name] = v
	}
}

// jsonResult is the -json record of one experiment run.
type jsonResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Exact   map[string]float64 `json:"exact,omitempty"`
}

func registry() []experiment {
	return []experiment{
		{"E1", "Section 5 constraint sets K and N", runE1},
		{"E2", "Section 5 equi-join set Q from application programs", runE2},
		{"E3", "Section 6.1 inclusion dependencies (IND-Discovery)", runE3},
		{"E4", "Section 6.2.1 candidate LHS and hidden objects", runE4},
		{"E5", "Section 6.2.2 functional dependencies and final H", runE5},
		{"E6", "Section 7 restructured 3NF schema and RIC", runE6},
		{"E7", "Figure 1 EER schema (Translate)", runE7},
		{"B1", "IND-Discovery scalability in |E| and |Q|", runB1},
		{"B2", "query-guided vs exhaustive IND discovery", runB2},
		{"B3", "grouped vs naive FD check", runB3},
		{"B4", "RHS-Discovery vs TANE-style exhaustive FD discovery", runB4},
		{"B5", "application-program scanning throughput", runB5},
		{"B6", "end-to-end pipeline scalability and recovery quality", runB6},
		{"B7", "corruption sweep: NEIs, expert load, recall", runB7},
		{"B8", "Restruct+Translate cost vs dependency count", runB8},
		{"B9", "column-statistics cache: serial cached counting kernels and their exact work", runB9},
		{"B11", "observability layer: tracing overhead, disabled-path allocations", runB11},
		{"B12", "refinement kernel overhaul: dense remapping, pooled scratch", runB12},
		{"B13", "parallel batched ingest: chunked loaders, columnar appender, dictionary merge", runB13},
		{"B14", "FD sketch triage: row-sample refutation vs exact-only RHS-Discovery", runB14},
		{"B15", "persistence: cold CSV re-ingest vs warm snapshot boot and lazy column loading", runB15},
		{"B16", "incremental discovery: delta re-validation vs full re-discovery after a 1% append", runB16},
		{"B17", "resident dataset pool: cold per-job serving vs warm cross-job cache sharing", runB17},
		{"A1", "ablation: transitive equality closure on/off", runA1},
		{"A2", "ablation: auto-expert inclusion slack sweep on dirty data", runA2},
		{"A3", "ablation: key inference on keyless dictionaries", runA3},
	}
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	runList := fs.String("run", "all", "comma-separated experiment ids, or all")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonPath := fs.String("json", "", "also write results as JSON to this file")
	tracePath := fs.String("trace", "", "write a JSON execution trace (one span per experiment) to this file")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address while experiments run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	exps := registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-3s %s\n", e.id, e.title)
		}
		return
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = obs.NewTracer("bench")
	}
	if *debugAddr != "" {
		obs.Publish("bench.obs", tracer)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-debug-addr: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		srv := &http.Server{Handler: obs.DebugMux()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("debug server on http://%s/debug/vars and /debug/pprof/\n", ln.Addr())
	}
	want := map[string]bool{}
	all := *runList == "all"
	for _, id := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	ran := 0
	var results []jsonResult
	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		ran++
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		curMetrics, curExact = map[string]float64{}, map[string]float64{}
		sp := tracer.Root().StartChild(e.id)
		start := time.Now()
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		sp.End()
		wall := time.Since(start)
		fmt.Printf("--- %s done in %v ---\n", e.id, wall.Round(time.Millisecond))
		results = append(results, jsonResult{
			ID: e.id, Title: e.title,
			WallMS:  float64(wall.Microseconds()) / 1000,
			Metrics: curMetrics,
			Exact:   curExact,
		})
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; use -list")
		os.Exit(2)
	}
	if *tracePath != "" {
		tracer.Finish()
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\ntrace written to %s\n", *tracePath)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding -json results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d result(s) to %s\n", len(results), *jsonPath)
	}
}

// compare prints got vs want line sets with a PASS/FAIL verdict.
func compare(w io.Writer, label string, got, want []string) error {
	sort.Strings(got)
	sort.Strings(want)
	ok := len(got) == len(want)
	if ok {
		for i := range got {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s (%d items) [%s]\n", label, len(got), verdict)
	for _, g := range got {
		fmt.Fprintf(w, "  %s\n", g)
	}
	if !ok {
		fmt.Fprintf(w, "expected:\n")
		for _, x := range want {
			fmt.Fprintf(w, "  %s\n", x)
		}
		return fmt.Errorf("%s does not match the paper", label)
	}
	return nil
}

func runE1(w io.Writer) error {
	db, err := dbre.LoadSQL(paperex.DDL)
	if err != nil {
		return err
	}
	var ks []string
	for _, k := range db.Catalog().Keys() {
		ks = append(ks, k.String())
	}
	if err := compare(w, "K", ks, []string{
		"Assignment.{dep, emp, proj}", "Department.dep", "HEmployee.{date, no}", "Person.id",
	}); err != nil {
		return err
	}
	var ns []string
	for _, n := range db.Catalog().NotNulls() {
		ns = append(ns, n.String())
	}
	return compare(w, "N", ns, []string{
		"Assignment.dep", "Assignment.emp", "Assignment.proj",
		"Department.dep", "Department.location",
		"HEmployee.date", "HEmployee.no", "Person.id",
	})
}

func runE2(w io.Writer) error {
	db := paperex.Database()
	q, rep := dbre.ScanPrograms(db, paperex.Programs)
	fmt.Fprintf(w, "scanned %d programs (%d statements, %d parse failures)\n",
		rep.FilesScanned, rep.StatementsFound, rep.ParseFailures)
	var got []string
	for _, j := range q.Sorted() {
		got = append(got, j.String())
	}
	var want []string
	for _, j := range paperex.Q().Sorted() {
		want = append(want, j.String())
	}
	return compare(w, "Q", got, want)
}

// paperRun drives the scripted paper session through the pipeline.
func paperRun() (*core.Report, error) {
	db := paperex.Database()
	return core.RunWithQ(db, paperex.Q(), core.Options{Oracle: paperex.Oracle()}, nil)
}

func runE3(w io.Writer) error {
	db := paperex.Database()
	res, err := ind.DiscoverCtx(context.Background(), db, paperex.Q(), paperex.Oracle(), ind.Opts{})
	if err != nil {
		return err
	}
	for _, o := range res.Outcomes {
		fmt.Fprintf(w, "  %s\n", o)
	}
	var got []string
	for _, d := range res.INDs.Sorted() {
		got = append(got, d.String())
	}
	return compare(w, "IND", got, paperex.ExpectedINDs())
}

func runE4(w io.Writer) error {
	rep, err := paperRun()
	if err != nil {
		return err
	}
	var lhs []string
	for _, l := range rep.LHS.LHS {
		lhs = append(lhs, l.String())
	}
	if err := compare(w, "LHS", lhs, paperex.ExpectedLHS()); err != nil {
		return err
	}
	var h []string
	for _, x := range rep.LHS.Hidden {
		h = append(h, x.String())
	}
	return compare(w, "H (after LHS-Discovery)", h, paperex.ExpectedHAfterLHS())
}

func runE5(w io.Writer) error {
	rep, err := paperRun()
	if err != nil {
		return err
	}
	var fds []string
	for _, f := range rep.RHS.FDs {
		fds = append(fds, f.String())
	}
	if err := compare(w, "F", fds, paperex.ExpectedFDs()); err != nil {
		return err
	}
	var h []string
	for _, x := range rep.RHS.Hidden {
		h = append(h, x.String())
	}
	return compare(w, "H (final)", h, paperex.ExpectedHFinal())
}

func runE6(w io.Writer) error {
	db := paperex.Database()
	rep, err := core.RunWithQ(db, paperex.Q(), core.Options{Oracle: paperex.Oracle()}, nil)
	if err != nil {
		return err
	}
	var schemas []string
	for _, s := range db.Catalog().Schemas() {
		schemas = append(schemas, s.String())
	}
	if err := compare(w, "restructured schema", schemas, paperex.ExpectedSchemas()); err != nil {
		return err
	}
	var ric []string
	for _, d := range rep.Restruct.RIC {
		ric = append(ric, d.String())
	}
	return compare(w, "RIC", ric, paperex.ExpectedRIC())
}

func runE7(w io.Writer) error {
	rep, err := paperRun()
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.EER.Text())
	var ent []string
	for _, e := range rep.EER.Entities {
		name := e.Name
		if e.Weak {
			name += " (weak)"
		}
		ent = append(ent, name)
	}
	if err := compare(w, "entity-types", ent, []string{
		"Ass-Dept", "Department", "Employee", "HEmployee (weak)",
		"Manager", "Other-Dept", "Person", "Project",
	}); err != nil {
		return err
	}
	var rel []string
	for _, r := range rep.EER.Relationships {
		rel = append(rel, fmt.Sprintf("%s/%d-ary", r.Name, len(r.Participants)))
	}
	if err := compare(w, "relationship-types", rel, []string{
		"Assignment/3-ary", "Department-Manager/2-ary", "Manager-Project/2-ary",
	}); err != nil {
		return err
	}
	var isa []string
	for _, l := range rep.EER.ISA {
		isa = append(isa, l.Sub+" is-a "+l.Super)
	}
	return compare(w, "is-a links", isa, []string{
		"Ass-Dept is-a Department", "Ass-Dept is-a Other-Dept",
		"Employee is-a Person", "Manager is-a Employee",
	})
}

// printTable prints an aligned table.
func printTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func mustWorkload(spec workload.Spec) *workload.Workload {
	w, err := workload.Generate(spec)
	if err != nil {
		panic(err)
	}
	return w
}

func runB1(w io.Writer) error {
	var rows [][]string
	for _, tuples := range []int{1000, 10000, 100000} {
		spec := workload.DefaultSpec(42)
		spec.FactRows = tuples
		wl := mustWorkload(spec)
		q, _ := dbre.ScanPrograms(wl.DB, wl.Programs)
		start := time.Now()
		res, err := ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(tuples), fmt.Sprint(q.Len()), fmt.Sprint(res.INDs.Len()),
			fmt.Sprint(res.ExtensionQueries), time.Since(start).Round(time.Microsecond).String(),
		})
	}
	printTable(w, []string{"tuples/fact", "|Q|", "INDs", "ext queries", "wall"}, rows)
	rows = nil
	for _, facts := range []int{2, 8, 16} {
		spec := workload.DefaultSpec(42)
		spec.Facts = facts
		spec.Dimensions = facts + 2
		spec.FactRows = 5000
		wl := mustWorkload(spec)
		q, _ := dbre.ScanPrograms(wl.DB, wl.Programs)
		start := time.Now()
		res, err := ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(facts), fmt.Sprint(q.Len()), fmt.Sprint(res.INDs.Len()),
			fmt.Sprint(res.ExtensionQueries), time.Since(start).Round(time.Microsecond).String(),
		})
	}
	printTable(w, []string{"facts", "|Q|", "INDs", "ext queries", "wall"}, rows)
	return nil
}

func runB2(w io.Writer) error {
	var rows [][]string
	for _, dims := range []int{4, 8, 16} {
		spec := workload.DefaultSpec(42)
		spec.Dimensions = dims
		spec.FactRows = 10000
		wl := mustWorkload(spec)
		q, _ := dbre.ScanPrograms(wl.DB, wl.Programs)

		start := time.Now()
		guided, err := ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{})
		if err != nil {
			return err
		}
		guidedTime := time.Since(start)

		start = time.Now()
		exh, err := ind.DiscoverBaseline(wl.DB, ind.DefaultBaselineOptions())
		if err != nil {
			return err
		}
		exhTime := time.Since(start)

		missed := 0
		for _, d := range guided.INDs.All() {
			if !exh.INDs.Contains(d) {
				missed++
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(dims),
			fmt.Sprint(guided.ExtensionQueries), guidedTime.Round(time.Microsecond).String(),
			fmt.Sprint(exh.CandidatesTested), fmt.Sprint(ind.CandidateSpace(wl.DB)),
			exhTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", float64(exhTime)/float64(guidedTime)),
			fmt.Sprint(missed),
		})
	}
	printTable(w, []string{"dims", "guided queries", "guided wall",
		"exh tests", "exh space", "exh wall", "speedup", "guided∖exh"}, rows)
	fmt.Fprintln(w, "  (guided∖exh = guided findings the exhaustive run missed; expect 0)")
	return nil
}

func runB3(w io.Writer) error {
	var rows [][]string
	for _, tuples := range []int{100, 1000, 10000, 100000} {
		db := makeFDDatabase(tuples)
		start := time.Now()
		if _, err := fd.CheckStats(stats.NewCache(db), "R", []string{"a"}, "b"); err != nil {
			return err
		}
		grouped := time.Since(start)
		naive := time.Duration(0)
		if tuples <= 10000 {
			start = time.Now()
			if _, err := checkNaive(db.MustTable("R"), []string{"a"}, "b"); err != nil {
				return err
			}
			naive = time.Since(start)
		}
		naiveStr := "skipped"
		if naive > 0 {
			naiveStr = naive.Round(time.Microsecond).String()
		}
		rows = append(rows, []string{fmt.Sprint(tuples),
			grouped.Round(time.Microsecond).String(), naiveStr})
	}
	printTable(w, []string{"tuples", "grouped check", "naive check"}, rows)
	fmt.Fprintln(w, "  (grouped = fd.CheckStats through a fresh statistics cache, build included)")
	return nil
}

func runB4(w io.Writer) error {
	var rows [][]string
	for _, dims := range []int{4, 6, 8} {
		spec := workload.DefaultSpec(42)
		spec.Dimensions = dims
		spec.FactRows = 5000
		wl := mustWorkload(spec)
		var lhs []relation.Ref
		for _, l := range wl.Truth.Links {
			lhs = append(lhs, relation.NewRef(l.Fact, l.FK))
		}
		start := time.Now()
		guided, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{})
		if err != nil {
			return err
		}
		gTime := time.Since(start)
		start = time.Now()
		tane, err := fd.DiscoverBaselineAll(wl.DB, fd.BaselineOptions{MaxLHS: 2})
		if err != nil {
			return err
		}
		tTime := time.Since(start)
		rows = append(rows, []string{
			fmt.Sprint(dims),
			fmt.Sprint(guided.ExtensionChecks), fmt.Sprint(len(guided.FDs)),
			gTime.Round(time.Microsecond).String(),
			fmt.Sprint(tane.CandidatesTested), fmt.Sprint(len(tane.FDs)),
			tTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", float64(tTime)/float64(gTime)),
		})
	}
	printTable(w, []string{"dims", "guided checks", "guided FDs", "guided wall",
		"TANE tests", "TANE FDs", "TANE wall", "speedup"}, rows)
	fmt.Fprintln(w, "  (TANE finds every minimal FD incl. coincidences; guided finds the navigated ones)")
	return nil
}

func runB5(w io.Writer) error {
	var rows [][]string
	for _, per := range []int{1, 4, 16} {
		spec := workload.DefaultSpec(7)
		spec.ProgramsPerJoin = per
		spec.FactRows = 10
		wl := mustWorkload(spec)
		bytes := 0
		for _, src := range wl.Programs {
			bytes += len(src)
		}
		start := time.Now()
		q, rep := dbre.ScanPrograms(wl.DB, wl.Programs)
		wall := time.Since(start)
		mbps := float64(bytes) / wall.Seconds() / 1e6
		rows = append(rows, []string{
			fmt.Sprint(len(wl.Programs)), fmt.Sprint(bytes),
			fmt.Sprint(rep.StatementsFound), fmt.Sprint(q.Len()),
			wall.Round(time.Microsecond).String(), fmt.Sprintf("%.1f", mbps),
		})
	}
	printTable(w, []string{"programs", "bytes", "statements", "|Q|", "wall", "MB/s"}, rows)
	return nil
}

func runB6(w io.Writer) error {
	var rows [][]string
	for _, tuples := range []int{1000, 10000, 50000} {
		spec := workload.DefaultSpec(42)
		spec.FactRows = tuples
		wl := mustWorkload(spec)
		auto := expert.NewAuto()
		auto.ConceptualizeNEI = false
		start := time.Now()
		rep, err := core.Run(wl.DB, wl.Programs, core.Options{Oracle: auto, TransitiveClosure: true})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		score := core.Evaluate(rep, wl.Truth)
		rows = append(rows, []string{
			fmt.Sprint(tuples), wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", score.INDPrecision), fmt.Sprintf("%.2f", score.INDRecall),
			fmt.Sprintf("%.2f", score.FDPrecision), fmt.Sprintf("%.2f", score.FDRecall),
			fmt.Sprintf("%.2f", score.HiddenRecall),
		})
	}
	printTable(w, []string{"tuples/fact", "wall", "IND P", "IND R", "FD P", "FD R", "hidden R"}, rows)
	return nil
}

func runB7(w io.Writer) error {
	var rows [][]string
	for _, pct := range []float64{0, 0.001, 0.01, 0.05} {
		spec := workload.DefaultSpec(42)
		spec.Corruption = pct
		// Strict expert: refuses to force anything.
		wlStrict := mustWorkload(spec)
		repS, err := core.Run(wlStrict.DB, wlStrict.Programs, core.Options{Oracle: expert.Deny{}, TransitiveClosure: true})
		if err != nil {
			return err
		}
		sS := core.Evaluate(repS, wlStrict.Truth)
		// Tolerant expert: forces near-inclusions.
		wlTol := mustWorkload(spec)
		auto := expert.NewAuto()
		auto.InclusionSlack = 0.90
		auto.ConceptualizeNEI = false
		repT, err := core.Run(wlTol.DB, wlTol.Programs, core.Options{Oracle: auto, TransitiveClosure: true})
		if err != nil {
			return err
		}
		sT := core.Evaluate(repT, wlTol.Truth)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", pct*100),
			fmt.Sprint(sS.ExpertConsultations),
			fmt.Sprintf("%.2f", sS.INDRecall),
			fmt.Sprintf("%.2f", sT.INDRecall),
			fmt.Sprintf("%.2f", sT.FDRecall),
		})
	}
	printTable(w, []string{"corruption", "NEI escalations", "IND R (strict)", "IND R (tolerant)", "FD R"}, rows)
	return nil
}

func runB8(w io.Writer) error {
	var rows [][]string
	for _, dims := range []int{8, 16, 32} {
		spec := workload.DefaultSpec(42)
		spec.Dimensions = dims
		spec.Facts = dims / 2
		spec.FKsPerFact = 3
		spec.FactRows = 2000
		spec.EmbedProb = 0.9
		wl := mustWorkload(spec)
		rep, err := core.Run(wl.DB, wl.Programs, core.Options{Oracle: expert.Deny{}, TransitiveClosure: true})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(dims),
			fmt.Sprint(len(rep.RHS.FDs)), fmt.Sprint(rep.IND.INDs.Len()),
			fmt.Sprint(len(rep.Restruct.RIC)),
			rep.Timings["restruct"].Round(time.Microsecond).String(),
			rep.Timings["translate"].Round(time.Microsecond).String(),
		})
	}
	printTable(w, []string{"dims", "FDs", "INDs", "RICs", "restruct wall", "translate wall"}, rows)
	return nil
}

// runB9 times IND-Discovery and RHS-Discovery through a fresh
// column-statistics cache on the 100k-fact-tuple workload of
// EXPERIMENTS.md B9, serially so the figures isolate the cache from
// parallelism. The wall times are gated with perfgate's tolerance; the
// cache hits/misses, extension queries and FD checks of the same legs
// are deterministic and gated exactly.
func runB9(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	wl := mustWorkload(spec)
	q, _ := dbre.ScanPrograms(wl.DB, wl.Programs)
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}

	// Each leg runs once untimed through a throwaway cache first, so the
	// timed pass (fresh cache, same warm process state) measures the
	// counting kernels rather than first-touch costs.
	indLeg := func(cache *stats.Cache) (*ind.Result, error) {
		return ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{Stats: cache})
	}
	rhsLeg := func(cache *stats.Cache) (*fd.Result, error) {
		return fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache})
	}
	if _, err := indLeg(stats.NewCache(wl.DB)); err != nil {
		return err
	}
	indCache := stats.NewCache(wl.DB)
	start := time.Now()
	indRes, err := indLeg(indCache)
	if err != nil {
		return err
	}
	indWall := time.Since(start)

	if _, err := rhsLeg(stats.NewCache(wl.DB)); err != nil {
		return err
	}
	rhsCache := stats.NewCache(wl.DB)
	start = time.Now()
	rhsRes, err := rhsLeg(rhsCache)
	if err != nil {
		return err
	}
	rhsWall := time.Since(start)

	im, rm := indCache.Metrics(), rhsCache.Metrics()
	printTable(w, []string{"phase", "cached wall", "stats hits", "stats misses", "extension work"}, [][]string{
		{"IND-Discovery", indWall.Round(time.Microsecond).String(), fmt.Sprint(im.Hits), fmt.Sprint(im.Misses),
			fmt.Sprintf("%d distinct queries", indRes.ExtensionQueries)},
		{"RHS-Discovery", rhsWall.Round(time.Microsecond).String(), fmt.Sprint(rm.Hits), fmt.Sprint(rm.Misses),
			fmt.Sprintf("%d FD checks", rhsRes.ExtensionChecks)},
	})
	record("ind_cached_ms", float64(indWall.Microseconds())/1000)
	record("rhs_cached_ms", float64(rhsWall.Microseconds())/1000)
	recordExact("ind_stats_hits", float64(im.Hits))
	recordExact("ind_stats_misses", float64(im.Misses))
	recordExact("distinct_queries", float64(indRes.ExtensionQueries))
	recordExact("rhs_stats_hits", float64(rm.Hits))
	recordExact("rhs_stats_misses", float64(rm.Misses))
	recordExact("fd_checks", float64(rhsRes.ExtensionChecks))
	return nil
}

// runB11 measures the cost of the observability layer on the composite-key
// RHS workload (100k fact tuples, composite-key dimensions, heavy
// embedding):
// median-of-5 RHS-Discovery wall time with tracing disabled (plain
// context) vs enabled (tracer in the context plus counters on the
// statistics cache), and the allocation count of the disabled
// instrumentation path, which must be zero — the layer's contract, also
// pinned by internal/obs/alloc_test.go. The measured overhead is tiny
// relative to scheduler jitter, so deltas inside the observed noise band
// (the relative spread of each leg's samples) are reported as noise
// instead of as a signed percentage — a best-of comparison used to print
// absurdities like "-18.82% overhead".
func runB11(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.CompositeDims = 3
	spec.EmbedProb = 0.9
	wl := mustWorkload(spec)
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	sample := func(traced bool) ([]time.Duration, int, error) {
		walls := make([]time.Duration, 0, 5)
		fds := 0
		for i := 0; i < cap(walls); i++ {
			ctx := context.Background()
			cache := stats.NewCache(wl.DB)
			if traced {
				tr := obs.NewTracer("b11")
				ctx = obs.NewContext(ctx, tr)
				cache.SetTracer(tr)
			}
			start := time.Now()
			out, err := fd.DiscoverRHSCtx(ctx, wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache})
			if err != nil {
				return nil, 0, err
			}
			walls = append(walls, time.Since(start))
			fds = len(out.FDs)
		}
		return walls, fds, nil
	}
	offWalls, offFDs, err := sample(false)
	if err != nil {
		return err
	}
	onWalls, onFDs, err := sample(true)
	if err != nil {
		return err
	}
	if offFDs != onFDs {
		return fmt.Errorf("B11: tracing changed the result: %d vs %d FDs", offFDs, onFDs)
	}
	offWall, offSpread := medianSpread(offWalls)
	onWall, onSpread := medianSpread(onWalls)
	overhead := (float64(onWall)/float64(offWall) - 1) * 100
	noiseBand := offSpread
	if onSpread > noiseBand {
		noiseBand = onSpread
	}

	// Disabled-path allocations: a hot loop of no-op spans and guarded
	// counter increments on an untraced context.
	const ops = 100000
	ctx := context.Background()
	var nilTracer *obs.Tracer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	m0 := m.Mallocs
	for i := 0; i < ops; i++ {
		sctx, sp := obs.StartSpan(ctx, "noop")
		_, child := obs.StartSpan(sctx, "noop-child")
		child.SetInt("i", int64(i))
		child.End()
		sp.End()
		nilTracer.Add(obs.CtrFDChecks, 1)
	}
	runtime.ReadMemStats(&m)
	allocsPerOp := float64(m.Mallocs-m0) / ops

	printTable(w, []string{"mode", "RHS wall (median of 5)", "FDs"}, [][]string{
		{"tracing disabled", offWall.Round(time.Microsecond).String(), fmt.Sprint(offFDs)},
		{"tracing enabled", onWall.Round(time.Microsecond).String(), fmt.Sprint(onFDs)},
	})
	reported := overhead
	if overhead < noiseBand {
		// A delta inside the samples' own spread — in either direction —
		// is not a measured overhead; clamp it rather than report jitter
		// as a (possibly negative) cost.
		reported = 0
		fmt.Fprintf(w, "  enabled-tracing overhead within measurement noise (delta %+.2f%%, noise band ±%.2f%%; target < 2%%)\n",
			overhead, noiseBand)
	} else {
		fmt.Fprintf(w, "  enabled-tracing overhead %.2f%% (noise band ±%.2f%%, target < 2%%)\n", overhead, noiseBand)
	}
	fmt.Fprintf(w, "  disabled-path instrumentation: %.4f allocs/op over %d ops (target 0)\n", allocsPerOp, ops)
	record("untraced_ms", float64(offWall.Microseconds())/1000)
	record("traced_ms", float64(onWall.Microseconds())/1000)
	record("overhead_pct", reported)
	record("overhead_raw_pct", overhead)
	record("noise_band_pct", noiseBand)
	record("disabled_allocs_per_op", allocsPerOp)
	return nil
}

// medianSpread returns the median of the samples and their relative
// spread — (max − min) / median, as a percentage — the noise band a
// wall-time delta must clear before it means anything.
func medianSpread(walls []time.Duration) (time.Duration, float64) {
	s := append([]time.Duration(nil), walls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	med := s[len(s)/2]
	spread := float64(s[len(s)-1]-s[0]) / float64(med) * 100
	return med, spread
}

// runB12 is the refinement kernel-overhaul ablation on the composite-key
// RHS workload (100k fact tuples, three composite-key dimensions, heavy
// embedding, single-core): RHS-Discovery through the statistics cache
// with the pre-overhaul map-only partition refinement versus the
// overhauled stack (dense direct-addressed remapping, pooled scratch);
// the legs differ only by remapping strategy. Both legs
// check FDs with the same grouped kernel (fd.CheckStats), are median-of-5
// with a fresh cache per run and must elicit identical FDs. The
// steady-state allocation count of the refinement kernel itself is
// measured alongside (target 0), and the overhauled run's kernel mix is
// recorded as exact counters; scripts/perfgate.sh compares the -json
// output of this experiment against the checked-in BENCH_B12.json.
func runB12(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.CompositeDims = 3
	spec.EmbedProb = 0.9
	wl := mustWorkload(spec)
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	measure := func(preOverhaul bool) (time.Duration, int, error) {
		if preOverhaul {
			prev := table.SetRefineDenseBudget(0) // force the map strategy
			defer table.SetRefineDenseBudget(prev)
		}
		walls := make([]time.Duration, 0, 5)
		fds := 0
		for i := 0; i < cap(walls); i++ {
			cache := stats.NewCache(wl.DB)
			runtime.GC()
			start := time.Now()
			out, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache})
			if err != nil {
				return 0, 0, err
			}
			walls = append(walls, time.Since(start))
			fds = len(out.FDs)
		}
		med, _ := medianSpread(walls)
		return med, fds, nil
	}
	baseWall, baseFDs, err := measure(true)
	if err != nil {
		return err
	}
	kernWall, kernFDs, err := measure(false)
	if err != nil {
		return err
	}
	if baseFDs != kernFDs {
		return fmt.Errorf("B12: kernel paths disagree: pre-overhaul found %d FDs, overhauled %d", baseFDs, kernFDs)
	}

	// Kernel mix of one overhauled run, from the observability counters.
	tr := obs.NewTracer("b12")
	cache := stats.NewCache(wl.DB)
	cache.SetTracer(tr)
	if _, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache}); err != nil {
		return err
	}
	denseSteps := tr.Count(obs.CtrRefineDense)
	mapSteps := tr.Count(obs.CtrRefineMap)

	// Steady-state refinement allocations: a warmed Refiner stepping over
	// a 100k-row vector must not allocate at all.
	const rows = 100000
	g := make([]int32, rows)
	codes := make([]int32, rows)
	dst := make([]int32, rows)
	for i := range g {
		g[i] = int32(i % 160)
		codes[i] = int32(i % 13)
	}
	var ref table.Refiner
	ref.Step(dst, g, codes, 160, 13) // warm the scratch
	const ops = 50
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	m0 := m.Mallocs
	for i := 0; i < ops; i++ {
		ref.Step(dst, g, codes, 160, 13)
	}
	runtime.ReadMemStats(&m)
	refineAllocs := float64(m.Mallocs-m0) / ops

	printTable(w, []string{"kernel stack", "RHS wall (median of 5)", "FDs"}, [][]string{
		{"pre-overhaul (map remap)", baseWall.Round(time.Microsecond).String(), fmt.Sprint(baseFDs)},
		{"overhauled (dense remap)", kernWall.Round(time.Microsecond).String(), fmt.Sprint(kernFDs)},
	})
	speedup := float64(baseWall) / float64(kernWall)
	fmt.Fprintf(w, "  kernel speedup %.2fx (information only: the pre-overhaul leg differs by remapping strategy alone)\n", speedup)
	fmt.Fprintf(w, "  refinement steps: %d dense, %d map\n", denseSteps, mapSteps)
	fmt.Fprintf(w, "  steady-state refinement: %.4f allocs/op over %d steps (target 0)\n", refineAllocs, ops)
	record("baseline_rhs_ms", float64(baseWall.Microseconds())/1000)
	record("kernel_rhs_ms", float64(kernWall.Microseconds())/1000)
	record("kernel_speedup", speedup)
	record("refine_allocs_per_op", refineAllocs)
	recordExact("refine_dense_steps", float64(denseSteps))
	recordExact("refine_map_steps", float64(mapSteps))
	return nil
}

// makeFDDatabase builds a one-relation database R(a,b,c) with `tuples`
// rows where a → b holds.
func makeFDDatabase(tuples int) *table.Database {
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindInt},
	})
	db := table.NewDatabase(relation.MustCatalog(s))
	tab := db.MustTable("R")
	for i := 0; i < tuples; i++ {
		tab.MustInsert(table.Row{
			value.NewInt(int64(i % 500)),
			value.NewInt(int64(i % 500 * 3)),
			value.NewInt(int64(i)),
		})
	}
	return db
}

// checkNaive tests lhs → rhs by comparing every pair of tuples — the
// textbook O(n²) definition, B3's baseline. Tuples with a NULL in the
// left-hand side are skipped; a tuple is violating when an earlier tuple
// agrees with it on lhs and differs on rhs, which approximates the
// majority-based violation count of fd.CheckStats (holds/fails and the
// row count agree exactly).
func checkNaive(tab *table.Table, lhs []string, rhs string) (expert.FDSupport, error) {
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
	sameLHS := func(a, b table.Row) bool {
		for _, c := range cols {
			if a[c].IsNull() || b[c].IsNull() || !a[c].Equal(b[c]) {
				return false
			}
		}
		return true
	}
	rows := 0
	violating := make(map[int]bool)
	n := tab.Len()
	// Materialize every tuple once up front: the pairwise loop reads each
	// row n times, and every read would decode it again.
	mat := make([]table.Row, n)
	for i := 0; i < n; i++ {
		mat[i] = tab.Row(i)
	}
	for i := 0; i < n; i++ {
		ri := mat[i]
		nullLHS := false
		for _, c := range cols {
			if ri[c].IsNull() {
				nullLHS = true
			}
		}
		if nullLHS {
			continue
		}
		rows++
		for j := i + 1; j < n; j++ {
			if rj := mat[j]; sameLHS(ri, rj) && !ri[rcol].Equal(rj[rcol]) {
				violating[j] = true
			}
		}
	}
	return expert.FDSupport{Rows: rows, Violations: len(violating)}, nil
}

// runA1 measures the effect of transitive equality closure: with chains
// a=b AND b=c in the programs, closure adds the implied joins (and thus
// IND candidates) for free.
func runA1(w io.Writer) error {
	var rows [][]string
	for _, closure := range []bool{false, true} {
		spec := workload.DefaultSpec(42)
		spec.FactRows = 2000
		wl := mustWorkload(spec)
		// Add a chain program: two facts referencing the same surviving
		// dimension, joined through it.
		var chainL, chainR workload.Link
		found := false
		for i, a := range wl.Truth.Links {
			if a.Dropped {
				continue
			}
			for _, b := range wl.Truth.Links[i+1:] {
				if !b.Dropped && a.Dim == b.Dim && a.Fact != b.Fact {
					chainL, chainR, found = a, b, true
				}
			}
		}
		if !found {
			fmt.Fprintln(w, "  (no shared surviving dimension in this seed; chain skipped)")
		} else {
			wl.Programs["chain.sql"] = fmt.Sprintf(
				"SELECT x.%s FROM %s x, %s d, %s y WHERE x.%s = d.%s AND d.%s = y.%s;",
				chainL.FK, chainL.Fact, chainL.Dim, chainR.Fact,
				chainL.FK, chainL.DimKey, chainR.DimKey, chainR.FK)
		}
		var snippets []appscan.Snippet
		var rep appscan.Report
		names := make([]string, 0, len(wl.Programs))
		for n := range wl.Programs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			snippets = append(snippets, appscan.ScanSource(n, wl.Programs[n], &rep)...)
		}
		ex := appscan.NewExtractor(wl.DB.Catalog())
		ex.TransitiveClosure = closure
		q := ex.ExtractQ(snippets)
		res, err := ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(closure), fmt.Sprint(q.Len()), fmt.Sprint(res.INDs.Len()),
		})
	}
	printTable(w, []string{"closure", "|Q|", "INDs"}, rows)
	fmt.Fprintln(w, "  (closure materializes the implied fact-fact join of every")
	fmt.Fprintln(w, "   a=b AND b=c chain, yielding extra interrelation evidence)")
	return nil
}

// runA2 sweeps the auto expert's near-inclusion threshold on a corrupted
// extension: stricter thresholds refuse to overrule the data and lose
// recall; looser ones force more INDs, trading in precision risk.
func runA2(w io.Writer) error {
	var rows [][]string
	for _, slack := range []float64{1.0, 0.99, 0.95, 0.90, 0.75} {
		spec := workload.DefaultSpec(42)
		spec.Corruption = 0.02
		wl := mustWorkload(spec)
		auto := expert.NewAuto()
		auto.InclusionSlack = slack
		auto.ConceptualizeNEI = false
		rep, err := core.Run(wl.DB, wl.Programs, core.Options{Oracle: auto, TransitiveClosure: true})
		if err != nil {
			return err
		}
		score := core.Evaluate(rep, wl.Truth)
		forced := 0
		for _, o := range rep.IND.Outcomes {
			if o.Case == ind.CaseNEIForced {
				forced++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", slack), fmt.Sprint(forced),
			fmt.Sprintf("%.2f", score.INDPrecision), fmt.Sprintf("%.2f", score.INDRecall),
		})
	}
	printTable(w, []string{"slack", "forced INDs", "IND P", "IND R"}, rows)
	return nil
}

// runA3 strips every declared key from the paper schema and reruns the
// session with data-driven key inference.
func runA3(w io.Writer) error {
	db := paperex.Database()
	bare := db.Catalog().Clone()
	for _, s := range bare.Schemas() {
		s.Uniques = nil
	}
	db2 := table.NewDatabase(bare)
	for _, name := range bare.Names() {
		from := db.MustTable(name)
		to := db2.MustTable(name)
		for i := 0; i < from.Len(); i++ {
			if err := to.Insert(from.Row(i)); err != nil {
				return err
			}
		}
	}
	rep, err := core.RunWithQ(db2, paperex.Q(),
		core.Options{Oracle: paperex.Oracle(), InferKeys: true}, nil)
	if err != nil {
		return err
	}
	var inferred []string
	for _, k := range rep.InferredKeys {
		inferred = append(inferred, k.String())
	}
	fmt.Fprintf(w, "inferred keys on the keyless dictionary:\n")
	for _, k := range inferred {
		fmt.Fprintf(w, "  %s\n", k)
	}
	fmt.Fprintf(w, "pipeline then elicits %d INDs, %d FDs, %d RICs\n",
		rep.IND.INDs.Len(), len(rep.RHS.FDs), len(rep.Restruct.RIC))
	if len(inferred) != 4 {
		return fmt.Errorf("expected 4 inferred keys, got %v", inferred)
	}
	return nil
}

// dbStateEqual compares two databases through the exported columnar
// engine surface: row counts, versions, code vectors and dictionaries.
func dbStateEqual(a, b *table.Database) error {
	for _, name := range a.Catalog().Names() {
		ta, tb := a.MustTable(name), b.MustTable(name)
		if ta.Len() != tb.Len() || ta.Version() != tb.Version() {
			return fmt.Errorf("%s: rows/version %d/%d vs %d/%d",
				name, ta.Len(), ta.Version(), tb.Len(), tb.Version())
		}
		for c := range ta.Schema().Attrs {
			ca, cb := ta.ColumnCodes(c), tb.ColumnCodes(c)
			for i := range ca {
				if ca[i] != cb[i] {
					return fmt.Errorf("%s col %d row %d: code %d vs %d", name, c, i, ca[i], cb[i])
				}
			}
			da, db := ta.ColumnDict(c), tb.ColumnDict(c)
			if len(da) != len(db) {
				return fmt.Errorf("%s col %d: dict %d vs %d", name, c, len(da), len(db))
			}
			for i := range da {
				if !da[i].Equal(db[i]) {
					return fmt.Errorf("%s col %d dict %d: %v vs %v", name, c, i, da[i], db[i])
				}
			}
		}
	}
	return nil
}

// runB13 measures the batched parallel ingest path end to end: the B12
// extension (100k fact tuples) is stored as CSV once, then loaded one
// relation at a time and with 8 relations at once, each relation one
// chunk; the two loads must produce bit-identical engine state (codes,
// dictionaries, versions, violation counts — the csvio differential
// harness pins the same equivalence per input). The speedup figure is
// informational: it reflects however many cores the benchmark machine
// actually has (the relation fan-out serializes on a single-core box). The steady-state appender allocation figure is
// deterministic and gated by scripts/perfgate.sh against BENCH_B13.json,
// and so are the chunk and merge-remap counts of the parallel load, as
// exact counters.
func runB13(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0.02
	wl := mustWorkload(spec)
	dir, err := os.MkdirTemp("", "dbre-b13-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := csvio.StoreDirCtx(context.Background(), wl.DB, dir, csvio.Options{Parallelism: 8}); err != nil {
		return err
	}

	measure := func(opt csvio.Options) (time.Duration, *table.Database, int, error) {
		walls := make([]time.Duration, 0, 5)
		var db *table.Database
		viol := 0
		for i := 0; i < cap(walls); i++ {
			db = table.NewDatabase(wl.DB.Catalog().Clone())
			runtime.GC()
			start := time.Now()
			v, err := csvio.LoadDirCtx(context.Background(), db, dir, false, opt)
			if err != nil {
				return 0, nil, 0, err
			}
			walls = append(walls, time.Since(start))
			viol = v
		}
		med, _ := medianSpread(walls)
		return med, db, viol, nil
	}
	serialWall, serialDB, serialViol, err := measure(csvio.Options{})
	if err != nil {
		return err
	}
	parWall, parDB, parViol, err := measure(csvio.Options{Parallelism: 8})
	if err != nil {
		return err
	}
	if parViol != serialViol {
		return fmt.Errorf("B13: violation counts diverged: serial %d, parallel %d", serialViol, parViol)
	}
	if err := dbStateEqual(serialDB, parDB); err != nil {
		return fmt.Errorf("B13: parallel load diverged from serial: %w", err)
	}

	// Ingest observability of one parallel load.
	tr := obs.NewTracer("b13")
	ctx := obs.NewContext(context.Background(), tr)
	db := table.NewDatabase(wl.DB.Catalog().Clone())
	if _, err := csvio.LoadDirCtx(ctx, db, dir, false, csvio.Options{Parallelism: 8}); err != nil {
		return err
	}
	chunks := tr.Count(obs.CtrIngestChunks)
	remaps := tr.Count(obs.CtrIngestMergeRemaps)
	viols := tr.Count(obs.CtrIngestViolations)

	// Steady-state appender allocations: a warmed table absorbing batches
	// of already-interned values must only pay amortized code-vector
	// growth (same measurement as TestAllocsAppendBatchSteady).
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "c", Type: value.KindString},
	})
	tab := table.New(s)
	const batch = 256
	rows := make([]table.Row, batch)
	for i := range rows {
		rows[i] = table.Row{
			value.NewInt(int64(i % 17)),
			value.NewInt(int64(i % 5)),
			value.NewString([]string{"x", "y", "z"}[i%3]),
		}
	}
	enc := table.NewChunkEncoder(tab)
	ap := tab.NewAppender()
	appendOnce := func() error {
		enc.Reset()
		for _, r := range rows {
			if err := enc.AppendRow(r); err != nil {
				return err
			}
		}
		_, err := ap.AppendBatch(enc, false)
		return err
	}
	// Warm dictionaries and scratch. The first batch is adopted by the
	// empty table, which leaves the encoder without storage, so the
	// second one warms the encoder.
	for i := 0; i < 2; i++ {
		if err := appendOnce(); err != nil {
			return err
		}
	}
	const ops = 200
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	m0 := m.Mallocs
	for i := 0; i < ops; i++ {
		if err := appendOnce(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m)
	appendAllocs := float64(m.Mallocs-m0) / ops

	speedup := float64(serialWall) / float64(parWall)
	printTable(w, []string{"ingest path", "LoadDir wall (median of 5)", "violations"}, [][]string{
		{"serial (1 worker, batch merge)", serialWall.Round(time.Microsecond).String(), fmt.Sprint(serialViol)},
		{"parallel (8 workers, batch merge)", parWall.Round(time.Microsecond).String(), fmt.Sprint(parViol)},
	})
	fmt.Fprintf(w, "  load speedup %.2fx on %d CPU(s) (scales with cores; identical state either way)\n",
		speedup, runtime.NumCPU())
	fmt.Fprintf(w, "  ingest: %d chunks, %d dictionary remaps, %d violations tolerated\n", chunks, remaps, viols)
	fmt.Fprintf(w, "  steady-state appender: %.4f allocs per %d-row batch\n", appendAllocs, batch)
	record("serial_load_ms", float64(serialWall.Microseconds())/1000)
	record("parallel_load_ms", float64(parWall.Microseconds())/1000)
	record("load_speedup", speedup)
	recordExact("ingest_chunks", float64(chunks))
	recordExact("ingest_merge_remaps", float64(remaps))
	record("append_allocs_per_op", appendAllocs)
	return nil
}

// runB14 measures the FD triage (fd.Opts.Sketch) on the near-miss
// workload of EXPERIMENTS.md B14: 100k fact tuples whose fact relations
// carry 16 far-miss attributes each (per-attribute disjoint value ranges)
// and 2 near-miss attributes (one shared range salted with rare
// sentinels). RHS-Discovery runs exact-only and triaged, with a
// support-insensitive expert so the row-sample refutation is live; the
// results must be bit-identical — the triage only skips checks whose
// outcome is proven. scripts/perfgate.sh compares the -json output
// against the checked-in BENCH_B14.json.
func runB14(w io.Writer) error {
	spec := workload.Spec{
		Seed:              42,
		Dimensions:        4,
		Facts:             4,
		FKsPerFact:        2,
		AttrsPerDimension: 2,
		DimensionRows:     2000,
		FactRows:          25000, // 4 fact relations ⇒ 100k fact tuples
		ProgramsPerJoin:   1,
		FarMissAttrs:      16,
		NearMissAttrs:     2,
		NearMissNoise:     0.002,
	}
	wl := mustWorkload(spec)

	// Row samples are built on demand by their first reader; build every
	// one up front so the pass is priced separately.
	buildStart := time.Now()
	for _, name := range wl.DB.Catalog().Names() {
		wl.DB.MustTable(name).SampleRows()
	}
	buildWall := time.Since(buildStart)

	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	start := time.Now()
	rhsEx, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: stats.NewCache(wl.DB)})
	if err != nil {
		return err
	}
	rhsExWall := time.Since(start)
	ftr := obs.NewTracer("b14-rhs")
	start = time.Now()
	rhsSk, err := fd.DiscoverRHSCtx(obs.NewContext(context.Background(), ftr), wl.DB, lhs, nil,
		expert.Deny{}, fd.Opts{Stats: stats.NewCache(wl.DB), Sketch: true})
	if err != nil {
		return err
	}
	rhsSkWall := time.Since(start)
	if fmt.Sprint(rhsEx.FDs) != fmt.Sprint(rhsSk.FDs) ||
		fmt.Sprint(rhsEx.Hidden) != fmt.Sprint(rhsSk.Hidden) ||
		rhsEx.ExtensionChecks != rhsSk.ExtensionChecks {
		return fmt.Errorf("B14: sketch-triaged RHS-Discovery diverged from exact-only")
	}
	rhsPruned := ftr.Count(obs.CtrSketchPrunes)

	printTable(w, []string{"leg", "exact", "sketch", "tests exact", "escalated", "pruned"}, [][]string{
		{"RHS-Discovery", rhsExWall.Round(time.Microsecond).String(), rhsSkWall.Round(time.Microsecond).String(),
			fmt.Sprint(rhsEx.ExtensionChecks), fmt.Sprint(ftr.Count(obs.CtrSketchEscalations)), fmt.Sprint(rhsPruned)},
	})
	fmt.Fprintf(w, "  row-sample build: %v for every relation (built on first read in production), results identical\n",
		buildWall.Round(time.Microsecond))
	record("sketch_build_ms", float64(buildWall.Microseconds())/1000)
	record("rhs_exact_ms", float64(rhsExWall.Microseconds())/1000)
	record("rhs_sketch_ms", float64(rhsSkWall.Microseconds())/1000)
	recordExact("rhs_sketch_pruned", float64(rhsPruned))
	return nil
}

// runB15 measures disk persistence against cold re-ingest: the B13
// extension (100k fact tuples, 2% corruption) is loaded once, snapshotted
// (docs/storage-format.md), and then the two boot paths race over a
// median of 5 — cold CSV re-ingest through the 8-worker parallel loader
// vs warm storage.Open with full preload. The restored engine state must
// be bit-identical to the ingested one, and the warm boot must beat cold
// re-ingest by at least 5x (enforced here; the wall times are also gated
// by scripts/perfgate.sh against BENCH_B15.json). The lazy-open figure is
// the job server's warm start: footer + metadata only, every column
// section left on disk until a discovery kernel touches it.
func runB15(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0.02
	wl := mustWorkload(spec)
	dir, err := os.MkdirTemp("", "dbre-b15-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	csvDir := filepath.Join(dir, "csv")
	snapDir := filepath.Join(dir, "snap")
	if err := csvio.StoreDirCtx(context.Background(), wl.DB, csvDir, csvio.Options{Parallelism: 8}); err != nil {
		return err
	}

	// The reference ingest both boot paths must reproduce exactly.
	ref := table.NewDatabase(wl.DB.Catalog().Clone())
	viol, err := csvio.LoadDirCtx(context.Background(), ref, csvDir, false, csvio.Options{Parallelism: 8})
	if err != nil {
		return err
	}
	if err := storage.Snapshot(ref, snapDir); err != nil {
		return err
	}
	snapStat, err := os.Stat(filepath.Join(snapDir, "snapshot.dbre"))
	if err != nil {
		return err
	}

	coldWalls := make([]time.Duration, 0, 5)
	var coldDB *table.Database
	for i := 0; i < cap(coldWalls); i++ {
		coldDB = table.NewDatabase(wl.DB.Catalog().Clone())
		runtime.GC()
		start := time.Now()
		if _, err := csvio.LoadDirCtx(context.Background(), coldDB, csvDir, false, csvio.Options{Parallelism: 8}); err != nil {
			return err
		}
		coldWalls = append(coldWalls, time.Since(start))
	}
	coldWall, _ := medianSpread(coldWalls)

	warmWalls := make([]time.Duration, 0, 5)
	var warmDB *table.Database
	for i := 0; i < cap(warmWalls); i++ {
		runtime.GC()
		start := time.Now()
		db, info, err := storage.OpenCtx(context.Background(), snapDir, storage.Options{Preload: true})
		if err != nil {
			return err
		}
		warmWalls = append(warmWalls, time.Since(start))
		if err := info.Close(); err != nil {
			return err
		}
		warmDB = db
	}
	warmWall, _ := medianSpread(warmWalls)

	// Lazy open: the footer, catalog and per-relation metadata only.
	lazyWalls := make([]time.Duration, 0, 5)
	lazyCols := 0
	for i := 0; i < cap(lazyWalls); i++ {
		runtime.GC()
		start := time.Now()
		_, info, err := storage.Open(snapDir)
		if err != nil {
			return err
		}
		lazyWalls = append(lazyWalls, time.Since(start))
		lazyCols = info.LazyColumns
		if err := info.Close(); err != nil {
			return err
		}
	}
	lazyWall, _ := medianSpread(lazyWalls)

	if err := dbStateEqual(ref, warmDB); err != nil {
		return fmt.Errorf("B15: warm boot diverged from the ingested state: %w", err)
	}
	speedup := float64(coldWall) / float64(warmWall)
	printTable(w, []string{"boot path", "wall (median of 5)", "state"}, [][]string{
		{"cold CSV re-ingest (8 workers)", coldWall.Round(time.Microsecond).String(), fmt.Sprintf("%d violations re-derived", viol)},
		{"warm snapshot boot (preload)", warmWall.Round(time.Microsecond).String(), "bit-identical, violations persisted"},
		{"lazy snapshot open (metadata)", lazyWall.Round(time.Microsecond).String(), fmt.Sprintf("%d column sections on disk", lazyCols)},
	})
	fmt.Fprintf(w, "  warm boot %.1fx faster than cold re-ingest (target ≥ 5x); snapshot %d bytes, CRC-verified on open\n",
		speedup, snapStat.Size())
	if speedup < 5 {
		return fmt.Errorf("B15: warm boot speedup %.2fx below the 5x target", speedup)
	}
	record("cold_reingest_ms", float64(coldWall.Microseconds())/1000)
	record("warm_boot_ms", float64(warmWall.Microseconds())/1000)
	record("lazy_open_us", float64(lazyWall.Microseconds()))
	record("warm_speedup", speedup)
	recordExact("snapshot_bytes", float64(snapStat.Size()))
	recordExact("lazy_columns", float64(lazyCols))
	return nil
}

// b16Signature renders the discovery outcome of a run — constraint sets,
// inclusion dependencies, candidate LHS, functional dependencies, hidden
// objects — with timings and traces excluded, so incremental and cold
// runs can be compared bit-for-bit.
func b16Signature(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "K=%d N=%d inferred=%d\n", len(rep.K), len(rep.N), len(rep.InferredKeys))
	fmt.Fprintf(&b, "IND=%s\n", rep.IND.INDs)
	fmt.Fprintf(&b, "S=%v\n", rep.IND.NewRelations)
	for _, l := range rep.LHS.LHS {
		fmt.Fprintf(&b, "LHS %s\n", l)
	}
	for _, f := range rep.RHS.FDs {
		fmt.Fprintf(&b, "FD %s\n", f)
	}
	for _, h := range rep.RHS.Hidden {
		fmt.Fprintf(&b, "H %s\n", h)
	}
	return b.String()
}

// b16Delta clones the first n rows of a fact relation with fresh key
// values past nextID: every (FK, embedded-attribute) combination already
// exists, so clean FDs stay provably clean from the delta alone, and no
// join gains or loses evidence — the shape of a live system appending
// routine transactions.
func b16Delta(tab *table.Table, n int, nextID int64) []table.Row {
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		src := tab.Row(i)
		row := append(table.Row(nil), src...)
		row[0] = value.NewInt(nextID + int64(i))
		rows = append(rows, row)
	}
	return rows
}

// runB16 gates the incremental-discovery tier: a 100k-tuple workload is
// discovered once (core.DiscoverIncrementalPrograms), then five rounds
// each append a 1% delta across the fact relations and re-validate the
// warm state (core.Incremental.Revalidate) — unchanged relations replay,
// clean FDs are checked against the appended rows only, and join
// evidence is recounted through the stats cache's delta partition
// refinement. The median re-validation races the median of full cold
// re-discovery over the final grown database; the incremental path must
// win by at least 10x (enforced here and by scripts/perfgate.sh against
// BENCH_B16.json), and its final report must be bit-identical to the
// cold run's.
func runB16(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000  // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0    // clean links: appended clones disturb nothing
	spec.CompositeDims = 2 // composite FKs: multi-attribute group vectors to delta-extend
	wl := mustWorkload(spec)
	ctx := context.Background()
	opts := core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Parallelism: 8}

	// The warm state owns its cache so the delta-refinement counters can
	// be read back; the cold re-runs below build their own from scratch.
	cache := stats.NewCache(wl.DB)
	warmOpts := opts
	warmOpts.Stats = cache
	warmStart := time.Now()
	inc, err := core.DiscoverIncrementalPrograms(ctx, wl.DB, wl.Programs, warmOpts)
	if err != nil {
		return err
	}
	warmWall := time.Since(warmStart)

	const rounds = 5
	deltaPerFact := spec.FactRows / 100 // 1% of each fact relation
	nextID := int64(spec.FactRows + 1)
	incWalls := make([]time.Duration, 0, rounds)
	appended := 0
	for r := 0; r < rounds; r++ {
		for f := 0; f < spec.Facts; f++ {
			tab := wl.DB.MustTable(fmt.Sprintf("F%d", f))
			enc := table.NewChunkEncoder(tab)
			for _, row := range b16Delta(tab, deltaPerFact, nextID) {
				if err := enc.AppendRow(row); err != nil {
					return err
				}
			}
			viol, err := tab.NewAppender().AppendBatch(enc, true)
			if err != nil || viol != 0 {
				return fmt.Errorf("B16: append round %d: violations=%d err=%v", r, viol, err)
			}
			appended += deltaPerFact
		}
		nextID += int64(deltaPerFact)
		runtime.GC()
		start := time.Now()
		dr, err := inc.Revalidate(ctx)
		if err != nil {
			return err
		}
		incWalls = append(incWalls, time.Since(start))
		if dr.FD.Broken != 0 || len(dr.NewFDs) != 0 || len(dr.BrokenINDs) != 0 {
			return fmt.Errorf("B16: clean delta changed dependencies: %s", dr.Text())
		}
	}
	incWall, _ := medianSpread(incWalls)

	// The full path an incremental run replaces: cold re-discovery over
	// the grown database, program scan included.
	fullWalls := make([]time.Duration, 0, 3)
	var cold *core.Incremental
	for i := 0; i < cap(fullWalls); i++ {
		runtime.GC()
		start := time.Now()
		cold, err = core.DiscoverIncrementalPrograms(ctx, wl.DB, wl.Programs, opts)
		if err != nil {
			return err
		}
		fullWalls = append(fullWalls, time.Since(start))
	}
	fullWall, _ := medianSpread(fullWalls)

	if got, want := b16Signature(inc.Report()), b16Signature(cold.Report()); got != want {
		return fmt.Errorf("B16: incremental state diverged from cold re-discovery:\n--- incremental\n%s--- cold\n%s", got, want)
	}
	speedup := float64(fullWall) / float64(incWall)
	printTable(w, []string{"discovery path", "wall (median)", "scope"}, [][]string{
		{"initial warm run", warmWall.Round(time.Microsecond).String(), fmt.Sprintf("%d fact tuples", spec.Facts*spec.FactRows)},
		{"incremental re-validation", incWall.Round(time.Microsecond).String(), fmt.Sprintf("1%% delta (%d rows/round)", spec.Facts*deltaPerFact)},
		{"full cold re-discovery", fullWall.Round(time.Microsecond).String(), fmt.Sprintf("%d fact tuples", spec.Facts*spec.FactRows+appended)},
	})
	fmt.Fprintf(w, "  incremental re-validation %.1fx faster than full re-discovery (target ≥ 10x); final state bit-identical\n", speedup)
	if speedup < 10 {
		return fmt.Errorf("B16: incremental speedup %.2fx below the 10x target", speedup)
	}
	record("initial_run_ms", float64(warmWall.Microseconds())/1000)
	record("incremental_ms", float64(incWall.Microseconds())/1000)
	record("full_rerun_ms", float64(fullWall.Microseconds())/1000)
	record("incremental_speedup", speedup)
	recordExact("delta_rows_per_round", float64(spec.Facts*deltaPerFact))
	recordExact("delta_refines", float64(cache.Metrics().DeltaHits))
	return nil
}

// b17Client drives one job server over HTTP: submit a job on the named
// dataset, poll it to completion, and fetch the report with the trace
// section cut (pooled and cold traces legitimately differ — the pool's
// snapshot open runs under the server tracer, not the job's).
type b17Client struct {
	base     string
	programs map[string]string
}

func (c *b17Client) runJob() (time.Duration, string, error) {
	// Incremental submissions run discovery-only — the repeated-serving
	// pattern the pool targets. (A restructuring one-shot would be
	// dominated by fd-split materialization, which is per-job work no
	// cache can share.)
	body, err := json.Marshal(map[string]any{
		"dataset": "w", "programs": c.programs, "incremental": true})
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	resp, err := http.Post(c.base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, "", err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return 0, "", fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
		r, err := http.Get(c.base + "/jobs/" + st.ID)
		if err != nil {
			return 0, "", err
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			return 0, "", err
		}
	}
	wall := time.Since(start)
	r, err := http.Get(c.base + "/jobs/" + st.ID + "/report")
	if err != nil {
		return 0, "", err
	}
	rep, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return 0, "", err
	}
	text := string(rep)
	if i := strings.Index(text, "\nTrace\n"); i >= 0 {
		text = text[:i]
	}
	return wall, text, nil
}

// b17Pool reads the pool section of GET /stats.
func (c *b17Client) poolStats() (map[string]any, error) {
	r, err := http.Get(c.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var st struct {
		Pool map[string]any `json:"pool"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		return nil, err
	}
	return st.Pool, nil
}

// runB17 gates the resident dataset pool: a 100k-tuple workload is
// snapshotted as a named dataset and the same discovery job is
// submitted N times sequentially against two servers — one with the
// pool disabled (every job opens the snapshot and builds its statistics
// from scratch) and one with the pool resident (the first job opens and
// installs the shared cache, later jobs share it). The
// median warm job must beat the median cold job by at least 5x, every
// report must be byte-identical across both servers, and a final burst
// of N concurrent jobs on a cold pooled server must trigger exactly one
// snapshot open (the singleflight property).
func runB17(w io.Writer) error {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0
	spec.CompositeDims = 2 // composite FKs: multi-attribute projections to share
	spec.EmbedProb = 0.1   // light embedding: some FD candidates, but the
	// workload stays IND/projection-dominated like a serving corpus
	wl := mustWorkload(spec)
	root, err := os.MkdirTemp("", "dbre-b17-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if err := storage.Snapshot(wl.DB, filepath.Join(root, "w")); err != nil {
		return err
	}
	clock := func() time.Time { return time.Unix(1700000000, 0) }
	const N = 4

	// Cold leg: pool disabled, every job pays the open and its own stats.
	coldSrv := dbre.NewServer(dbre.ServerConfig{DatasetRoot: root, MaxResidentBytes: -1, Clock: clock})
	coldTS := httptest.NewServer(coldSrv)
	cold := &b17Client{base: coldTS.URL, programs: wl.Programs}
	coldWalls := make([]time.Duration, 0, N)
	var refReport string
	for i := 0; i < N; i++ {
		wall, rep, err := cold.runJob()
		if err != nil {
			return fmt.Errorf("B17 cold job %d: %w", i, err)
		}
		if refReport == "" {
			refReport = rep
		} else if rep != refReport {
			return fmt.Errorf("B17: cold job %d report diverged from job 0", i)
		}
		coldWalls = append(coldWalls, wall)
	}
	coldTS.Close()
	coldSrv.Close()
	coldWall, _ := medianSpread(coldWalls)

	// Warm leg: resident pool. The first job is the pool miss (it opens
	// the snapshot and seeds the shared cache); the rest run warm.
	warmSrv := dbre.NewServer(dbre.ServerConfig{DatasetRoot: root, Clock: clock})
	warmTS := httptest.NewServer(warmSrv)
	warm := &b17Client{base: warmTS.URL, programs: wl.Programs}
	missWall, rep, err := warm.runJob()
	if err != nil {
		return fmt.Errorf("B17 pool-miss job: %w", err)
	}
	if rep != refReport {
		return fmt.Errorf("B17: pool-miss report diverged from the cold run")
	}
	warmWalls := make([]time.Duration, 0, N)
	for i := 0; i < N; i++ {
		wall, rep, err := warm.runJob()
		if err != nil {
			return fmt.Errorf("B17 warm job %d: %w", i, err)
		}
		if rep != refReport {
			return fmt.Errorf("B17: warm job %d report diverged from the cold run", i)
		}
		warmWalls = append(warmWalls, wall)
	}
	warmWall, _ := medianSpread(warmWalls)
	ps, err := warm.poolStats()
	if err != nil {
		return err
	}
	sharedHits, _ := ps["shared_cache_hits"].(float64)
	warmTS.Close()
	warmSrv.Close()

	// Concurrent leg: N jobs race a cold pooled server; the singleflight
	// open must admit exactly one miss, and every report must match.
	concSrv := dbre.NewServer(dbre.ServerConfig{DatasetRoot: root, Workers: N, QueueDepth: N, Clock: clock})
	concTS := httptest.NewServer(concSrv)
	conc := &b17Client{base: concTS.URL, programs: wl.Programs}
	type res struct {
		rep string
		err error
	}
	results := make(chan res, N)
	concStart := time.Now()
	for i := 0; i < N; i++ {
		go func() {
			_, rep, err := conc.runJob()
			results <- res{rep, err}
		}()
	}
	for i := 0; i < N; i++ {
		r := <-results
		if r.err != nil {
			return fmt.Errorf("B17 concurrent job: %w", r.err)
		}
		if r.rep != refReport {
			return fmt.Errorf("B17: concurrent job report diverged from the cold run")
		}
	}
	concWall := time.Since(concStart)
	cps, err := conc.poolStats()
	if err != nil {
		return err
	}
	misses, _ := cps["misses"].(float64)
	hits, _ := cps["hits"].(float64)
	concTS.Close()
	concSrv.Close()
	if misses != 1 || hits != N-1 {
		return fmt.Errorf("B17: concurrent stampede opened %v times (hits %v), want one singleflight open", misses, hits)
	}

	speedup := float64(coldWall) / float64(warmWall)
	printTable(w, []string{"serving path", "wall/job (median)", "state"}, [][]string{
		{"cold per-job open (pool disabled)", coldWall.Round(time.Microsecond).String(), "open + stats rebuilt every job"},
		{"pool miss (first job, opens + seeds)", missWall.Round(time.Microsecond).String(), "snapshot preloaded, cache seeded"},
		{fmt.Sprintf("pool hit (%d warm jobs)", N), warmWall.Round(time.Microsecond).String(), fmt.Sprintf("%d shared cache hits", int(sharedHits))},
		{fmt.Sprintf("%d concurrent jobs, cold pool", N), concWall.Round(time.Microsecond).String(), "1 singleflight open"},
	})
	fmt.Fprintf(w, "  warm job %.1fx faster than cold per-job serving (target ≥ 5x); all %d reports byte-identical\n",
		speedup, 2*N+N+1)
	if speedup < 5 {
		return fmt.Errorf("B17: warm speedup %.2fx below the 5x target", speedup)
	}
	record("cold_job_ms", float64(coldWall.Microseconds())/1000)
	record("pool_miss_ms", float64(missWall.Microseconds())/1000)
	record("warm_job_ms", float64(warmWall.Microseconds())/1000)
	record("warm_speedup", speedup)
	record("concurrent_total_ms", float64(concWall.Microseconds())/1000)
	recordExact("shared_cache_hits", sharedHits)
	return nil
}
