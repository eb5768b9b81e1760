// Package core orchestrates the complete reverse-engineering pipeline of
// the paper: compute K and N from the dictionary, extract the equi-join set
// Q from the application programs, elicit inclusion dependencies
// (IND-Discovery), derive candidate FD left-hand sides (LHS-Discovery),
// elicit functional dependencies and hidden objects (RHS-Discovery),
// restructure the schema to 3NF with keys and referential integrity
// constraints (Restruct), and translate it to an EER schema (Translate).
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dbre/internal/appscan"
	"dbre/internal/deps"
	"dbre/internal/eer"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/restruct"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// PhaseOrder is the canonical order of the pipeline phases, as they
// execute. Report.Text renders the Timings section in this order, and the
// JSON trace emitted by cmd/dbre contains one top-level span per phase
// that ran, under these names.
var PhaseOrder = []string{
	"scan",
	"constraints",
	"ind-discovery",
	"lhs-discovery",
	"rhs-discovery",
	"restruct",
	"translate",
}

// Options configures a pipeline run.
type Options struct {
	// Oracle is the expert user; nil means expert.NewAuto().
	Oracle expert.Oracle
	// TransitiveClosure controls equi-join closure during extraction.
	TransitiveClosure bool
	// SkipTranslate stops after Restruct (no EER schema).
	SkipTranslate bool
	// InferKeys derives data-supported candidate keys for relations with
	// no UNIQUE declaration before computing K — a necessity on the old
	// dictionaries the paper motivates with ("old versions of DBMSs do
	// not support such declarations").
	InferKeys bool
	// Parallelism fans the counting phases — IND-Discovery's join counts
	// and RHS-Discovery's A → b checks — and Restruct's projections over
	// this many workers: 0 and 1 are serial, < 0 selects GOMAXPROCS.
	// Results are identical to the serial run. Callers loading
	// the extension themselves (cmd/dbre) reuse the same setting for the
	// batched CSV ingest (csvio.Options.Parallelism), which carries the
	// identical-results guarantee end to end.
	Parallelism int
	// Stats supplies a caller-owned column-statistics cache (must wrap
	// the same database) so tests can audit hit/miss metrics after a
	// run; nil, the pipeline builds its own. Every counting phase reads
	// through it.
	Stats *stats.Cache
	// Sketch puts the FD triage in front of RHS-Discovery's exact
	// checks: for support-insensitive oracles, certain refutation from
	// the deterministic row sample.
	// Accepted results are bit-identical to the exact-only run; the
	// skipped work is surfaced via the sketch-* counters.
	Sketch bool
	// Scan, when set, is a pre-computed scan phase (ScanPrograms) of the
	// run's programs against the database's catalog with the same
	// TransitiveClosure. The run takes Q and the scan summary from it and
	// replays its "scan-file" spans instead of scanning, ignoring the
	// programs argument. Runs only read it, so one scan may serve any
	// number of concurrent runs.
	Scan *ProgramScan
}

// DefaultOptions mirrors the paper's setting with an automatic expert.
func DefaultOptions() Options {
	return Options{Oracle: expert.NewAuto(), TransitiveClosure: true}
}

// Report is the full pipeline outcome, one field per phase.
type Report struct {
	// K and N are the Section 4 constraint sets.
	K []relation.Ref
	N []relation.Ref
	// InferredKeys lists keys declared by data-supported inference for
	// relations the dictionary left keyless (Options.InferKeys).
	InferredKeys []relation.Ref
	// Scan summarizes program analysis; Q is the extracted equi-join set.
	Scan appscan.Report
	Q    *deps.JoinSet
	// IND is the IND-Discovery result (inclusion dependencies, S, trace).
	IND *ind.Result
	// LHS is the LHS-Discovery result.
	LHS *restruct.LHSResult
	// RHS is the RHS-Discovery result (F, final H, trace).
	RHS *fd.Result
	// Restruct is the restructuring result (keys, rewritten INDs, RIC).
	Restruct *restruct.Result
	// ThreeNFViolations lists relations of the restructured catalog that
	// fail the 3NF postcondition (empty on every normal run).
	ThreeNFViolations []string
	// EER is the translated conceptual schema (nil with SkipTranslate).
	EER *eer.Schema
	// Timings records the wall-clock duration of each phase. Writers must
	// go through RecordTiming, which guards the map for concurrent use;
	// reading the field directly is safe once the run has returned. When
	// the run is traced (RunContext with an obs tracer in the context) the
	// durations are derived from the phase spans, so this map is a
	// compatibility view over the trace.
	Timings map[string]time.Duration
	// Trace is the tracer that observed the run, when one was installed in
	// the context (obs.NewContext); nil on untraced runs. Report.Text
	// appends its rendering as a "Trace" section.
	Trace *obs.Tracer

	timingsMu sync.Mutex
}

// RecordTiming stores one phase duration, safely under concurrency.
func (r *Report) RecordTiming(phase string, d time.Duration) {
	r.timingsMu.Lock()
	defer r.timingsMu.Unlock()
	if r.Timings == nil {
		r.Timings = make(map[string]time.Duration)
	}
	r.Timings[phase] = d
}

// workers is the worker count of the pipeline's fan-out phases (IND
// counts, RHS checks, Restruct's projections), resolved here so the
// count/check spans record the pool actually asked for: 0 is one worker
// (stats.ForEach alone would read it as GOMAXPROCS), < 0 is GOMAXPROCS.
func workers(opts Options) int {
	switch {
	case opts.Parallelism == 0:
		return 1
	case opts.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	}
	return opts.Parallelism
}

// checkCancel surfaces a cancelled run context as the pipeline error,
// naming the phase that was about to start. Together with the per-
// candidate checks inside IND- and RHS-Discovery this bounds how long a
// cancelled run keeps computing: at most one candidate (one equi-join,
// one FD check batch) past the cancellation point. The wrapped error
// preserves errors.Is(err, context.Canceled).
func checkCancel(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s not started: %w", phase, err)
	}
	return nil
}

// startPhase opens one top-level phase span and returns the phase context
// plus a closer that ends the span and records the phase timing. On traced
// runs the timing is derived from the span itself, so the Timings map and
// the trace cannot disagree; untraced runs fall back to a direct clock
// reading and allocate nothing in obs.
func startPhase(ctx context.Context, rep *Report, name string) (context.Context, func()) {
	pctx, sp := obs.StartSpan(ctx, name)
	start := time.Now()
	return pctx, func() {
		sp.End()
		d := sp.Duration()
		if sp == nil {
			d = time.Since(start)
		}
		rep.RecordTiming(name, d)
	}
}

// Run executes the pipeline over a database in operation and its
// application programs (file name → source text). The database is modified
// in place: NEI relations, hidden objects and FD splits are added, split
// attributes are removed, data is migrated.
func Run(db *table.Database, programs map[string]string, opts Options) (*Report, error) {
	return RunContext(context.Background(), db, programs, opts)
}

// RunContext is Run with observability threaded through the context.
// Install a tracer with obs.NewContext to get one top-level span per
// pipeline phase (PhaseOrder), nested sub-spans inside the discovery
// algorithms, and the counter inventory of the run; the finished tracer is
// echoed in Report.Trace. A plain context runs exactly like Run, with no
// tracing overhead.
func RunContext(ctx context.Context, db *table.Database, programs map[string]string, opts Options) (*Report, error) {
	rep := &Report{Timings: make(map[string]time.Duration)}
	q := scanPrograms(ctx, db, programs, opts, rep)
	return RunWithQContext(ctx, db, q, opts, rep)
}

// ProgramScan is a completed scan phase: Q, the scan summary, and the
// attributes of one "scan-file" span per program. Q depends only on the
// programs and the catalog (Section 4), never on the extension.
type ProgramScan struct {
	Q       *deps.JoinSet
	Summary appscan.Report
	Files   []ScannedFile
}

// ScannedFile holds the attributes of one "scan-file" span.
type ScannedFile struct {
	File, Lang string
	Stmts      int
}

// ScanPrograms scans the application programs (file name → source
// text) in name order and extracts the equi-join set Q against cat.
// Under a traced context each program gets a "scan-file" span.
func ScanPrograms(ctx context.Context, cat *relation.Catalog, programs map[string]string, transitiveClosure bool) *ProgramScan {
	ps := &ProgramScan{Files: make([]ScannedFile, 0, len(programs))}
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	var snippets []appscan.Snippet
	for _, name := range names {
		before := ps.Summary.StatementsFound
		snippets = append(snippets, appscan.ScanSourceCtx(ctx, name, programs[name], &ps.Summary)...)
		ps.Files = append(ps.Files, ScannedFile{
			File:  filepath.Base(name),
			Lang:  appscan.DetectLanguage(name, programs[name]).String(),
			Stmts: ps.Summary.StatementsFound - before,
		})
	}
	ex := appscan.NewExtractor(cat)
	ex.TransitiveClosure = transitiveClosure
	ps.Q = ex.ExtractQ(snippets)
	return ps
}

// scanPrograms runs the scan phase into rep and returns Q: it replays
// opts.Scan when set, and scans the programs otherwise.
func scanPrograms(ctx context.Context, db *table.Database, programs map[string]string, opts Options, rep *Report) *deps.JoinSet {
	sctx, endScan := startPhase(ctx, rep, "scan")
	defer endScan()
	ps := opts.Scan
	if ps == nil {
		ps = ScanPrograms(sctx, db.Catalog(), programs, opts.TransitiveClosure)
	} else {
		for _, f := range ps.Files {
			_, sp := obs.StartSpan(sctx, "scan-file")
			sp.SetAttr("file", f.File)
			sp.SetAttr("lang", f.Lang)
			sp.SetInt("stmts", int64(f.Stmts))
			sp.End()
		}
	}
	rep.Scan = ps.Summary
	return ps.Q
}

// RunWithQ executes the pipeline with a pre-extracted equi-join set (the
// paper's assumption in Section 4 that Q "has been computed"). When rep is
// nil a fresh report is allocated.
func RunWithQ(db *table.Database, q *deps.JoinSet, opts Options, rep *Report) (*Report, error) {
	return RunWithQContext(context.Background(), db, q, opts, rep)
}

// RunWithQContext is RunWithQ with observability threaded through the
// context; see RunContext.
func RunWithQContext(ctx context.Context, db *table.Database, q *deps.JoinSet, opts Options, rep *Report) (*Report, error) {
	if rep == nil {
		rep = &Report{Timings: make(map[string]time.Duration)}
	}
	opts.Oracle = bindOracle(ctx, opts.Oracle)
	// The column-statistics cache shared by every counting phase below.
	// A caller-supplied cache wins (tests audit its metrics afterwards).
	cache := opts.Stats
	if cache == nil {
		cache = stats.NewCache(db)
	}
	if err := discover(ctx, db, q, opts, cache, rep, nil, nil); err != nil {
		return rep, err
	}

	// Phase 5: Restruct.
	if err := checkCancel(ctx, "restruct"); err != nil {
		return rep, err
	}
	xctx, endRestruct := startPhase(ctx, rep, "restruct")
	resRes, err := restruct.RunCtx(xctx, db, rep.RHS.FDs, rep.RHS.Hidden, rep.IND.INDs, restruct.Opts{Oracle: opts.Oracle, Workers: workers(opts)})
	if err != nil {
		endRestruct()
		return rep, fmt.Errorf("core: Restruct: %w", err)
	}
	rep.Restruct = resRes
	// Restruct splits relations and migrates data; statistics gathered on
	// the pre-split extension are now stale. Stale entries would be
	// detected lazily anyway (the (pointer, version) check), but dropping
	// them eagerly releases the memory of projections that will never be
	// consulted again; Translate's annotations build what they read.
	cache.InvalidateAll()
	// Postcondition: the restructured catalog must be in 3NF with respect
	// to the elicited dependencies. Violations indicate expert-forced
	// dependencies that conflict; they are reported, not fatal.
	rep.ThreeNFViolations = restruct.Verify3NF(db.Catalog(), resRes.MappedFDs)
	endRestruct()

	// Phase 6: Translate, then annotate cardinalities and participation
	// from the migrated extension.
	if !opts.SkipTranslate {
		if err := checkCancel(ctx, "translate"); err != nil {
			return rep, err
		}
		_, endTranslate := startPhase(ctx, rep, "translate")
		schema, err := eer.Translate(db.Catalog(), resRes.RIC)
		if err != nil {
			endTranslate()
			return rep, fmt.Errorf("core: Translate: %w", err)
		}
		if err := eer.Annotate(cache, schema); err != nil {
			endTranslate()
			return rep, fmt.Errorf("core: annotating EER schema: %w", err)
		}
		rep.EER = schema
		endTranslate()
	}
	return rep, nil
}

// bindOracle resolves the run oracle (nil means expert.NewAuto()).
// Oracles that can block (terminal prompts, answers arriving over an
// API) observe the run's context, so cancelling the run resolves any
// pending question with its default instead of hanging the pipeline.
func bindOracle(ctx context.Context, oracle expert.Oracle) expert.Oracle {
	if oracle == nil {
		return expert.NewAuto()
	}
	if ca, ok := oracle.(expert.ContextAware); ok {
		return ca.BindContext(ctx)
	}
	return oracle
}

// discover runs the discovery phases every driver shares — constraints,
// IND-, LHS- and RHS-Discovery — into rep, with opts.Oracle already
// bound. With prev nil it is a cold pass. With prev, the report of the
// previous pass over the same Q whose relations then had the row counts
// base, IND- and RHS-Discovery re-validate prev's results against the
// grown database (rep.IND.Delta and rep.RHS.Delta classify the work), and
// the constraint sets are carried over: inferred keys are frozen after
// the first pass, because re-inferring them on a delta could retract
// schema constraints mid-stream. The completed phases stay in rep when
// a later one fails.
func discover(ctx context.Context, db *table.Database, q *deps.JoinSet, opts Options, cache *stats.Cache, rep, prev *Report, base map[string]int) error {
	rep.Q = q
	tr := obs.FromContext(ctx)
	rep.Trace = tr
	if tr != nil {
		cache.SetTracer(tr)
	}

	// Phase 0: constraint sets from the dictionary, inferring missing
	// keys from the data first when asked to.
	if err := checkCancel(ctx, "constraints"); err != nil {
		return err
	}
	cctx, endConstraints := startPhase(ctx, rep, "constraints")
	if prev != nil {
		rep.InferredKeys = prev.InferredKeys
	} else if opts.InferKeys {
		kopts := fd.DefaultKeyInferenceOptions()
		kopts.Stats = cache
		inferred, err := fd.InferMissingKeysCtx(cctx, db, kopts)
		if err != nil {
			endConstraints()
			return fmt.Errorf("core: key inference: %w", err)
		}
		rep.InferredKeys = inferred
	}
	rep.K = db.Catalog().Keys()
	rep.N = db.Catalog().NotNulls()
	if prev != nil {
		// A cold run snapshots K and N before IND-Discovery adds the NEI
		// concept relations; exclude the ones retained from the previous
		// pass so the refreshed report matches it bit for bit.
		inS := make(map[string]bool, len(prev.IND.NewRelations))
		for _, n := range prev.IND.NewRelations {
			inS[n] = true
		}
		keep := func(refs []relation.Ref) []relation.Ref {
			out := refs[:0]
			for _, r := range refs {
				if !inS[r.Rel] {
					out = append(out, r)
				}
			}
			return out
		}
		rep.K = keep(rep.K)
		rep.N = keep(rep.N)
	}
	endConstraints()

	// Phase 2: IND-Discovery.
	if err := checkCancel(ctx, "ind-discovery"); err != nil {
		return err
	}
	iopts := ind.Opts{Stats: cache, Workers: workers(opts), BaseRows: base}
	if prev != nil {
		iopts.Prev = prev.IND
	}
	ictx, endIND := startPhase(ctx, rep, "ind-discovery")
	indRes, err := ind.DiscoverCtx(ictx, db, q, opts.Oracle, iopts)
	endIND()
	if err != nil {
		return fmt.Errorf("core: IND-Discovery: %w", err)
	}
	rep.IND = indRes

	// Phase 3: LHS-Discovery.
	if err := checkCancel(ctx, "lhs-discovery"); err != nil {
		return err
	}
	lctx, endLHS := startPhase(ctx, rep, "lhs-discovery")
	inS := make(map[string]bool, len(indRes.NewRelations))
	for _, n := range indRes.NewRelations {
		inS[n] = true
	}
	lhsRes, err := restruct.DiscoverLHSCtx(lctx, db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
	endLHS()
	if err != nil {
		return fmt.Errorf("core: LHS-Discovery: %w", err)
	}
	rep.LHS = lhsRes

	// Phase 4: RHS-Discovery. IND-Discovery's NEI conceptualization may
	// have added (or, re-validating, retracted) relations; the cache
	// revalidates per lookup, so no explicit invalidation is needed here.
	if err := checkCancel(ctx, "rhs-discovery"); err != nil {
		return err
	}
	fopts := fd.Opts{Stats: cache, Workers: workers(opts), Sketch: opts.Sketch, BaseRows: base}
	if prev != nil {
		fopts.Prev = prev.RHS.Supports
	}
	rctx, endRHS := startPhase(ctx, rep, "rhs-discovery")
	rhsRes, err := fd.DiscoverRHSCtx(rctx, db, lhsRes.LHS, lhsRes.Hidden, opts.Oracle, fopts)
	endRHS()
	if err != nil {
		return fmt.Errorf("core: RHS-Discovery: %w", err)
	}
	rep.RHS = rhsRes
	return nil
}

// Text renders a human-readable summary of the whole run.
func (r *Report) Text() string {
	var b strings.Builder
	section := func(title string) {
		fmt.Fprintf(&b, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	}
	section("Constraint sets (Section 4)")
	if len(r.InferredKeys) > 0 {
		fmt.Fprintf(&b, "inferred keys (validate with the expert):\n")
		for _, k := range r.InferredKeys {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}
	fmt.Fprintf(&b, "K: %d key constraints\n", len(r.K))
	for _, k := range r.K {
		fmt.Fprintf(&b, "  %s\n", k)
	}
	fmt.Fprintf(&b, "N: %d null-not-allowed attributes\n", len(r.N))

	if r.Q != nil {
		section("Equi-joins Q (program analysis)")
		fmt.Fprintf(&b, "%s\n", appscan.FormatReport(&r.Scan))
		for _, q := range r.Q.Sorted() {
			fmt.Fprintf(&b, "  %s\n", q)
		}
	}
	if r.IND != nil {
		section("Inclusion dependencies (IND-Discovery)")
		for _, o := range r.IND.Outcomes {
			fmt.Fprintf(&b, "  %s\n", o)
		}
		fmt.Fprintf(&b, "IND (%d):\n", r.IND.INDs.Len())
		for _, d := range r.IND.INDs.Sorted() {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		if len(r.IND.NewRelations) > 0 {
			fmt.Fprintf(&b, "S: %s\n", strings.Join(r.IND.NewRelations, ", "))
		}
	}
	if r.LHS != nil {
		section("Candidate FD left-hand sides (LHS-Discovery)")
		for _, l := range r.LHS.LHS {
			fmt.Fprintf(&b, "  LHS %s\n", l)
		}
		for _, h := range r.LHS.Hidden {
			fmt.Fprintf(&b, "  H   %s\n", h)
		}
	}
	if r.RHS != nil {
		section("Functional dependencies (RHS-Discovery)")
		for _, t := range r.RHS.Traces {
			fmt.Fprintf(&b, "  %s\n", t)
		}
		fmt.Fprintf(&b, "F (%d):\n", len(r.RHS.FDs))
		for _, f := range r.RHS.FDs {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		fmt.Fprintf(&b, "H (%d):\n", len(r.RHS.Hidden))
		for _, h := range r.RHS.Hidden {
			fmt.Fprintf(&b, "  %s\n", h)
		}
	}
	if r.Restruct != nil {
		section("Restructured schema (Restruct)")
		fmt.Fprintf(&b, "new relations: %s\n", strings.Join(r.Restruct.NewRelations, ", "))
		fmt.Fprintf(&b, "RIC (%d):\n", len(r.Restruct.RIC))
		for _, d := range r.Restruct.RIC {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		if len(r.ThreeNFViolations) == 0 {
			fmt.Fprintf(&b, "3NF check: all relations verify\n")
		} else {
			for _, v := range r.ThreeNFViolations {
				fmt.Fprintf(&b, "3NF VIOLATION: %s\n", v)
			}
		}
	}
	if r.EER != nil {
		section("EER schema (Translate)")
		b.WriteString(r.EER.Text())
	}
	section("Timings")
	r.timingsMu.Lock()
	// Canonical pipeline order first, then any phase a caller recorded
	// outside the canon, lexicographically.
	emitted := make(map[string]bool, len(r.Timings))
	for _, p := range PhaseOrder {
		if d, ok := r.Timings[p]; ok {
			fmt.Fprintf(&b, "  %-14s %v\n", p, d)
			emitted[p] = true
		}
	}
	var extras []string
	for p := range r.Timings {
		if !emitted[p] {
			extras = append(extras, p)
		}
	}
	sort.Strings(extras)
	for _, p := range extras {
		fmt.Fprintf(&b, "  %-14s %v\n", p, r.Timings[p])
	}
	r.timingsMu.Unlock()
	if r.Trace != nil {
		section("Trace")
		r.Trace.Render(&b)
	}
	return b.String()
}
