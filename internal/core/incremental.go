// Incremental discovery under live mutation: a warm, re-validatable
// discovery state. DiscoverIncremental runs the discovery phases once
// (constraints → IND → LHS → RHS; restructuring and translation are
// deliberately excluded — they rewrite the schema and migrate data,
// which would invalidate every retained support) and keeps what a later
// delta needs: per-relation row watermarks, the FD support table, and
// the IND outcomes. Revalidate then re-derives the full discovery
// report after batch appends at O(delta) cost: unchanged relations
// reuse their results outright, previously-clean FDs are checked
// against the appended rows only, INDs re-count only joins touching
// grown relations, and only genuinely moved evidence re-enters the
// expert dialogue (the re-escalations the paper's interactive method
// calls for). With a deterministic oracle the refreshed report is
// bit-identical to a cold discovery run over the same grown state —
// the differential harness in incremental_test.go proves exactly this,
// including appends that break previously-accepted dependencies.
//
// Key inference (Options.InferKeys) runs only on the initial pass;
// inferred keys are frozen afterwards, because re-inferring them on a
// delta could retract schema constraints mid-stream. Re-validation
// requires the columnar engine's statistics cache (it is what makes the
// delta path cheap); the row engine falls back to full re-runs.
package core

import (
	"context"
	"fmt"
	"time"

	"dbre/internal/appscan"
	"dbre/internal/deps"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/obs"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// Incremental is the retained warm state of one discovery run over a
// live database. It is not safe for concurrent use; the job server
// serializes appends and re-validations per job. The database must only
// grow through batch appends between Revalidate calls — restructuring
// it, or replacing relations out from under the state, invalidates the
// warm supports (Revalidate detects replaced tables per lookup through
// the cache's pointer checks, but the O(delta) promise is gone).
type Incremental struct {
	db    *table.Database
	q     *deps.JoinSet
	opts  Options
	cache *stats.Cache
	rep   *Report        // the last pass; its IND and RHS results are the warm state
	scan  appscan.Report // program-scan summary of the initial run
	base  map[string]int // relation → rows at the last (re)validation
}

// DeltaReport summarizes one re-validation pass.
type DeltaReport struct {
	// AppendedRows is the total row growth since the previous pass;
	// ChangedRelations lists the relations that grew, canonically.
	AppendedRows     int
	ChangedRelations []string
	// FD / IND break down how checks were served (reuse / delta / full).
	FD  fd.DeltaStats
	IND ind.DeltaStats
	// BrokenFDs lists previously-accepted FDs the delta retracted;
	// NewFDs lists FDs accepted now that were not accepted before (a
	// violation *rate* can fall as clean rows append). Same for INDs.
	BrokenFDs  []deps.FD
	NewFDs     []deps.FD
	BrokenINDs []deps.IND
	NewINDs    []deps.IND
}

// DiscoverIncremental runs the discovery phases over db and returns the
// warm state for later re-validation. The report (Report of the initial
// run) is available via Report; restruct/translate phases are skipped.
func DiscoverIncremental(ctx context.Context, db *table.Database, q *deps.JoinSet, opts Options) (*Incremental, error) {
	if opts.Oracle == nil {
		opts.Oracle = expert.NewAuto()
	}
	cache := opts.Stats
	if cache == nil {
		cache = stats.NewCache(db)
	}
	inc := &Incremental{db: db, q: q, opts: opts, cache: cache}
	if _, err := inc.pass(ctx); err != nil {
		return nil, err
	}
	return inc, nil
}

// DiscoverIncrementalPrograms scans the application programs for the
// equi-join set Q (RunContext's scan phase) and runs DiscoverIncremental
// over it — the warm-state analogue of RunContext.
func DiscoverIncrementalPrograms(ctx context.Context, db *table.Database, programs map[string]string, opts Options) (*Incremental, error) {
	rep := &Report{Timings: make(map[string]time.Duration)}
	q := scanPrograms(ctx, db, programs, opts, rep)
	inc, err := DiscoverIncremental(ctx, db, q, opts)
	if err != nil {
		return nil, err
	}
	inc.scan, inc.rep.Scan = rep.Scan, rep.Scan
	return inc, nil
}

// Report returns the most recent full discovery report (initial run or
// last re-validation).
func (inc *Incremental) Report() *Report { return inc.rep }

// BaseRows returns the relation → row-count watermarks of the last
// validated state (a copy).
func (inc *Incremental) BaseRows() map[string]int {
	out := make(map[string]int, len(inc.base))
	for k, v := range inc.base {
		out[k] = v
	}
	return out
}

// snapshotRows records the current per-relation row counts as the new
// watermarks.
func (inc *Incremental) snapshotRows() {
	inc.base = make(map[string]int, inc.db.Catalog().Len())
	for _, name := range inc.db.Catalog().Names() {
		inc.base[name] = inc.db.MustTable(name).Len()
	}
}

// pass runs the discovery phases — cold on the first call, re-validating
// the previous report afterwards — and on success makes the fresh report
// and the current row counts the retained state.
func (inc *Incremental) pass(ctx context.Context) (*Report, error) {
	opts := inc.opts
	opts.Oracle = bindOracle(ctx, opts.Oracle)
	rep := &Report{Timings: make(map[string]time.Duration), Scan: inc.scan}
	if err := discover(ctx, inc.db, inc.q, opts, inc.cache, rep, inc.rep, inc.base); err != nil {
		return nil, err
	}
	inc.rep = rep
	inc.snapshotRows()
	return rep, nil
}

// Revalidate re-runs discovery after batch appends, serving every check
// it can from the retained state and recomputing only what the delta
// disturbed. It returns the delta summary; the refreshed full report is
// available via Report afterwards. Must run at a commit point (no
// append in flight on this database); concurrent readers elsewhere are
// unaffected — they read pinned epochs.
func (inc *Incremental) Revalidate(ctx context.Context) (*DeltaReport, error) {
	tr := obs.FromContext(ctx)
	tr.Add(obs.CtrRevalidations, 1)
	dr := &DeltaReport{}
	for _, name := range inc.db.Catalog().Names() {
		n := inc.db.MustTable(name).Len()
		if base, ok := inc.base[name]; !ok || n != base {
			dr.ChangedRelations = append(dr.ChangedRelations, name)
			dr.AppendedRows += n - base
		}
	}
	prev := inc.rep
	rep, err := inc.pass(ctx)
	if err != nil {
		return nil, err
	}
	dr.FD, dr.IND = rep.RHS.Delta, rep.IND.Delta
	diffDeps(prev, rep, dr)
	return dr, nil
}

// diffDeps fills the broken/new dependency lists of dr by comparing the
// previous and refreshed reports.
func diffDeps(prev, cur *Report, dr *DeltaReport) {
	if prev == nil || prev.RHS == nil || cur.RHS == nil {
		return
	}
	old := make(map[string]deps.FD, len(prev.RHS.FDs))
	for _, f := range prev.RHS.FDs {
		old[f.String()] = f
	}
	now := make(map[string]bool, len(cur.RHS.FDs))
	for _, f := range cur.RHS.FDs {
		now[f.String()] = true
		if _, ok := old[f.String()]; !ok {
			dr.NewFDs = append(dr.NewFDs, f)
		}
	}
	for _, f := range prev.RHS.FDs {
		if !now[f.String()] {
			dr.BrokenFDs = append(dr.BrokenFDs, f)
		}
	}
	if prev.IND == nil || cur.IND == nil {
		return
	}
	for _, d := range prev.IND.INDs.Sorted() {
		if !cur.IND.INDs.Contains(d) {
			dr.BrokenINDs = append(dr.BrokenINDs, d)
		}
	}
	for _, d := range cur.IND.INDs.Sorted() {
		if !prev.IND.INDs.Contains(d) {
			dr.NewINDs = append(dr.NewINDs, d)
		}
	}
}

// Text renders the delta summary.
func (dr *DeltaReport) Text() string {
	s := fmt.Sprintf("revalidated after +%d rows across %d relations: "+
		"fd[reused %d, delta-checked %d, refuted %d, escalated %d] ind[reused %d, recounted %d, redecided %d]",
		dr.AppendedRows, len(dr.ChangedRelations),
		dr.FD.Reused, dr.FD.DeltaChecked, dr.FD.Refuted, dr.FD.Escalated,
		dr.IND.Reused, dr.IND.Recounted, dr.IND.Redecided)
	for _, f := range dr.BrokenFDs {
		s += fmt.Sprintf("\n  broken FD: %s", f)
	}
	for _, f := range dr.NewFDs {
		s += fmt.Sprintf("\n  new FD: %s", f)
	}
	for _, d := range dr.BrokenINDs {
		s += fmt.Sprintf("\n  broken IND: %s", d)
	}
	for _, d := range dr.NewINDs {
		s += fmt.Sprintf("\n  new IND: %s", d)
	}
	return s
}

// PinEpochRun pins a consistent epoch of db (see table.Database.
// PinEpoch) and runs the full pipeline over the snapshot: discovery,
// restructuring and translation all read — and restructure — the
// pinned view, never the live tables, so batch ingest may continue
// concurrently on db. The live database is left untouched.
func PinEpochRun(ctx context.Context, db *table.Database, q *deps.JoinSet, opts Options) (*Report, error) {
	obs.FromContext(ctx).Add(obs.CtrEpochPins, 1)
	pinned := db.PinEpoch()
	opts.Stats = nil // the cache must wrap the pinned view, not db
	return RunWithQContext(ctx, pinned, q, opts, nil)
}
