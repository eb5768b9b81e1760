package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dbre"
	"dbre/internal/core"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/workload"
)

// stripVolatile cuts a report's Timings and Trace sections, the only
// parts that legitimately differ between runs over the same data.
func stripVolatile(text string) string {
	if i := strings.Index(text, "\nTimings\n"); i >= 0 {
		return text[:i]
	}
	return text
}

// span runs f inside a benchmark-side span named bench:<name>.
func span(ctx context.Context, name string, f func(context.Context) error) error {
	sctx, sp := obs.StartSpan(ctx, "bench:"+name)
	defer sp.End()
	return f(sctx)
}

// readPrograms reads an application-program tree into name → source.
func readPrograms(dir string) (map[string]string, error) {
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	return out, err
}

// writeCLIInputs lays a workload out the way dbgen does: schema.sql, one
// CSV file per relation under data/, and the programs under programs/.
func writeCLIInputs(wl *workload.Workload, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "schema.sql"), []byte(wl.DB.Catalog().DDL()+"\n"), 0o644); err != nil {
		return err
	}
	if err := dbre.StoreCSVDirCtx(context.Background(), wl.DB, filepath.Join(dir, "data"), parallelism); err != nil {
		return err
	}
	for name, src := range wl.Programs {
		path := filepath.Join(dir, "programs", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// pipelineOptions are the options of every timed discovery call: the
// automatic expert, closure on, nproc workers, the sketch tier on.
func pipelineOptions() core.Options {
	return core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Parallelism: parallelism, Sketch: true}
}

// referenceOptions are the options of the references the timed calls are
// checked against: the serial, exact path (no sketch tier).
func referenceOptions() core.Options {
	return core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true}
}

// wideState is one set-up of a wide-shape workload.
type wideState struct {
	dir  string
	wl   *workload.Workload
	rows int
	snap time.Duration // snapshot write time (discover-cold only)
}

// prepareWide generates the wide shape into a fresh directory: the CLI
// inputs for oneshot, or a snapshot for discover-cold.
func prepareWide(r *run, snapshot bool) func(rep int) (*wideState, error) {
	return func(rep int) (*wideState, error) {
		wl, err := generate(wideSpec(), r.seed)
		if err != nil {
			return nil, err
		}
		st := &wideState{dir: filepath.Join(r.dir, fmt.Sprintf("wide-%d", rep)), wl: wl, rows: wl.DB.TotalRows()}
		if !snapshot {
			return st, writeCLIInputs(wl, st.dir)
		}
		dbre.EnableSketches(wl.DB, 0, 0)
		start := time.Now()
		err = dbre.Snapshot(wl.DB, filepath.Join(st.dir, "snap"))
		st.snap = time.Since(start)
		return st, err
	}
}

func releaseWide(st *wideState) { os.RemoveAll(st.dir) }

// oneshot is the CLI user's path: schema, sketches, parallel CSV ingest,
// the whole pipeline through Translate, and the rendered report.
func oneshot(ctx context.Context, dir string) (string, error) {
	var db *dbre.Database
	err := span(ctx, "load-schema", func(context.Context) error {
		var err error
		db, err = dbre.LoadSQLFile(filepath.Join(dir, "schema.sql"))
		return err
	})
	if err != nil {
		return "", err
	}
	dbre.EnableSketches(db, 0, 0)
	err = span(ctx, "load-csv", func(ctx context.Context) error {
		_, err := dbre.LoadCSVDirCtx(ctx, db, filepath.Join(dir, "data"), parallelism)
		return err
	})
	if err != nil {
		return "", err
	}
	programs, err := readPrograms(filepath.Join(dir, "programs"))
	if err != nil {
		return "", err
	}
	var rep *dbre.Report
	err = span(ctx, "reverse", func(ctx context.Context) error {
		var err error
		rep, err = dbre.ReverseContext(ctx, db, programs, pipelineOptions())
		return err
	})
	if err != nil {
		return "", err
	}
	var text string
	span(ctx, "report", func(context.Context) error { //nolint:errcheck // never fails
		text = stripVolatile(rep.Text())
		return nil
	})
	return text, nil
}

func runOneshot(r *run) error {
	st, err := setup(r, prepareWide(r, false), releaseWide)
	if err != nil {
		return err
	}
	defer releaseWide(st)
	refRep, err := core.RunContext(context.Background(), st.wl.DB, st.wl.Programs, referenceOptions())
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	ref := stripVolatile(refRep.Text())
	rows, joins := st.rows, refRep.Q.Len()
	st.wl, refRep = nil, nil
	say("oneshot: wide shape, %d tuples over CSV, pipeline parallelism %d, 1 client", rows, parallelism)

	op := func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		text, err := oneshot(ctx, st.dir)
		lat := time.Since(start)
		if err != nil {
			return 0, err
		}
		if text != ref {
			return 0, fmt.Errorf("oneshot report differs from the in-memory reference run")
		}
		return lat, nil
	}
	if !r.traced {
		lat, errs, wall := closedLoop(1, r.seconds, func(int) (time.Duration, error) { return op(context.Background()) })
		r.account(lat, errs)
		r.setLatency("oneshot", "oneshots_per_s", lat, wall)
		say("oneshot_s = %.4f s (median wall per pipeline)", lat.quantile(0.5).Seconds())
		r.setHeap()
		return nil
	}

	base, errs, _ := closedLoop(1, r.seconds/2, func(int) (time.Duration, error) { return op(context.Background()) })
	r.account(base, errs)
	l := newLayers()
	before := readGC()
	lat, errs, _ := closedLoop(1, r.seconds/2, func(int) (time.Duration, error) {
		tr := dbre.NewTracer("oneshot")
		lat, err := op(dbre.WithTracer(context.Background(), tr))
		tr.Finish()
		if err == nil {
			l.add(tr.Snapshot(), lat, 0)
		}
		return lat, err
	})
	r.account(lat, errs)
	r.setRuntime(before, len(lat))
	r.traceOverhead(base, lat)
	l.printSelf(r)
	r.setCounters(l)
	r.setWorkCounts(l)
	load := l.span("bench:load-csv")
	r.set("csvio.load_s", load/1000, "s")
	r.set("csvio.rows_per_s", float64(rows)/(load/1000), "1/s")
	r.set("csvio.ingest_chunks", l.exact(r, "ingest-chunks"), "count")
	r.set("csvio.merge_remaps", l.count("ingest-merge-remaps"), "count")
	r.set("appscan.joins", float64(joins), "count")
	return nil
}

// discoverCold is the pool-miss path: a lazy snapshot open, then
// discovery-only with a fresh statistics cache and the sketch tier on.
func discoverCold(ctx context.Context, snap string, programs map[string]string) (string, int, error) {
	var db *dbre.Database
	var info *storage.OpenInfo
	err := span(ctx, "open", func(ctx context.Context) error {
		var err error
		db, info, err = storage.OpenCtx(ctx, snap, storage.Options{})
		return err
	})
	if err != nil {
		return "", 0, err
	}
	defer info.Close()
	var inc *core.Incremental
	err = span(ctx, "discover", func(ctx context.Context) error {
		opts := pipelineOptions()
		opts.Stats = stats.NewCache(db)
		var err error
		inc, err = core.DiscoverIncrementalPrograms(ctx, db, programs, opts)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	return stripVolatile(inc.Report().Text()), info.Sections, nil
}

func runDiscoverCold(r *run) error {
	var snaps []float64
	st, err := setup(r, func(rep int) (*wideState, error) {
		st, err := prepareWide(r, true)(rep)
		if err == nil {
			snaps = append(snaps, st.snap.Seconds())
		}
		return st, err
	}, releaseWide)
	if err != nil {
		return err
	}
	defer releaseWide(st)
	inc, err := core.DiscoverIncrementalPrograms(context.Background(), st.wl.DB, st.wl.Programs, referenceOptions())
	if err != nil {
		return fmt.Errorf("reference discovery: %w", err)
	}
	ref := stripVolatile(inc.Report().Text())
	programs, rows, joins := st.wl.Programs, st.rows, inc.Report().Q.Len()
	st.wl, inc = nil, nil
	snap := filepath.Join(st.dir, "snap")
	say("discover-cold: wide shape, %d tuples in a snapshot, discovery parallelism %d, 1 client", rows, parallelism)

	op := func(ctx context.Context) (time.Duration, int, error) {
		start := time.Now()
		text, sections, err := discoverCold(ctx, snap, programs)
		lat := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		if text != ref {
			return 0, 0, fmt.Errorf("cold discovery report differs from the in-memory reference")
		}
		return lat, sections, nil
	}
	plain := func(int) (time.Duration, error) {
		lat, _, err := op(context.Background())
		return lat, err
	}
	if !r.traced {
		lat, errs, wall := closedLoop(1, r.seconds, plain)
		r.account(lat, errs)
		r.setLatency("discover", "discoveries_per_s", lat, wall)
		r.setHeap()
		return nil
	}

	base, errs, _ := closedLoop(1, r.seconds/2, plain)
	r.account(base, errs)
	l := newLayers()
	before := readGC()
	lat, errs, _ := closedLoop(1, r.seconds/2, func(int) (time.Duration, error) {
		tr := dbre.NewTracer("discover-cold")
		lat, sections, err := op(dbre.WithTracer(context.Background(), tr))
		tr.Finish()
		if err == nil {
			l.add(tr.Snapshot(), lat, 0)
			l.note("sections", float64(sections))
		}
		return lat, err
	})
	r.account(lat, errs)
	r.setRuntime(before, len(lat))
	r.traceOverhead(base, lat)
	l.printSelf(r)
	r.setCounters(l)
	r.setWorkCounts(l)
	r.set("storage.open_ms", l.span("open-snapshot"), "ms")
	r.set("storage.sections", l.mean("sections"), "count")
	r.set("storage.snapshot_s", median(snaps), "s")
	r.set("appscan.joins", float64(joins), "count")
	return nil
}
