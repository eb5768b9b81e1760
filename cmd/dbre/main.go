// Command dbre reverse-engineers a denormalized relational database: it
// reads a legacy schema (DDL), its extension (CSV files or INSERT
// statements) and the application programs written against it, runs the
// full elicitation and restructuring pipeline, and prints the restructured
// 3NF schema, the referential integrity constraints and the EER schema.
//
// Usage:
//
//	dbre -schema legacy.sql [-data dir] [-programs dir]
//	     [-expert auto|interactive|deny] [-format text|dot]
//	     [-out-data dir] [-no-closure]
//	     [-sketch]
//	     [-trace out.json] [-debug-addr localhost:6060]
//
//	dbre -schema legacy.sql -data dir -snapshot snapdir
//	dbre -from-snapshot snapdir [-programs dir] [...]
//
//	dbre -serve :8080 [-serve-workers n] [-job-ttl 1h]
//	     [-max-job-bytes n] [-datasets dir] [-auto-answer 30s]
//	     [-max-resident-bytes n] [-prewarm a,b|all]
//
// With -expert interactive the paper's expert-user dialogue runs on the
// terminal; auto applies the default trust-the-extension policy.
//
// -sketch puts the FD triage in front of RHS-Discovery's exact checks:
// refutation from a deterministic sample of 512 rows per relation, built
// on first read. It settles only checks whose
// outcome is certain and escalates the rest to the exact kernels, so
// results are bit-identical to a run without it; the sketch-prunes /
// sketch-escalations / sketch-build counters in the trace show the
// triage ratio.
//
// -snapshot ingests the schema and extension, persists the loaded engine
// to a checksummed binary snapshot directory (format in
// docs/storage-format.md) and exits without running the pipeline;
// -from-snapshot replaces -schema/-data and boots warm from such a
// directory, replaying any write-ahead log a crashed run left behind.
// Columns load lazily, so discovery phases touch only the sections they
// read.
//
// -serve starts the discovery job server instead of a one-shot run:
// databases and program sets are submitted as asynchronous jobs over
// the HTTP/JSON API (POST /jobs), polled, cancelled, and their expert
// dialogues answered over the same API. See the README's Serving
// section for the endpoint walkthrough.
//
// -trace records an execution trace — one span per pipeline phase with
// nested algorithm sub-spans plus the counter inventory — appends its
// rendering to the report and writes it as versioned JSON (schema in
// DESIGN.md §5). -debug-addr serves expvar (/debug/vars, including the
// live trace under "dbre.obs") and net/http/pprof (/debug/pprof/) for the
// duration of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbre"
	"dbre/internal/expert"
	"dbre/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbre:", err)
		os.Exit(1)
	}
}

// fmtBytes renders a byte count human-readably for boot logging.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// serveShutdown asks a running -serve instance to stop as if it had
// received an interrupt; the smoke test uses it in place of a signal.
var serveShutdown = make(chan struct{}, 1)

// runServe runs the discovery job server until interrupted, then shuts
// down gracefully: the listener closes, in-flight jobs are cancelled and
// the worker pool drains.
func runServe(addr string, cfg dbre.ServerConfig, prewarm string, out io.Writer) error {
	s := dbre.NewServer(cfg)
	defer s.Close()

	// Warm the resident pool before accepting jobs, so the first job on
	// a prewarmed dataset pays no open latency.
	if prewarm != "" {
		var names []string
		for _, n := range strings.Split(prewarm, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		results, err := s.Prewarm(context.Background(), names)
		for _, r := range results {
			fmt.Fprintf(out, "prewarmed dataset %s: %d relations, %d rows, %s resident in %s\n",
				r.Dataset, r.Relations, r.Rows, fmtBytes(r.Bytes), r.Wall.Round(time.Millisecond))
		}
		if err != nil {
			return fmt.Errorf("-prewarm: %w", err)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-serve: %w", err)
	}
	fmt.Fprintf(out, "dbre job server listening on http://%s/jobs\n", ln.Addr())

	srv := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-serveShutdown:
	case err := <-serveErr:
		return fmt.Errorf("-serve: %w", err)
	}

	fmt.Fprintln(out, "dbre job server shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("-serve shutdown: %w", err)
	}
	return s.Close()
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbre", flag.ContinueOnError)
	schema := fs.String("schema", "", "DDL file (CREATE TABLE statements; INSERTs allowed)")
	data := fs.String("data", "", "directory of <relation>.csv extension files")
	programs := fs.String("programs", "", "directory of application programs (.sql/.cob/.c/...)")
	expertKind := fs.String("expert", "auto", "expert user: auto, interactive or deny")
	format := fs.String("format", "text", "output: text (full report) or dot (EER GraphViz)")
	outData := fs.String("out-data", "", "write the restructured extension as CSV into this directory")
	outSchema := fs.String("out-schema", "", "write the restructured schema + constraints as SQL DDL to this file")
	noClosure := fs.Bool("no-closure", false, "disable transitive closure of equality chains")
	inferKeys := fs.Bool("infer-keys", false, "infer data-supported keys for relations without UNIQUE declarations")
	parallel := fs.Int("parallel", 0, "workers for CSV ingest, the IND/RHS counting phases and Restruct's projections (0 = serial; results identical)")
	sketchOn := fs.Bool("sketch", false, "FD triage: settle certain FD checks from a row sample, escalate the rest (results identical)")
	slack := fs.Float64("slack", 0.98, "auto expert: near-inclusion forcing threshold")
	tolerate := fs.Float64("tolerate", 0, "auto expert: max FD violation rate still enforced")
	snapDir := fs.String("snapshot", "", "persist the ingested database to this snapshot directory and exit (no pipeline)")
	fromSnap := fs.String("from-snapshot", "", "boot warm from a snapshot directory instead of -schema/-data")
	tracePath := fs.String("trace", "", "write a JSON execution trace (spans + counters) to this file")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	serveAddr := fs.String("serve", "", "run the discovery job server on this address (e.g. :8080) instead of a one-shot pipeline")
	serveWorkers := fs.Int("serve-workers", 0, "job server: concurrent pipeline workers (0 = default)")
	jobTTL := fs.Duration("job-ttl", 0, "job server: retention of finished jobs (0 = default 1h)")
	maxJobBytes := fs.Int64("max-job-bytes", 0, "job server: per-job memory ceiling in bytes (0 = default 256MiB)")
	datasets := fs.String("datasets", "", "job server: root directory of named server-side datasets")
	autoAnswer := fs.Duration("auto-answer", 0, "job server: answer unattended expert questions with their defaults after this long (0 = wait)")
	maxResident := fs.Int64("max-resident-bytes", 0, "job server: memory budget of the resident dataset pool (0 = default 1GiB, negative disables the pool)")
	prewarm := fs.String("prewarm", "", "job server: comma-separated snapshot datasets to load into the resident pool at boot, or \"all\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serveAddr != "" {
		return runServe(*serveAddr, dbre.ServerConfig{
			Workers:          *serveWorkers,
			TTL:              *jobTTL,
			MaxJobBytes:      *maxJobBytes,
			DatasetRoot:      *datasets,
			AutoAnswerAfter:  *autoAnswer,
			MaxResidentBytes: *maxResident,
		}, *prewarm, out)
	}
	if *schema == "" && *fromSnap == "" {
		fs.Usage()
		return fmt.Errorf("-schema or -from-snapshot is required")
	}
	if *fromSnap != "" && (*schema != "" || *data != "") {
		return fmt.Errorf("-from-snapshot replaces -schema and -data")
	}

	ctx := context.Background()
	var tracer *dbre.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = dbre.NewTracer("dbre")
		ctx = dbre.WithTracer(ctx, tracer)
	}
	if *debugAddr != "" {
		obs.Publish("dbre.obs", tracer)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: obs.DebugMux()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "debug server on http://%s/debug/vars and /debug/pprof/\n", ln.Addr())
	}

	var db *dbre.Database
	if *fromSnap != "" {
		warm, info, err := dbre.OpenSnapshotContext(ctx, *fromSnap, dbre.SnapshotOptions{})
		if err != nil {
			return err
		}
		defer info.Close()
		fmt.Fprintf(out, "warm start from %s: %d relations, %d rows, %d columns lazy\n",
			*fromSnap, info.Relations, info.Rows, info.LazyColumns)
		if info.WAL != nil && info.WAL.Records > 0 {
			fmt.Fprintf(out, "note: replayed %d WAL records (%d rows) left by an interrupted run\n",
				info.WAL.Records, info.WAL.Rows)
		}
		db = warm
	} else {
		loaded, err := dbre.LoadSQLFile(*schema)
		if err != nil {
			return err
		}
		db = loaded
		if *data != "" {
			violations, err := dbre.LoadCSVDirCtx(ctx, db, *data, *parallel)
			if err != nil {
				return err
			}
			if violations > 0 {
				fmt.Fprintf(out, "note: %d constraint violations tolerated while loading\n", violations)
			}
		}
	}
	if *snapDir != "" {
		if err := dbre.SnapshotContext(ctx, db, *snapDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot written to %s (%d relations, %d rows)\n",
			*snapDir, db.Catalog().Len(), db.TotalRows())
		tracer.Finish()
		return writeTrace(*tracePath, tracer, out)
	}

	var oracle dbre.Oracle
	switch *expertKind {
	case "auto":
		auto := dbre.AutoExpert()
		auto.InclusionSlack = *slack
		auto.MaxViolationRate = *tolerate
		oracle = auto
	case "interactive":
		oracle = dbre.InteractiveExpert(os.Stdin, out)
	case "deny":
		oracle = expert.Deny{}
	default:
		return fmt.Errorf("unknown expert %q", *expertKind)
	}
	rec := dbre.RecordingExpert(oracle)

	opts := dbre.Options{
		Oracle:            rec,
		TransitiveClosure: !*noClosure,
		InferKeys:         *inferKeys,
		Parallelism:       *parallel,
		Sketch:            *sketchOn,
	}
	var report *dbre.Report
	if *programs != "" {
		q, scan, err := dbre.ScanProgramsDirContext(ctx, db, *programs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "programs: files=%d parsed=%d failures=%d, |Q|=%d\n",
			scan.FilesScanned, scan.StatementsFound, scan.ParseFailures, q.Len())
		report, err = dbre.ReverseWithQContext(ctx, db, q, opts)
		if err != nil {
			return err
		}
		report.Scan = *scan
	} else {
		fmt.Fprintln(out, "note: no -programs directory; Q is empty and only K/N are usable")
		var err error
		report, err = dbre.ReverseContext(ctx, db, nil, opts)
		if err != nil {
			return err
		}
	}
	tracer.Finish()

	switch *format {
	case "text":
		fmt.Fprintln(out, report.Text())
		if len(rec.Log) > 0 {
			fmt.Fprintln(out, "\nExpert decisions")
			fmt.Fprintln(out, "----------------")
			for _, d := range rec.Log {
				fmt.Fprintln(out, " ", d)
			}
		}
	case "dot":
		if report.EER == nil {
			return fmt.Errorf("no EER schema produced")
		}
		fmt.Fprint(out, report.EER.DOT())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	if *outData != "" {
		if err := dbre.StoreCSVDir(db, *outData); err != nil {
			return err
		}
		fmt.Fprintf(out, "restructured extension written to %s\n", *outData)
	}
	if *outSchema != "" {
		ddl := dbre.ExportDDL(db, report.Restruct.RIC)
		if err := os.WriteFile(*outSchema, []byte(ddl), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "restructured schema written to %s\n", *outSchema)
	}
	return writeTrace(*tracePath, tracer, out)
}

// writeTrace writes the finished tracer as versioned JSON, if a path was
// requested.
func writeTrace(path string, tracer *dbre.Tracer, out io.Writer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace written to %s\n", path)
	return nil
}
