// Package dbre reverse-engineers denormalized relational databases, after
// J-M. Petit, F. Toumani, J-F. Boulicaut and J. Kouloumdjian, "Towards the
// Reverse Engineering of Denormalized Relational Databases", ICDE 1996.
//
// Given a database in operation — a schema that is merely 1NF, its
// extension, and the application programs written against it — the method
// elicits the data semantics the dictionary never declared and rebuilds a
// 3NF schema with key and referential-integrity constraints, then an EER
// conceptual schema:
//
//  1. K and N (keys, NOT NULLs) are read off the data dictionary;
//  2. the equi-join set Q is extracted from the application programs
//     (SQL scripts, COBOL EXEC SQL blocks, embedded-C strings);
//  3. IND-Discovery checks each equi-join against the extension and
//     elicits inclusion dependencies, escalating non-empty intersections
//     to the expert user;
//  4. LHS-Discovery / RHS-Discovery elicit the functional dependencies
//     that matter for restructuring, plus hidden objects;
//  5. Restruct normalizes to 3NF and computes referential integrity
//     constraints; Translate maps the result to EER structures.
//
// The usual entry point is Reverse:
//
//	db, err := dbre.LoadSQLFile("legacy.sql")
//	...
//	report, err := dbre.Reverse(db, programs, dbre.DefaultOptions())
//	fmt.Println(report.Text())
//	fmt.Println(report.EER.DOT())
//
// The expert user of the paper is the Oracle interface: AutoExpert for
// unattended runs, InteractiveExpert for a terminal session, or any custom
// implementation.
//
// Around the one-shot pipeline the package exposes the rest of the
// toolkit. LoadCSVDirCtx ingests extensions with parallel batched
// loading (state identical to serial at any setting). Options.Sketch
// puts the FD triage (refutation from a deterministic row sample, built
// on first read) in front of the exact FD checks without changing any
// result. NewServer runs discovery as a
// service: asynchronous jobs over an HTTP/JSON API with
// the expert dialogue escalated to API questions. Snapshot and
// OpenSnapshot persist the columnar engine to a checksummed binary
// snapshot plus a write-ahead log (docs/storage-format.md), so
// restarted sessions boot warm and crashed journaled ingests recover
// by replay. WithTracer threads observability — hierarchical spans and
// typed counters — through any of the above.
package dbre

import (
	"context"
	"fmt"
	"io"
	"os"

	"dbre/internal/appscan"
	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/deps"
	"dbre/internal/eer"
	"dbre/internal/expert"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/restruct"
	"dbre/internal/serve"
	"dbre/internal/sql/exec"
	"dbre/internal/storage"
	"dbre/internal/table"
)

// Re-exported building blocks. The aliases are the same types the internal
// packages use, so the whole toolkit interoperates.
type (
	// Database binds a catalog (schemas, keys, NOT NULLs) to its
	// extension.
	Database = table.Database
	// Catalog is the set of relation schemas under analysis.
	Catalog = relation.Catalog
	// Schema describes one relation.
	Schema = relation.Schema
	// AttrSet is a set of attribute names.
	AttrSet = relation.AttrSet
	// Ref is a qualified attribute set R.X.
	Ref = relation.Ref
	// FD is a functional dependency.
	FD = deps.FD
	// IND is an inclusion dependency.
	IND = deps.IND
	// EquiJoin is one element of the program-derived join set Q.
	EquiJoin = deps.EquiJoin
	// JoinSet is the set Q.
	JoinSet = deps.JoinSet
	// Oracle models the expert user validating the method's presumptions.
	Oracle = expert.Oracle
	// Options configures a Reverse run.
	Options = core.Options
	// Report carries every artifact of a Reverse run, phase by phase.
	Report = core.Report
	// EERSchema is the translated conceptual schema.
	EERSchema = eer.Schema
	// ScanReport aggregates program-scanning statistics.
	ScanReport = appscan.Report
	// Tracer observes a pipeline run: hierarchical phase spans plus the
	// typed counter inventory (rows scanned, cache hits, INDs tested, ...).
	// Install one with WithTracer; read it back from Report.Trace, render
	// it with Render, or export it with WriteJSON.
	Tracer = obs.Tracer
	// Server is the discovery-as-a-service job server: an http.Handler
	// accepting JobSpec submissions, running them asynchronously on a
	// bounded worker pool, and exposing status, progress, the expert
	// dialogue and the finished artifacts over JSON. See NewServer.
	Server = serve.Server
	// ServerConfig sizes a Server (workers, queue depth, TTL, ceilings).
	ServerConfig = serve.Config
	// JobSpec is the JSON submission payload of POST /jobs.
	JobSpec = serve.JobSpec
	// JobStatus is the JSON status view of a submitted job.
	JobStatus = serve.JobStatus
	// SnapshotInfo describes an opened snapshot (relations, rows, lazy
	// columns, WAL replay stats) and owns the open file handle backing
	// lazy column loads; Close it when the database is done. See
	// OpenSnapshot.
	SnapshotInfo = storage.OpenInfo
	// SnapshotOptions configures OpenSnapshotContext (eager preload).
	SnapshotOptions = storage.Options
)

// NewServer starts a discovery job server: its worker pool and TTL
// janitor begin immediately, and the returned value serves the HTTP API
// under any http.Server (it implements http.Handler). Close it to
// cancel in-flight jobs and drain the pool. The zero ServerConfig is
// production-ready; see its fields for the knobs.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// NewTracer creates a tracer whose root span carries the given name.
// Call Finish when the traced work is done, then Render or WriteJSON.
func NewTracer(name string) *Tracer { return obs.NewTracer(name) }

// WithTracer installs a tracer into the context so ReverseContext (and
// every instrumented phase beneath it) records spans and counters into it.
// A nil tracer returns ctx unchanged, keeping the run untraced at zero
// cost.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.NewContext(ctx, t)
}

// DefaultOptions returns the paper's setting with an automatic expert.
func DefaultOptions() Options { return core.DefaultOptions() }

// AutoExpert returns the default policy-driven expert: trusts the
// extension, conceptualizes NEIs and hidden objects, never forces refuted
// dependencies. Tune its exported fields to change the policy.
func AutoExpert() *expert.Auto { return expert.NewAuto() }

// InteractiveExpert returns an expert that prompts a human on the given
// streams (the paper's interactive sessions).
func InteractiveExpert(in io.Reader, out io.Writer) Oracle {
	return expert.NewInteractive(in, out)
}

// RecordingExpert wraps another oracle and keeps an audit log of every
// decision; read the log from the returned value's Log field.
func RecordingExpert(inner Oracle) *expert.Recording { return expert.NewRecording(inner) }

// LoadSQL builds a database from a script of CREATE TABLE and INSERT
// statements (a dictionary dump plus unloaded data).
func LoadSQL(script string) (*Database, error) {
	db, errs := exec.LoadScript(script)
	if len(errs) > 0 {
		return db, fmt.Errorf("dbre: loading script: %w (and %d more)", errs[0], len(errs)-1)
	}
	return db, nil
}

// LoadSQLFile is LoadSQL over a file.
func LoadSQLFile(path string) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadSQL(string(data))
}

// LoadCSVDir fills the database's relations from <relation>.csv files in
// dir. Constraint violations are tolerated (legacy extensions are dirty by
// assumption) and returned as a count.
func LoadCSVDir(db *Database, dir string) (violations int, err error) {
	return csvio.LoadDir(db, dir, false)
}

// LoadCSVDirCtx is LoadCSVDir with parallel batched ingest: relations and
// record-aligned chunks within each file are parsed on up to parallelism
// workers (0 or 1 = serial) and merged through the columnar batch
// appender. The loaded engine state is identical to the serial loader's
// at any setting. A tracer installed in ctx (WithTracer) observes ingest
// spans and the ingest-* counters.
func LoadCSVDirCtx(ctx context.Context, db *Database, dir string, parallelism int) (violations int, err error) {
	return csvio.LoadDirCtx(ctx, db, dir, false, csvio.Options{Parallelism: parallelism})
}

// EnableSketches does nothing. The FD triage that Options.Sketch turns
// on reads only the deterministic row sample, which every table builds
// on its first read with no configuration.
//
// Deprecated: set Options.Sketch alone; the column sketches this call
// enabled, and its knobs, are gone.
func EnableSketches(db *Database, precision, signatureK int) {}

// Snapshot persists the database's entire columnar engine state to dir
// as a checksummed binary snapshot (format: docs/storage-format.md) and
// resets the directory's write-ahead log, so a later OpenSnapshot boots
// warm — bit-identical to the live engine — instead of re-ingesting.
// The write is atomic: a crash mid-snapshot leaves the previous snapshot
// (or none) intact.
func Snapshot(db *Database, dir string) error {
	return storage.Snapshot(db, dir)
}

// SnapshotContext is Snapshot with observability threaded through the
// context: a tracer installed with WithTracer records the "snapshot"
// span and the snapshot-sections counter.
func SnapshotContext(ctx context.Context, db *Database, dir string) error {
	return storage.SnapshotCtx(ctx, db, dir)
}

// OpenSnapshot boots a database warm from a snapshot directory written
// by Snapshot, verifying every section checksum up front and replaying
// any write-ahead log bound to the snapshot (deltas appended after the
// snapshot by a run that crashed or was restarted). Columns load lazily
// on first touch through the returned info's file handle — keep info
// open for the database's lifetime, or call info.Close after preloading.
// Corruption surfaces as a typed *storage.CorruptError naming the
// damaged section, never as silently divergent data.
func OpenSnapshot(dir string) (*Database, *SnapshotInfo, error) {
	return storage.Open(dir)
}

// OpenSnapshotContext is OpenSnapshot with options and observability:
// opts.Preload loads every column eagerly and closes the file before
// returning, and a tracer installed in ctx records the open-snapshot
// span plus the wal-records-replayed / wal-rows-replayed counters.
func OpenSnapshotContext(ctx context.Context, dir string, opts SnapshotOptions) (*Database, *SnapshotInfo, error) {
	return storage.OpenCtx(ctx, dir, opts)
}

// StoreCSVDir writes every relation of the database to <relation>.csv
// files in dir — e.g. to persist a restructured extension.
func StoreCSVDir(db *Database, dir string) error {
	return csvio.StoreDir(db, dir)
}

// StoreCSVDirCtx is StoreCSVDir writing up to parallelism relations
// concurrently (0 or 1 = serial).
func StoreCSVDirCtx(ctx context.Context, db *Database, dir string, parallelism int) error {
	return csvio.StoreDirCtx(ctx, db, dir, csvio.Options{Parallelism: parallelism})
}

// ScanProgramsDir walks a directory of application programs (.sql, .cob,
// .c, ...) and extracts the equi-join set Q against the database's catalog.
func ScanProgramsDir(db *Database, dir string) (*JoinSet, *ScanReport, error) {
	return ScanProgramsDirContext(context.Background(), db, dir)
}

// ScanProgramsDirContext is ScanProgramsDir with observability threaded
// through the context: with a tracer installed (WithTracer) the walk
// becomes a "scan" span with one "scan-file" child per program, matching
// the phase ReverseContext would record had the programs been passed to
// it directly.
func ScanProgramsDirContext(ctx context.Context, db *Database, dir string) (*JoinSet, *ScanReport, error) {
	sctx, sp := obs.StartSpan(ctx, "scan")
	defer sp.End()
	var rep ScanReport
	snippets, err := appscan.ScanDirCtx(sctx, dir, &rep)
	if err != nil {
		return nil, &rep, err
	}
	q := appscan.NewExtractor(db.Catalog()).ExtractQ(snippets)
	sp.SetInt("files", int64(rep.FilesScanned))
	sp.SetInt("joins", int64(q.Len()))
	return q, &rep, nil
}

// ScanPrograms extracts Q from in-memory program sources (name → text).
func ScanPrograms(db *Database, programs map[string]string) (*JoinSet, *ScanReport) {
	var rep ScanReport
	var snippets []appscan.Snippet
	for name, src := range programs {
		snippets = append(snippets, appscan.ScanSource(name, src, &rep)...)
	}
	q := appscan.NewExtractor(db.Catalog()).ExtractQ(snippets)
	return q, &rep
}

// Reverse runs the complete pipeline: program scanning, IND-Discovery,
// LHS/RHS-Discovery, Restruct and Translate. The database is modified in
// place (new relations, attribute splits, data migration); clone it first
// if the original must survive.
func Reverse(db *Database, programs map[string]string, opts Options) (*Report, error) {
	return core.Run(db, programs, opts)
}

// ReverseContext is Reverse with observability threaded through the
// context: install a tracer with WithTracer to record one span per
// pipeline phase, nested algorithm sub-spans and the counter inventory;
// the finished tracer is echoed in Report.Trace. A plain context behaves
// exactly like Reverse.
func ReverseContext(ctx context.Context, db *Database, programs map[string]string, opts Options) (*Report, error) {
	return core.RunContext(ctx, db, programs, opts)
}

// ReverseWithQ runs the pipeline with a pre-extracted join set, matching
// the paper's assumption that Q "has been computed".
func ReverseWithQ(db *Database, q *JoinSet, opts Options) (*Report, error) {
	return core.RunWithQ(db, q, opts, nil)
}

// ReverseWithQContext is ReverseWithQ with observability threaded through
// the context; see ReverseContext.
func ReverseWithQContext(ctx context.Context, db *Database, q *JoinSet, opts Options) (*Report, error) {
	return core.RunWithQContext(ctx, db, q, opts, nil)
}

// ExportDDL renders a restructured database and its referential integrity
// constraints as standard SQL (CREATE TABLE + ALTER TABLE ... ADD FOREIGN
// KEY) — the "front-end to existing DBRE methods" output format. Pass the
// database and RIC from a completed Reverse run.
func ExportDDL(db *Database, ric []IND) string {
	return restruct.ExportDDL(db.Catalog(), ric)
}
