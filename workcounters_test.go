package dbre

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/obs"
	"dbre/internal/relation"
	"dbre/internal/stats"
	"dbre/internal/storage"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// benchShape generates the end-to-end benchmark's shape spec from the
// fixed shape seed 42, with every relation's tuples in an order drawn
// from seed — the database e2ebench measures at that seed.
func benchShape(t *testing.T, spec workload.Spec, seed int64) *workload.Workload {
	t.Helper()
	spec.Seed = 42
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(wl.DB.Catalog())
	for _, name := range wl.DB.Catalog().Names() {
		src, dst := wl.DB.MustTable(name), db.MustTable(name)
		for _, i := range rng.Perm(src.Len()) {
			dst.MustInsert(src.Row(i))
		}
	}
	wl.DB = db
	return wl
}

// wideShape is the end-to-end benchmark's wide shape (e2ebench
// wideSpec: 12 dimensions, 8 facts of 2,500 tuples), the database
// e2ebench's oneshot and discover-cold workloads measure.
func wideShape(t *testing.T, seed int64) *workload.Workload {
	return benchShape(t, workload.Spec{
		Dimensions: 12, Facts: 8, FKsPerFact: 4, AttrsPerDimension: 4,
		DimensionRows: 2000, FactRows: 2500, CompositeDims: 3,
		EmbedProb: 0.8, DropProb: 0.3, Corruption: 0.01,
		NearMissAttrs: 2, NearMissNoise: 0.002, FarMissAttrs: 4, ProgramsPerJoin: 1,
	}, seed)
}

// TestWideShapeWorkCounters pins the deterministic work counters of
// discovery on the wide shape, run as e2ebench's discover-cold runs it:
// a lazy snapshot open, then discovery with a fresh statistics cache,
// the automatic expert, closure on, two workers and the FD triage on.
// The counts are the paper's cost measure (§6.1: three extension
// queries per equi-join) plus the FD and projection kernels' work, so a
// change that alters any of them changes what the pipeline does, at
// every seed alike.
func TestWideShapeWorkCounters(t *testing.T) {
	want := []struct {
		c obs.Counter
		n int64
	}{
		{obs.CtrDistinctQueries, 99},
		{obs.CtrFDChecks, 770},
		{obs.CtrRowsScanned, 536000},
		{obs.CtrRefinements, 8},
		{obs.CtrSketchPrunes, 662},
		{obs.CtrSketchEscalations, 108},
	}
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wl := wideShape(t, seed)
			dir := filepath.Join(t.TempDir(), "snap")
			if err := storage.Snapshot(wl.DB, dir); err != nil {
				t.Fatal(err)
			}
			db, info, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer info.Close()
			tr := obs.NewTracer("wide")
			opts := core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Parallelism: 2, Sketch: true, Stats: stats.NewCache(db)}
			if _, err := core.DiscoverIncrementalPrograms(obs.NewContext(context.Background(), tr), db, wl.Programs, opts); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			for _, w := range want {
				if got := tr.Count(w.c); got != w.n {
					t.Errorf("%s = %d, want %d", w.c, got, w.n)
				}
			}
		})
	}
}

// TestB12KernelMix pins the refinement kernel mix of cmd/bench's B12 run
// (BENCH_B12.json's exact counters): RHS-Discovery through a traced
// statistics cache on the composite-key workload — 100k fact tuples,
// three composite-key dimensions, heavy embedding — runs its six
// refinement steps through the dense remapping table and none through
// the map fallback.
func TestB12KernelMix(t *testing.T) {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000
	spec.CompositeDims = 3
	spec.EmbedProb = 0.9
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	tr := obs.NewTracer("b12")
	cache := stats.NewCache(wl.DB)
	cache.SetTracer(tr)
	if _, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache}); err != nil {
		t.Fatal(err)
	}
	if dense, mapped := tr.Count(obs.CtrRefineDense), tr.Count(obs.CtrRefineMap); dense != 6 || mapped != 0 {
		t.Errorf("refinement steps: %d dense, %d map; want 6 dense, 0 map", dense, mapped)
	}
}

// TestB9CacheCounters pins cmd/bench B9's six exact counters
// (BENCH_B9.json): IND-Discovery and RHS-Discovery, each run serially
// through a fresh statistics cache on the 100k-fact-tuple default
// workload at seed 42, after one untimed pass through a throwaway cache
// as the bench runs them. The hits and misses are the cache's work; the
// distinct queries and FD checks are the extension work it answers for.
func TestB9CacheCounters(t *testing.T) {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := ScanPrograms(wl.DB, wl.Programs)
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	indLeg := func(cache *stats.Cache) *ind.Result {
		res, err := ind.DiscoverCtx(context.Background(), wl.DB, q, expert.Deny{}, ind.Opts{Stats: cache})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rhsLeg := func(cache *stats.Cache) *fd.Result {
		res, err := fd.DiscoverRHSCtx(context.Background(), wl.DB, lhs, nil, expert.Deny{}, fd.Opts{Stats: cache})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	indLeg(stats.NewCache(wl.DB))
	indCache := stats.NewCache(wl.DB)
	indRes := indLeg(indCache)
	rhsLeg(stats.NewCache(wl.DB))
	rhsCache := stats.NewCache(wl.DB)
	rhsRes := rhsLeg(rhsCache)
	im, rm := indCache.Metrics(), rhsCache.Metrics()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"ind_stats_hits", im.Hits, 30},
		{"ind_stats_misses", im.Misses, 18},
		{"distinct_queries", uint64(indRes.ExtensionQueries), 36},
		{"rhs_stats_hits", rm.Hits, 131},
		{"rhs_stats_misses", rm.Misses, 31},
		{"fd_checks", uint64(rhsRes.ExtensionChecks), 81},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestB14SketchPrunes pins cmd/bench B14's exact counter
// (BENCH_B14.json): on B14's far-miss workload (100k fact tuples, 16
// far-miss attributes per dimension), RHS-Discovery with the row-sample
// triage on settles 160 FD checks without the exact kernel.
func TestB14SketchPrunes(t *testing.T) {
	wl, err := workload.Generate(workload.Spec{
		Seed: 42, Dimensions: 4, Facts: 4, FKsPerFact: 2, AttrsPerDimension: 2,
		DimensionRows: 2000, FactRows: 25000, ProgramsPerJoin: 1,
		FarMissAttrs: 16, NearMissAttrs: 2, NearMissNoise: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wl.DB.Catalog().Names() {
		wl.DB.MustTable(name).SampleRows()
	}
	var lhs []relation.Ref
	for _, l := range wl.Truth.Links {
		lhs = append(lhs, relation.NewRef(l.Fact, l.FKs...))
	}
	tr := obs.NewTracer("b14")
	if _, err := fd.DiscoverRHSCtx(obs.NewContext(context.Background(), tr), wl.DB, lhs, nil,
		expert.Deny{}, fd.Opts{Stats: stats.NewCache(wl.DB), Sketch: true}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(obs.CtrSketchPrunes); got != 160 {
		t.Errorf("sketch-prunes = %d, want 160", got)
	}
}

// TestB16DeltaRefines pins cmd/bench B16's two exact counters
// (BENCH_B16.json): after an incremental discovery of the clean
// 100k-fact-tuple workload, five rounds each append 1,000 rows (1% of
// each fact relation, cloned under fresh keys) and re-validate, and the
// warm statistics cache serves 25 projection builds by extending a
// cached partition over the delta.
func TestB16DeltaRefines(t *testing.T) {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000
	spec.Corruption = 0
	spec.CompositeDims = 2
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := stats.NewCache(wl.DB)
	inc, err := core.DiscoverIncrementalPrograms(ctx, wl.DB, wl.Programs,
		core.Options{Oracle: expert.NewAuto(), TransitiveClosure: true, Parallelism: 8, Stats: cache})
	if err != nil {
		t.Fatal(err)
	}
	deltaPerFact := spec.FactRows / 100
	nextID := int64(spec.FactRows + 1)
	for r := 0; r < 5; r++ {
		appended := 0
		for f := 0; f < spec.Facts; f++ {
			tab := wl.DB.MustTable(fmt.Sprintf("F%d", f))
			enc := table.NewChunkEncoder(tab)
			for i := 0; i < deltaPerFact; i++ {
				row := append(table.Row(nil), tab.Row(i)...)
				row[0] = value.NewInt(nextID + int64(i))
				if err := enc.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			appended += enc.Len()
			if viol, err := tab.NewAppender().AppendBatch(enc, true); err != nil || viol != 0 {
				t.Fatalf("round %d: append: %d violations, %v", r, viol, err)
			}
		}
		if appended != 1000 {
			t.Errorf("round %d: %d delta rows, want 1000", r, appended)
		}
		nextID += int64(deltaPerFact)
		if _, err := inc.Revalidate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Metrics().DeltaHits; got != 25 {
		t.Errorf("delta refines = %d, want 25", got)
	}
}

// ingestShape is cmd/bench's B13/B15 extension: the default workload at
// seed 42 with 100k fact tuples and 2% corruption, stored as CSV into
// dir and loaded back through the 8-worker parallel loader under tr.
func ingestShape(t *testing.T, dir string, tr *obs.Tracer) *table.Database {
	t.Helper()
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000 // 4 fact relations ⇒ 100k fact tuples
	spec.Corruption = 0.02
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := csvio.Options{Parallelism: 8}
	if err := csvio.StoreDirCtx(context.Background(), wl.DB, dir, opts); err != nil {
		t.Fatal(err)
	}
	db := table.NewDatabase(wl.DB.Catalog().Clone())
	if _, err := csvio.LoadDirCtx(obs.NewContext(context.Background(), tr), db, dir, false, opts); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestB13IngestCounters pins cmd/bench B13's exact counters
// (BENCH_B13.json): the parallel load of the B13 extension parses 10
// chunks and merges no chunk dictionary into a global one — every
// relation is one chunk, adopted by its empty table.
func TestB13IngestCounters(t *testing.T) {
	tr := obs.NewTracer("b13")
	ingestShape(t, t.TempDir(), tr)
	if chunks, remaps := tr.Count(obs.CtrIngestChunks), tr.Count(obs.CtrIngestMergeRemaps); chunks != 10 || remaps != 0 {
		t.Errorf("ingest: %d chunks, %d merge remaps; want 10 chunks, 0 remaps", chunks, remaps)
	}
}

// TestB15SnapshotBytes pins cmd/bench B15's exact counters
// (BENCH_B15.json) and more: the snapshot of the B13 extension is
// 4,648,208 bytes with the SHA-256 below, and a lazy open leaves all 59
// column sections on disk. Snapshot bytes are deterministic (catalog
// order, sorted map keys, no timestamps), so the digest pins the on-disk
// encoding of every dictionary and counter, not only its size.
func TestB15SnapshotBytes(t *testing.T) {
	const (
		wantSize = 4648208
		wantSHA  = "6cc3927b7c11dd87f792b957456bdfebe26e5c55f63c659e8ad69fa5250bf9a9"
	)
	dir := t.TempDir()
	db := ingestShape(t, filepath.Join(dir, "csv"), obs.NewTracer("b15"))
	snap := filepath.Join(dir, "snap")
	if err := storage.Snapshot(db, snap); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(snap, storage.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wantSize {
		t.Errorf("snapshot: %d bytes, want %d", len(b), wantSize)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != wantSHA {
		t.Errorf("snapshot SHA-256 %s, want %s", got, wantSHA)
	}
	_, info, err := storage.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	if info.LazyColumns != 59 {
		t.Errorf("lazy open: %d column sections deferred, want 59", info.LazyColumns)
	}
}

// TestServeWarmWorkCounters pins the per-job work counters of
// e2ebench's serve-warm workload at seed 42: the serving shape (e2ebench
// servingSpec: 25k tuples per fact relation, clean composite-key links) snapshotted as a
// dataset, prewarmed into the job server's resident pool, and warmed by
// one incremental discovery job. The next such job answers every FD
// check from the pool's shared support memo and every count from its
// shared projections: it scans no row and refines no partition. Each
// counter is read as e2ebench reads it: the job trace's count plus the
// server tracer's change over the job.
func TestServeWarmWorkCounters(t *testing.T) {
	want := []struct {
		c obs.Counter
		n int64
	}{
		{obs.CtrDistinctQueries, 36},
		{obs.CtrFDChecks, 64},
		{obs.CtrRowsScanned, 0},
		{obs.CtrRefinements, 0},
		{obs.CtrSharedCacheHits, 112},
	}
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000
	spec.Corruption = 0
	spec.CompositeDims = 2
	spec.EmbedProb = 0.1
	wl := benchShape(t, spec, 42)
	root := t.TempDir()
	if err := Snapshot(wl.DB, filepath.Join(root, "w")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Workers: 2, QueueDepth: 4, TTL: time.Minute, DatasetRoot: root})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	if _, err := srv.Prewarm(context.Background(), []string{"w"}); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(JobSpec{Dataset: "w", Programs: wl.Programs, Incremental: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	serveJob(t, ts.URL, body) // warm the pool's shared statistics cache
	before := srv.Tracer().CounterSnapshot()
	id := serveJob(t, ts.URL, body)
	after := srv.Tracer().CounterSnapshot()
	var tr obs.Trace
	serveDo(t, "GET", ts.URL+"/jobs/"+id+"/trace", nil, &tr)
	for _, w := range want {
		// A job's own tracer counts its work; the pool's shared cache
		// counts what it answers for the job on the server's tracer.
		name := w.c.String()
		if got := tr.Counters[name] + after[name] - before[name]; got != w.n {
			t.Errorf("%s = %d, want %d", w.c, got, w.n)
		}
	}
}

// TestB17SharedCacheHits pins B17's exact counter (cmd/bench runB17's
// warm leg): on a resident-pool server, one pool-miss job and four warm
// incremental jobs over the 100k-tuple serving workload answer 586
// statistics lookups from the pool's shared cache.
func TestB17SharedCacheHits(t *testing.T) {
	spec := workload.DefaultSpec(42)
	spec.FactRows = 25000
	spec.Corruption = 0
	spec.CompositeDims = 2
	spec.EmbedProb = 0.1
	wl, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := Snapshot(wl.DB, filepath.Join(root, "w")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{DatasetRoot: root})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	body, err := json.Marshal(JobSpec{Dataset: "w", Programs: wl.Programs, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		serveJob(t, ts.URL, body)
	}
	if got := srv.Tracer().Count(obs.CtrSharedCacheHits); got != 586 {
		t.Errorf("%s = %d, want 586", obs.CtrSharedCacheHits, got)
	}
}

// serveDo sends one request to the job server and decodes its JSON
// answer into out, failing the test on any error or non-2xx status.
func serveDo(t *testing.T, method, url string, in []byte, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %s %s %v", method, url, resp.Status, data, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

// serveJob submits one job and polls it to completion, returning its id.
func serveJob(t *testing.T, base string, body []byte) string {
	t.Helper()
	var st JobStatus
	serveDo(t, "POST", base+"/jobs", body, &st)
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job %s finished %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
		serveDo(t, "GET", base+"/jobs/"+st.ID, nil, &st)
	}
	return st.ID
}
