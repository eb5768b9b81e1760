package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"time"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/relation"
	"dbre/internal/serve"
	"dbre/internal/table"
	"dbre/internal/value"
	"dbre/internal/workload"
)

// batch is one served append: a CSV delta for one fact relation.
type batch struct {
	relation string
	csv      string
}

// deltas generates the append stream of serve-mixed deterministically
// from the seed. Batch k targets fact relation k mod Facts and clones
// appendRows existing tuples with fresh keys, so every dependency keeps
// holding (routine transactions). A seeded few give one cloned tuple a
// fresh value instead: in an embedded dimension attribute, which breaks
// the planted FD fk → attrs, or in a single-attribute foreign key, which
// moves that join's IND evidence (each foreign key at most once, so the
// near-inclusion stays within the automatic expert's slack).
type deltas struct {
	spec    workload.Spec
	facts   []*table.Table
	rng     *rand.Rand
	dangled map[string]bool
	batches []batch
}

var (
	embeddedAttr = regexp.MustCompile(`^f\d+_fk_d\d+_d\d+_a\d+$`)
	singleFK     = regexp.MustCompile(`^f\d+_fk_d\d+$`)
)

func newDeltas(wl *workload.Workload) *deltas {
	// Which batches break what is drawn from the fixed shape seed, so the
	// dependency changes (and what they cost) are the same for every seed;
	// the run's seed still chose the tuple order the batches clone from.
	d := &deltas{spec: wl.Spec, rng: rand.New(rand.NewSource(shapeSeed)), dangled: make(map[string]bool)}
	for f := 0; f < wl.Spec.Facts; f++ {
		d.facts = append(d.facts, wl.DB.MustTable(fmt.Sprintf("F%d", f)))
	}
	return d
}

// get returns batch k, generating the stream up to it.
func (d *deltas) get(k int) (batch, error) {
	for len(d.batches) <= k {
		b, err := d.make(len(d.batches))
		if err != nil {
			return batch{}, err
		}
		d.batches = append(d.batches, b)
	}
	return d.batches[k], nil
}

func (d *deltas) make(k int) (batch, error) {
	src := d.facts[k%len(d.facts)]
	round := k / len(d.facts)
	schema := src.Schema()
	out := table.New(schema)
	breaking := d.rng.Intn(breakEvery) == 0
	for i := 0; i < appendRows; i++ {
		row := append(table.Row(nil), src.Row((round*appendRows+i)%src.Len())...)
		row[0] = value.NewInt(int64(d.spec.FactRows + 1 + round*appendRows + i))
		if breaking && i == 0 {
			d.breakRow(schema.Name, schema.Attrs, row, k)
		}
		out.MustInsert(row)
	}
	var buf bytes.Buffer
	if err := csvio.Store(out, &buf); err != nil {
		return batch{}, err
	}
	return batch{relation: schema.Name, csv: buf.String()}, nil
}

// breakRow plants one fresh value in the tuple (see deltas).
func (d *deltas) breakRow(rel string, attrs []relation.Attribute, row table.Row, k int) {
	var emb, fks []int
	for i, a := range attrs {
		switch {
		case embeddedAttr.MatchString(a.Name):
			emb = append(emb, i)
		case singleFK.MatchString(a.Name) && !d.dangled[rel+"."+a.Name] &&
			(i+1 == len(attrs) || !strings.HasPrefix(attrs[i+1].Name, a.Name+"_sub")):
			fks = append(fks, i)
		}
	}
	if len(fks) > 0 && (len(emb) == 0 || d.rng.Intn(2) == 0) {
		i := fks[d.rng.Intn(len(fks))]
		d.dangled[rel+"."+attrs[i].Name] = true
		row[i] = value.NewInt(int64(d.spec.DimensionRows + 1 + k))
		return
	}
	if len(emb) == 0 {
		return
	}
	i := emb[d.rng.Intn(len(emb))]
	if attrs[i].Type == value.KindString {
		row[i] = value.NewString(fmt.Sprintf("fresh-%d", k))
	} else {
		row[i] = value.NewInt(int64(9_000_000 + k))
	}
}

// appendOutcome is what the check keeps of one served append: the epoch
// it committed and its broken/new dependency lists, rendered.
type appendOutcome struct {
	epoch   uint64
	lists   string
	changed bool
}

func outcome(epoch uint64, brokenFDs, newFDs, brokenINDs, newINDs []string) appendOutcome {
	return appendOutcome{
		epoch:   epoch,
		lists:   fmt.Sprintf("broken FDs %q new FDs %q broken INDs %q new INDs %q", brokenFDs, newFDs, brokenINDs, newINDs),
		changed: len(brokenFDs)+len(newFDs)+len(brokenINDs)+len(newINDs) > 0,
	}
}

func strs[T fmt.Stringer](deps []T) []string {
	var out []string
	for _, d := range deps {
		out = append(out, d.String())
	}
	return out
}

// readerOutcome is what the check keeps of one served reader job.
type readerOutcome struct {
	id     string
	epoch  uint64
	digest [32]byte
}

// shares accumulates the per-append delta shares from AppendStatus.
func noteShares(l *layers, st *serve.AppendStatus) {
	fd := float64(st.FD.Reused + st.FD.DeltaChecked + st.FD.Refuted + st.FD.Escalated)
	if fd > 0 {
		l.note("fd_reused", float64(st.FD.Reused)/fd)
		l.note("fd_delta_checked", float64(st.FD.DeltaChecked)/fd)
		l.note("fd_refuted", float64(st.FD.Refuted)/fd)
		l.note("fd_broken", float64(st.FD.Broken)/fd)
	}
	ind := float64(st.IND.Reused + st.IND.Recounted + st.IND.Redecided)
	if ind > 0 {
		l.note("ind_reused", float64(st.IND.Reused)/ind)
		l.note("ind_recounted", float64(st.IND.Recounted)/ind)
		l.note("ind_redecided", float64(st.IND.Redecided)/ind)
	}
}

func runServeMixed(r *run) error {
	st, err := setup(r, prepareServe(r), (*serveState).release)
	if err != nil {
		return err
	}
	defer st.release()
	rows := st.wl.DB.TotalRows()
	gen := newDeltas(st.wl)
	st.wl = nil

	// The writer's incremental job: the one every append targets.
	writer, err := st.c.runJob()
	if err != nil {
		return fmt.Errorf("writer job: %w", err)
	}
	say("serve-mixed: serving shape, %d tuples; client 0 appends %d-row batches to job %s, client 1 submits incremental discovery jobs",
		rows, appendRows, writer.id)

	var appendLat, tracedAppendLat, jobLat durations
	var appends []appendOutcome
	var readers []readerOutcome
	appendL, jobs := newLayers(), &servedJobs{l: newLayers()}
	traceFrom := time.Now()
	if r.traced {
		traceFrom = traceFrom.Add(r.seconds / 2)
	}
	// The traced half's baselines, read by the writer at its first traced
	// append (the loop's end orders them before their use).
	var p0 poolCounters
	var gc0 gcState
	var srv0 map[string]int64
	var baseline sync.Once

	var loopStart time.Time
	var writerLag time.Duration // summed lateness of the paced writer
	writeOp := func() (time.Duration, error) {
		b, err := gen.get(len(appends))
		if err != nil {
			return 0, err
		}
		// The writer keeps a fixed pace (it waits for each answer, then
		// for its next slot), so every run appends the same batches.
		due := loopStart.Add(time.Duration(len(appends)) * appendEvery)
		if lag := time.Since(due); lag > 0 {
			writerLag += lag
		} else {
			time.Sleep(-lag)
		}
		body, err := json.Marshal(serve.AppendRequest{Relation: b.relation, CSV: b.csv})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		var as serve.AppendStatus
		if err := st.c.do("POST", "/jobs/"+writer.id+"/append", body, &as); err != nil {
			return 0, fmt.Errorf("append %d: %w", len(appends), err)
		}
		lat := time.Since(start)
		appends = append(appends, outcome(as.Epoch, as.BrokenFDs, as.NewFDs, as.BrokenINDs, as.NewINDs))
		if !start.After(traceFrom) || !r.traced {
			appendLat = append(appendLat, lat)
		} else {
			baseline.Do(func() {
				p0, err = st.c.poolStats()
				gc0, srv0 = readGC(), st.srv.Tracer().CounterSnapshot()
			})
			if err != nil {
				return 0, err
			}
			tracedAppendLat = append(tracedAppendLat, lat)
			tr, err := st.c.trace(writer.id)
			if err != nil {
				return 0, err
			}
			appendL.add(tr, lat, lat-time.Duration(tr.Root.DurationUS)*time.Microsecond)
			var reval float64
			for _, c := range tr.Root.Children {
				if !strings.HasPrefix(c.Name, "ingest:") {
					reval += float64(c.DurationUS) / 1000
				}
			}
			appendL.note("revalidate_ms", reval)
			noteShares(appendL, &as)
		}
		return lat, nil
	}
	readOp := func() (time.Duration, error) {
		res, err := st.c.runJob()
		if err != nil {
			if _, ok := err.(errRefused); ok {
				jobs.refused++
			}
			return 0, err
		}
		readers = append(readers, readerOutcome{res.id, res.epoch, sha256.Sum256([]byte(res.report))})
		if res.submit.After(traceFrom) && r.traced {
			if err := jobs.record(st.c, res); err != nil {
				return 0, err
			}
		}
		jobLat = append(jobLat, res.latency)
		return res.latency, nil
	}
	loopStart = time.Now()
	lat, errs, wall := closedLoop(2, r.seconds, func(c int) (time.Duration, error) {
		if c == 0 {
			return writeOp()
		}
		return readOp()
	})
	r.account(lat, errs)
	if r.traced {
		r.setRuntime(gc0, appendL.ops+jobs.l.ops)
		appendL.addServer(srv0, st.srv.Tracer().CounterSnapshot(), appendL.ops+jobs.l.ops)
		say("reader jobs:")
		if err := jobs.set(r, st.c, p0); err != nil {
			return err
		}
		// The append path is what this workload is gated on: its self
		// times and counters replace the reader jobs' figures.
		say("appends:")
		r.traceOverhead(appendLat, tracedAppendLat)
		appendL.printSelf(r)
		r.setCounters(appendL)
		r.set("csvio.append_ms", appendL.span("ingest"), "ms")
		r.set("core.revalidate_ms", median(appendL.extra["revalidate_ms"]), "ms")
		for _, s := range [][2]string{
			{"fd_reused", "core.fd_reused_share"}, {"fd_delta_checked", "core.fd_delta_checked_share"},
			{"fd_refuted", "core.fd_refuted_share"}, {"fd_broken", "core.fd_broken_share"},
			{"ind_reused", "core.ind_reused_share"}, {"ind_recounted", "core.ind_recounted_share"},
			{"ind_redecided", "core.ind_redecided_share"},
		} {
			r.set(s[1], appendL.mean(s[0]), "ratio")
		}
	} else {
		// p50_ms is the writer's append latency; the writer is paced, so
		// ops_per_s is the closed-loop readers' job throughput beside it.
		r.setLatency("append", "appends_per_s", appendLat, wall)
		say("paced writer: %d appends due every %v, %.3f ms late on average", len(appends), appendEvery,
			ms(writerLag)/float64(max(1, len(appends))))
		r.setLatency("job", "jobs_per_s", jobLat, wall)
		r.set("p50_ms", ms(appendLat.quantile(0.5)), "ms")
		st.waitEvicted()
		gen = nil
		r.setHeap()
	}
	return checkMixed(r, writer, appends, readers)
}

// checkMixed replays the run's append sequence in process — the same
// batches through csvio and core.Incremental over a freshly generated
// database — and checks every served append's broken/new lists and
// every reader's report against the replay at the reader's epoch.
func checkMixed(r *run, writer jobResult, appends []appendOutcome, readers []readerOutcome) error {
	start := time.Now()
	wl, err := generate(servingSpec(), r.seed)
	if err != nil {
		return err
	}
	gen := newDeltas(wl)
	inc, err := core.DiscoverIncrementalPrograms(context.Background(), wl.DB, wl.Programs, referenceOptions())
	if err != nil {
		return err
	}
	want := map[uint64][32]byte{writer.epoch: sha256.Sum256([]byte(stripVolatile(inc.Report().Text())))}
	if got := sha256.Sum256([]byte(writer.report)); got != want[writer.epoch] {
		r.fail("writer job %s initial report differs from the in-process discovery", writer.id)
	}
	for k, out := range appends {
		b, err := gen.get(k)
		if err != nil {
			return err
		}
		tab := wl.DB.MustTable(b.relation)
		if _, err := csvio.LoadCtx(context.Background(), tab, strings.NewReader(b.csv), false, csvio.Options{}); err != nil {
			return err
		}
		dr, err := inc.Revalidate(context.Background())
		if err != nil {
			return err
		}
		replay := outcome(out.epoch, strs(dr.BrokenFDs), strs(dr.NewFDs), strs(dr.BrokenINDs), strs(dr.NewINDs))
		if replay.lists != out.lists {
			r.fail("append %d: served %s, in-process replay %s", k, out.lists, replay.lists)
		}
		want[out.epoch] = sha256.Sum256([]byte(stripVolatile(inc.Report().Text())))
	}
	changed := 0
	for _, out := range appends {
		if out.changed {
			changed++
		}
	}
	for _, rd := range readers {
		w, ok := want[rd.epoch]
		switch {
		case !ok:
			r.fail("reader job %s saw epoch %d, which no append committed", rd.id, rd.epoch)
		case w != rd.digest:
			r.fail("reader job %s report at epoch %d differs from the in-process replay", rd.id, rd.epoch)
		}
	}
	say("check: %d appends (%d changed dependencies) and %d reader jobs checked against the in-process replay (%.1fs)",
		len(appends), changed, len(readers), time.Since(start).Seconds())
	return nil
}
