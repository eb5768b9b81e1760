package main

import (
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"dbre/internal/obs"
)

// closedLoop runs op on n client goroutines until d has elapsed: each
// client issues its next operation as soon as the previous one returns,
// and stops once the deadline has passed. op returns the latency it
// observed (it may exclude its own output checks) or an error.
func closedLoop(n int, d time.Duration, op func(client int) (time.Duration, error)) (lat durations, errs []error, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l, err := op(c)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					lat = append(lat, l)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, errs, time.Since(start)
}

// traceOverhead prints the traced-minus-untraced median latency.
func (r *run) traceOverhead(untraced, traced durations) {
	u, t := untraced.quantile(0.5), traced.quantile(0.5)
	say("tracing overhead = %.3f ms/op (traced median %.3f ms over %d ops minus untraced median %.3f ms over %d ops)",
		ms(t-u), ms(t), len(traced), ms(u), len(untraced))
}

// account adds a loop's operations to the run's totals.
func (r *run) account(lat durations, errs []error) {
	r.attempted += len(lat) + len(errs)
	for _, err := range errs {
		r.fail("%v", err)
	}
}

// layerOf maps a span name to the layer that owns it; "" inherits the
// parent's layer (decide spans exist in both ind and fd).
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "ingest:"), name == "load-dir", name == "store-dir":
		return "csvio"
	case name == "scan", name == "scan-file":
		return "appscan"
	case name == "open-snapshot", name == "snapshot":
		return "storage"
	case name == "constraints":
		return "core"
	case name == "ind-discovery", name == "count", name == "count-delta":
		return "ind"
	case name == "rhs-discovery", name == "plan", name == "check", name == "plan-delta",
		name == "check-delta", name == "infer-keys":
		return "fd"
	case name == "lhs-discovery", name == "restruct", name == "hidden-objects",
		name == "fd-splits", name == "ric":
		return "restruct"
	case name == "translate":
		return "eer"
	case name == "decide", name == "decide-delta":
		return ""
	}
	return "other"
}

// layerNames is the print order of the self-time table.
var layerNames = []string{"csvio", "storage", "appscan", "core", "ind", "fd", "restruct", "eer", "serve"}

// layers aggregates the traced operations of one run: per-layer self
// time, per-operation span durations by name, and per-operation counters.
type layers struct {
	mu     sync.Mutex
	ops    int
	wall   time.Duration
	self   map[string]time.Duration
	spans  map[string][]float64 // span name → per-op total, ms
	counts map[string][]int64   // counter → per-op value
	extra  map[string][]float64 // benchmark-side per-op figures
	server map[string]float64   // server-wide counter growth per op
}

func newLayers() *layers {
	return &layers{
		self:   make(map[string]time.Duration),
		spans:  make(map[string][]float64),
		counts: make(map[string][]int64),
		extra:  make(map[string][]float64),
	}
}

// spanKey folds per-relation span names ("ingest:F3") into one key.
func spanKey(name string) string {
	if i := strings.IndexByte(name, ':'); i > 0 && !strings.HasPrefix(name, "bench:") {
		return name[:i]
	}
	return name
}

// add folds one traced operation in. wall is the operation's end-to-end
// latency; served is the part of it a served job or append spent outside
// its trace's root span (queue and lock waits, HTTP, JSON, polling),
// charged to the serve layer. What no layer covers is the remainder
// printSelf reports as other.
func (l *layers) add(tr *obs.Trace, wall, served time.Duration) {
	per := make(map[string]float64)
	self := make(map[string]float64)
	// Children may run concurrently (parallel ingest, parallel counting),
	// so their durations can sum past the parent's. Their contributions
	// are then scaled down to the parent's wall, which keeps the layer
	// self times summing to the root span's duration.
	var walk func(s *obs.SpanRecord, parent string, scale float64)
	walk = func(s *obs.SpanRecord, parent string, scale float64) {
		layer := layerOf(s.Name)
		if layer == "" {
			layer = parent
		}
		dur := float64(s.DurationUS)
		var children float64
		for _, c := range s.Children {
			children += float64(c.DurationUS)
		}
		childScale := scale
		if children > dur {
			childScale = scale * dur / children
		} else {
			self[layer] += (dur - children) * scale
		}
		for _, c := range s.Children {
			walk(c, layer, childScale)
		}
		per[spanKey(s.Name)] += dur / 1000
	}
	walk(tr.Root, "other", 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	for layer, us := range self {
		l.self[layer] += time.Duration(us * float64(time.Microsecond))
	}
	l.self["serve"] += served
	l.ops++
	l.wall += wall
	for k, v := range per {
		l.spans[k] = append(l.spans[k], v)
	}
	for _, c := range obs.Counters() {
		l.counts[c.String()] = append(l.counts[c.String()], tr.Counters[c.String()])
	}
}

// note records a benchmark-side per-operation figure.
func (l *layers) note(name string, v float64) {
	l.mu.Lock()
	l.extra[name] = append(l.extra[name], v)
	l.mu.Unlock()
}

// span returns the median per-op duration of a span name, in ms (0 when
// the span never ran).
func (l *layers) span(name string) float64 { return median(l.spans[name]) }

// addServer charges the growth of the job server's own tracer between two
// snapshots evenly to the ops traced in that window. That tracer carries
// the resident pool's shared statistics caches, which no job trace sees.
func (l *layers) addServer(before, after map[string]int64, ops int) {
	if ops == 0 {
		return
	}
	l.server = make(map[string]float64)
	for k, v := range after {
		l.server[k] = float64(v-before[k]) / float64(ops)
	}
}

// count returns the mean per-op value of a counter.
func (l *layers) count(name string) float64 {
	v := l.counts[name]
	if len(v) == 0 {
		return l.server[name]
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum)/float64(len(v)) + l.server[name]
}

// exact asserts that a counter took the same value on every traced
// operation and returns it.
func (l *layers) exact(r *run, name string) float64 {
	v := l.counts[name]
	for _, x := range v[1:] {
		if x != v[0] {
			r.fail("work count %s varied across identical operations: %v", name, v)
			break
		}
	}
	if len(v) == 0 {
		return 0
	}
	return float64(v[0])
}

// mean of a benchmark-side figure.
func (l *layers) mean(name string) float64 {
	v := l.extra[name]
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// printSelf prints each layer's self time and its share of the traced
// operations' end-to-end wall, and records other.self_ms.
func (l *layers) printSelf(r *run) {
	if l.ops == 0 {
		return
	}
	say("per-layer self time over %d traced operations (base: their summed end-to-end wall, %.1f ms):", l.ops, ms(l.wall))
	other := l.wall
	for _, name := range layerNames {
		d := l.self[name]
		other -= d
		say("  %-9s %10.3f ms/op  %5.1f%%", name, ms(d)/float64(l.ops), 100*float64(d)/float64(l.wall))
	}
	say("  other.self_ms (wall minus the named layers) = %.3f ms/op  %5.1f%%", ms(other)/float64(l.ops), 100*float64(other)/float64(l.wall))
	r.set("other.self_ms", ms(other)/float64(l.ops), "ms")
}

// gcState is a runtime/metrics reading for the runtime.* layer figures.
type gcState struct {
	gcCPU, totalCPU, cycles, allocs float64
}

func readGC() gcState {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return float64(v.Uint64())
	}
	return gcState{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// setRuntime records the runtime.* figures between two readings.
func (r *run) setRuntime(before gcState, ops int) {
	after := readGC()
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	r.set("runtime.gc_cpu_frac", frac, "ratio")
	r.set("runtime.gc_cycles", after.cycles-before.cycles, "count")
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", (after.allocs-before.allocs)/float64(ops), "B/op")
	}
}

// setCounters records the span and counter figures any discovery trace
// carries: phase durations and the ind/fd/table/stats/sketch/core counters.
func (r *run) setCounters(l *layers) {
	r.set("appscan.scan_ms", l.span("scan"), "ms")
	r.set("restruct.ms", l.span("restruct"), "ms")
	r.set("restruct.fd_splits_ms", l.span("fd-splits"), "ms")
	r.set("restruct.hidden_objects_ms", l.span("hidden-objects"), "ms")
	r.set("eer.translate_ms", l.span("translate"), "ms")
	r.set("ind.discovery_ms", l.span("ind-discovery"), "ms")
	r.set("ind.distinct_queries", l.count("distinct-queries"), "count")
	r.set("fd.checks", l.count("fd-checks"), "count")
	r.set("fd.rows_scanned", l.count("rows-scanned"), "count")
	r.set("table.refinements", l.count("partition-refinements"), "count")
	r.set("core.revalidations", l.count("revalidations"), "count")
	r.set("core.reescalations", l.count("re-escalations"), "count")
	r.set("ind.inds_tested", l.count("inds-tested"), "count")
	r.set("ind.nei_escalated", l.count("nei-escalated"), "count")
	r.set("fd.rhs_ms", l.span("rhs-discovery"), "ms")
	r.set("table.refine_dense", l.count("refine-dense-steps"), "count")
	r.set("table.refine_map", l.count("refine-map-steps"), "count")
	r.set("table.prefix_hits", l.count("prefix-partition-hits"), "count")
	r.set("table.delta_refines", l.count("delta-refines"), "count")
	r.set("table.epoch_pins", l.count("epoch-pins"), "count")
	hits, misses := l.count("stats-cache-hits"), l.count("stats-cache-misses")
	r.set("stats.hits", hits, "count")
	r.set("stats.misses", misses, "count")
	r.set("stats.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("stats.shared_hits", l.count("shared-cache-hits"), "count")
	prunes, esc := l.count("sketch-prunes"), l.count("sketch-escalations")
	r.set("sketch.prunes", prunes, "count")
	r.set("sketch.escalations", esc, "count")
	r.set("sketch.prune_ratio", ratio(prunes, prunes+esc), "ratio")
	say("stats.hit_ratio = %.4f (base: %.0f lookups/op); sketch.prune_ratio = %.4f (base: %.0f triaged candidates/op)",
		ratio(hits, hits+misses), hits+misses, ratio(prunes, prunes+esc), prunes+esc)
}

// setWorkCounts records the paper's work counts (N_k/N_l/N_kl extension
// queries, FD checks, rows scanned, refinements), asserting each repeated
// exactly across the run's identical operations.
func (r *run) setWorkCounts(l *layers) {
	r.set("ind.distinct_queries", l.exact(r, "distinct-queries"), "count")
	r.set("fd.checks", l.exact(r, "fd-checks"), "count")
	r.set("fd.rows_scanned", l.exact(r, "rows-scanned"), "count")
	r.set("table.refinements", l.exact(r, "partition-refinements"), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
