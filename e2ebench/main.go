// Command e2ebench is the repository's end-to-end benchmark. It generates
// each workload from a seed, drives the program through its public entry
// points (the dbre facade, core, storage, and the job server's HTTP API
// over loopback), checks every output against a reference, and prints the
// end-to-end metrics; with -trace 1 it prints the per-layer breakdown
// instead. Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload oneshot --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Human-readable detail goes to the lines before it: the settings in
// force, each workload's own metric names (oneshot_s, job_p50_ms,
// append_p50_ms, the p90s, failed_frac, ...), and in a traced run the
// per-layer self-time table and the end-to-end metric each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory for generated inputs

	attempted int
	failed    int
	errs      []string
	metrics   map[string]metric
}

// fail records one failed or wrong operation; the first few are printed.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// say prints one human-readable line (never the last line of output).
func say(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// bench is one workload: its name, why it exists, and the function that
// sets it up, measures it and checks it.
type bench struct {
	name string
	why  string
	run  func(r *run) error
}

var benches = []bench{
	{"oneshot", "the CLI user's path: CSV ingest, the whole pipeline through Translate, the report", runOneshot},
	{"discover-cold", "what every pool miss and first job pays: lazy snapshot open plus discovery with a fresh cache", runDiscoverCold},
	{"serve-warm", "discovery jobs over HTTP against a prewarmed resident dataset", runServeWarm},
	{"serve-mixed", "served appends beside discovery jobs on the same pooled dataset", runServeMixed},
}

func main() {
	name := flag.String("workload", "", "workload to run, or all of them in turn")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	flag.Parse()

	var todo []*bench
	var names []string
	for i := range benches {
		names = append(names, benches[i].name)
		if *name == benches[i].name || *name == "all" {
			todo = append(todo, &benches[i])
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (have %s, or all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	correct := true
	for _, b := range todo {
		ok, err := measure(b, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}

// measure sets up, measures and checks one workload, then prints its
// metrics and, as the last line, its JSON result. It reports whether
// every output was correct.
func measure(b *bench, seed int64, seconds time.Duration, traced bool) (bool, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	r := &run{seed: seed, seconds: seconds, traced: traced, dir: dir, metrics: make(map[string]metric)}
	printSettings(b, r)
	if err := b.run(r); err != nil {
		return false, err
	}
	for _, e := range r.errs {
		say("FAILED: %s", e)
	}
	keep := endToEnd
	if r.traced {
		keep = layerMetrics
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(keep)),
	}
	for _, m := range keep {
		// Only a traced run has layers its workload leaves idle; they read 0.
		v := r.metrics[m.name].Value
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		line := fmt.Sprintf("%s = %.6g %s", m.name, v, m.unit)
		if m.moves != "" {
			line += " -> " + m.moves
		}
		say("  %s", line)
	}
	say("failed_frac = %.4f (%d of %d operations)", float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// printSettings echoes the fixed configuration, so every output carries
// the settings it was measured under.
func printSettings(b *bench, r *run) {
	say("workload %s (seed %d, held-out seed %d, %.0fs measured, trace=%v): %s",
		b.name, r.seed, heldOutSeed, r.seconds.Seconds(), r.traced, b.why)
	cfg := serverConfig("")
	say("settings: clients<=%d, parallelism %d, server {Workers:%d QueueDepth:%d TTL:%v MaxResidentBytes:%d MaxJobBytes:%d}, poll %v, setup reps %d",
		clients, parallelism, cfg.Workers, cfg.QueueDepth, cfg.TTL, cfg.MaxResidentBytes, cfg.MaxJobBytes, pollInterval, setupReps)
}

// durations is a latency sample.
type durations []time.Duration

// quantile returns the q-quantile (nearest rank over the sorted sample).
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ms renders a duration in milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setLatency records the workload's primary operation (median latency and
// throughput) and prints it under the workload's own names, with the
// highest percentile that has at least ten samples beyond it: the p90
// where the run holds 100 samples, a lower one otherwise. The slowest
// workload cannot reach a p90 in one run, so no tail is reported as a
// metric.
func (r *run) setLatency(label, rateName string, lat durations, wall time.Duration) {
	p50 := lat.quantile(0.5)
	rate := float64(len(lat)) / wall.Seconds()
	r.set("p50_ms", ms(p50), "ms")
	r.set("ops_per_s", rate, "1/s")
	tail := ""
	if pct := min(90, 100*(len(lat)-10)/max(1, len(lat))); pct > 50 {
		tail = fmt.Sprintf(", %s_p%d_ms = %.3f ms", label, pct, ms(lat.quantile(float64(pct)/100)))
	}
	say("%s_p50_ms = %.3f ms%s, %s = %.2f 1/s over %d ops in %.1fs",
		label, ms(p50), tail, rateName, rate, len(lat), wall.Seconds())
}

// median of float samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setup runs prepare setupReps times, timing each repetition, reports the
// median as setup_s and returns the state of the last repetition. Each
// earlier state is released before the next repetition starts.
func setup[T any](r *run, prepare func(rep int) (T, error), release func(T)) (T, error) {
	var last T
	var walls []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		st, err := prepare(rep)
		if err != nil {
			return last, err
		}
		walls = append(walls, time.Since(start).Seconds())
		if rep < setupReps-1 {
			release(st)
		}
		last = st
	}
	if !r.traced {
		r.set("setup_s", median(walls), "s")
	}
	say("setup_s = %.4f s (median of %d set-ups)", median(walls), setupReps)
	return last, nil
}

// liveHeapMiB forces a GC and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setHeap records heap_mb.
func (r *run) setHeap() {
	h := liveHeapMiB()
	if !r.traced {
		r.set("heap_mb", h, "MiB")
	}
	say("heap_mb = %.2f MiB live after a forced GC at the end of the measured phase", h)
}
