package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbre/internal/obs"
	"dbre/internal/paperex"
)

var updateTraceGolden = flag.Bool("update", false, "rewrite golden files")

// fakeClock ticks a fixed step per reading so every span duration in a
// trace is deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1000, 0).UTC()
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

// TestTimingsCanonicalOrder is the regression for the Timings section:
// phases must render in canonical pipeline order, not lexicographically
// (which would put restruct before rhs-discovery and scan near the end).
func TestTimingsCanonicalOrder(t *testing.T) {
	rep := &Report{}
	// Record in scrambled order, including one non-canonical extra.
	for _, p := range []string{"restruct", "scan", "zz-extra", "translate", "rhs-discovery", "constraints"} {
		rep.RecordTiming(p, time.Millisecond)
	}
	text := rep.Text()
	idx := func(phase string) int {
		i := strings.Index(text, "  "+phase)
		if i < 0 {
			t.Fatalf("phase %q missing from report:\n%s", phase, text)
		}
		return i
	}
	want := []string{"scan", "constraints", "rhs-discovery", "restruct", "translate", "zz-extra"}
	for i := 1; i < len(want); i++ {
		if idx(want[i-1]) >= idx(want[i]) {
			t.Errorf("phase %q rendered after %q; want canonical order %v", want[i-1], want[i], want)
		}
	}
}

// TestTracedRun drives the full pipeline on the paper example with a
// deterministic tracer and pins the rendered "Trace" section against a
// golden file (regenerate with -update). It also checks the span/timing
// contract: one top-level span per executed phase, in order, and the
// Timings map derived from exactly those spans.
func TestTracedRun(t *testing.T) {
	tr := obs.NewTracerClock("dbre", fakeClock(time.Millisecond))
	ctx := obs.NewContext(context.Background(), tr)
	db := paperex.Database()
	rep, err := RunContext(ctx, db, paperex.Programs, Options{Oracle: paperex.Oracle(), TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	// One phase span per PhaseOrder entry, in order.
	var phases []string
	for _, sp := range tr.Root().Children() {
		phases = append(phases, sp.Name())
	}
	if got, want := fmt.Sprint(phases), fmt.Sprint(PhaseOrder); got != want {
		t.Errorf("phase spans = %v, want %v", got, want)
	}
	// Timings are the spans' durations, not an independent clock.
	for _, sp := range tr.Root().Children() {
		if d, ok := rep.Timings[sp.Name()]; !ok || d != sp.Duration() {
			t.Errorf("Timings[%s] = %v, span duration %v", sp.Name(), d, sp.Duration())
		}
	}
	if rep.Trace != tr {
		t.Error("Report.Trace does not echo the context tracer")
	}

	// Golden: the Trace section of the rendered report.
	text := rep.Text()
	i := strings.Index(text, "\nTrace\n")
	if i < 0 {
		t.Fatalf("report lacks a Trace section:\n%s", text)
	}
	got := text[i+1:]
	path := filepath.Join("testdata", "trace.golden")
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("Trace section drifted from %s (run with -update after intentional changes):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestWorkersAttrIsEffective pins the count/check spans' workers
// attribute to the pool the phase actually ran on: Parallelism 0 is one
// worker (the documented serial path), not stats.ForEach's GOMAXPROCS,
// and a negative value is GOMAXPROCS.
func TestWorkersAttrIsEffective(t *testing.T) {
	for _, tc := range []struct{ parallelism, want int }{
		{0, 1}, {1, 1}, {3, 3}, {-1, runtime.GOMAXPROCS(0)},
	} {
		tr := obs.NewTracer("dbre")
		ctx := obs.NewContext(context.Background(), tr)
		opts := Options{Oracle: paperex.Oracle(), TransitiveClosure: true, Parallelism: tc.parallelism}
		if _, err := RunContext(ctx, paperex.Database(), paperex.Programs, opts); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		seen := 0
		for _, phase := range tr.Root().Children() {
			for _, sp := range phase.Children() {
				if sp.Name() != "count" && sp.Name() != "check" {
					continue
				}
				seen++
				want := obs.Attr{Key: "workers", Val: strconv.Itoa(tc.want)}
				if !slices.Contains(sp.Attrs(), want) {
					t.Errorf("Parallelism %d: %s/%s attrs %v, want %v", tc.parallelism, phase.Name(), sp.Name(), sp.Attrs(), want)
				}
			}
		}
		if seen != 2 {
			t.Fatalf("Parallelism %d: %d count/check spans, want 2", tc.parallelism, seen)
		}
	}
}

// TestUntracedRunHasNoTraceSection pins the disabled path: a plain
// context run must not grow a Trace section or a Report.Trace.
func TestUntracedRunHasNoTraceSection(t *testing.T) {
	db := paperex.Database()
	rep, err := Run(db, paperex.Programs, Options{Oracle: paperex.Oracle(), TransitiveClosure: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Error("untraced run captured a tracer")
	}
	if strings.Contains(rep.Text(), "\nTrace\n") {
		t.Error("untraced report renders a Trace section")
	}
}
