// Command perfgate compares a fresh `bench -json` run of one experiment
// against its checked-in baseline and fails when performance regressed:
// every wall-time metric (keys ending in "_ms") must stay within a
// multiplicative tolerance of the baseline — generous, because CI
// machines differ — and allocation metrics (keys ending in
// "_allocs_per_op") are hard ceilings taken from the baseline verbatim,
// because allocation counts are deterministic and a single regressed
// alloc/op is a real kernel regression, not noise. The separate "exact"
// map holds deterministic work counters (cache hits, extension queries,
// kernel steps): each must equal the baseline, and a counter missing
// from the current run fails. Results print as a per-metric delta table
// (baseline → current, signed change, verdict) in metric-name order,
// exact counters after the metrics, so two gate runs diff cleanly.
//
// Usage:
//
//	perfgate -id B12 -baseline BENCH_B12.json -current /tmp/b12.json [-tolerance 2.0]
//
// scripts/perfgate.sh wraps the bench run and this comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type result struct {
	ID      string             `json:"id"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
	Exact   map[string]float64 `json:"exact"`
}

func load(path, id string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range results {
		if results[i].ID == id {
			return &results[i], nil
		}
	}
	return nil, fmt.Errorf("%s: no result for experiment %s", path, id)
}

// row is one line of the delta table.
type row struct {
	metric, base, cur, delta, verdict string
}

// sortedKeys lists m's keys in order.
func sortedKeys(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// delta renders the signed relative change from want to got.
func delta(want, got float64) string {
	if want == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(got-want)/want)
}

// gate compares cur against base and returns the delta table rows and
// whether any gated metric or exact counter failed.
func gate(base, cur *result, tolerance float64) ([]row, bool) {
	failed := false
	rows := make([]row, 0, len(base.Metrics)+len(base.Exact))
	for _, name := range sortedKeys(base.Metrics) {
		want := base.Metrics[name]
		got, ok := cur.Metrics[name]
		if !ok {
			rows = append(rows, row{name, fmt.Sprintf("%.4f", want), "missing", "n/a", "FAIL"})
			failed = true
			continue
		}
		r := row{metric: name, delta: delta(want, got)}
		switch {
		case strings.HasSuffix(name, "_ms"):
			limit := want * tolerance
			r.base = fmt.Sprintf("%.3fms", want)
			r.cur = fmt.Sprintf("%.3fms", got)
			if got > limit {
				r.verdict = fmt.Sprintf("FAIL (limit %.3fms)", limit)
				failed = true
			} else {
				r.verdict = fmt.Sprintf("ok (limit %.3fms)", limit)
			}
		case strings.HasSuffix(name, "_allocs_per_op"):
			r.base = fmt.Sprintf("%.4f", want)
			r.cur = fmt.Sprintf("%.4f", got)
			if got > want {
				r.verdict = "FAIL (hard ceiling)"
				failed = true
			} else {
				r.verdict = "ok (ceiling)"
			}
		default:
			// Informational metrics (speedups, ratios) are recorded but
			// not gated: they vary with hardware and scheduling.
			r.base = fmt.Sprintf("%.4f", want)
			r.cur = fmt.Sprintf("%.4f", got)
			r.verdict = "info"
		}
		rows = append(rows, r)
	}
	for _, name := range sortedKeys(base.Exact) {
		want := base.Exact[name]
		r := row{metric: name, base: fmt.Sprintf("%.0f", want), cur: "missing", delta: "n/a", verdict: "FAIL (exact)"}
		if got, ok := cur.Exact[name]; ok {
			r.cur, r.delta, r.verdict = fmt.Sprintf("%.0f", got), delta(want, got), "ok (exact)"
			if got != want {
				r.verdict = "FAIL (exact)"
			}
		}
		failed = failed || r.verdict != "ok (exact)"
		rows = append(rows, r)
	}
	return rows, failed
}

func main() {
	id := flag.String("id", "B12", "experiment id to gate")
	basePath := flag.String("baseline", "BENCH_B12.json", "checked-in baseline JSON")
	curPath := flag.String("current", "", "fresh bench -json output to gate")
	tolerance := flag.Float64("tolerance", 2.0, "multiplicative wall-time tolerance over the baseline")
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*basePath, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*curPath, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	rows, failed := gate(base, cur, *tolerance)
	widths := [5]int{len("metric"), len("baseline"), len("current"), len("delta"), len("verdict")}
	for _, r := range rows {
		for i, s := range [5]string{r.metric, r.base, r.cur, r.delta, r.verdict} {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	line := func(cells [5]string) {
		fmt.Printf("%s  %-*s  %*s  %*s  %*s  %-*s\n", *id,
			widths[0], cells[0], widths[1], cells[1], widths[2], cells[2],
			widths[3], cells[3], widths[4], cells[4])
	}
	line([5]string{"metric", "baseline", "current", "delta", "verdict"})
	for _, r := range rows {
		line([5]string{r.metric, r.base, r.cur, r.delta, r.verdict})
	}
	if failed {
		fmt.Printf("perfgate: %s REGRESSED\n", *id)
		os.Exit(1)
	}
	fmt.Printf("perfgate: %s within budget\n", *id)
}
