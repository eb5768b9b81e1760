package main

import "testing"

// TestGateExact: exact counters must equal the baseline; a changed or
// missing counter fails the gate whatever the wall-time metrics say.
func TestGateExact(t *testing.T) {
	base := &result{
		Metrics: map[string]float64{"x_ms": 10, "speedup": 2},
		Exact:   map[string]float64{"hits": 5, "queries": 99},
	}
	for _, tc := range []struct {
		name   string
		exact  map[string]float64
		failed bool
	}{
		{"equal", map[string]float64{"hits": 5, "queries": 99, "extra": 1}, false},
		{"changed", map[string]float64{"hits": 5, "queries": 98}, true},
		{"missing", map[string]float64{"hits": 5}, true},
	} {
		cur := &result{Metrics: map[string]float64{"x_ms": 12, "speedup": 1}, Exact: tc.exact}
		rows, failed := gate(base, cur, 2)
		if failed != tc.failed {
			t.Errorf("%s: failed = %v, want %v (%+v)", tc.name, failed, tc.failed, rows)
		}
		if len(rows) != 4 {
			t.Errorf("%s: %d rows, want one per baseline metric and counter", tc.name, len(rows))
		}
	}
	// Wall-time tolerance still applies beside the exact class.
	slow := &result{Metrics: map[string]float64{"x_ms": 25, "speedup": 2}, Exact: base.Exact}
	if _, failed := gate(base, slow, 2); !failed {
		t.Error("a wall time over the tolerance passed")
	}
}
