package serve

import (
	"fmt"
	"runtime"
	"testing"
)

// TestDecodeParallelismDefault pins the tri-state of the parallelism
// field: omitted means "use every core" (capped by the server limit),
// an explicit 0 keeps the serial path, and an explicit value is taken
// as-is. The distinction lives in the decoder because the struct field
// cannot tell 0 from absent.
func TestDecodeParallelismDefault(t *testing.T) {
	lim := Limits{MaxParallelism: 64}
	want := runtime.GOMAXPROCS(0)
	if want > lim.MaxParallelism {
		want = lim.MaxParallelism
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"omitted", `{"schema_sql": "CREATE TABLE t (a INTEGER);"}`, want},
		{"explicit zero", `{"schema_sql": "x", "parallelism": 0}`, 0},
		{"explicit null", `{"schema_sql": "x", "parallelism": null}`, 0},
		{"null after a value", `{"schema_sql": "x", "parallelism": 2, "parallelism": null}`, 2},
		{"explicit value", `{"schema_sql": "x", "parallelism": 3}`, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeJobSpec([]byte(tc.body), lim)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Parallelism != tc.want {
				t.Fatalf("Parallelism = %d, want %d", spec.Parallelism, tc.want)
			}
		})
	}

	// A malformed value is still rejected by the strict decode.
	for _, body := range []string{
		`{"schema_sql": "x", "parallelism": "2"}`,
		`{"schema_sql": "x", "parallelism": 2.5}`,
		`{"schema_sql": "x", "parallelism": 2, "bogus": 1}`,
	} {
		if _, err := DecodeJobSpec([]byte(body), lim); err == nil {
			t.Errorf("DecodeJobSpec(%s) accepted a malformed spec", body)
		}
	}

	// A tight server limit caps the default below the core count.
	one := Limits{MaxParallelism: 1}
	spec, err := DecodeJobSpec([]byte(`{"schema_sql": "x"}`), one)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Parallelism > 1 {
		t.Fatalf("defaulted Parallelism = %d exceeds the limit 1", spec.Parallelism)
	}
}

// TestDefaultParallelismCap covers the cap arithmetic directly across
// limit configurations, independent of the machine's core count.
func TestDefaultParallelismCap(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	for _, lim := range []int{0, 1, 2, 256, 100000} {
		t.Run(fmt.Sprintf("max=%d", lim), func(t *testing.T) {
			got := defaultParallelism(Limits{MaxParallelism: lim})
			eff := lim
			if eff <= 0 {
				eff = 256
			}
			want := cores
			if want > eff {
				want = eff
			}
			if got != want {
				t.Fatalf("defaultParallelism = %d, want %d", got, want)
			}
		})
	}
}
