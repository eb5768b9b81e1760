package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock ticks a fixed step per reading, making every duration in a
// trace deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1000, 0).UTC()
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

func TestSpanNestingThroughContext(t *testing.T) {
	tr := NewTracer("root")
	ctx := NewContext(context.Background(), tr)

	ctx1, a := StartSpan(ctx, "phase-a")
	_, a1 := StartSpan(ctx1, "a-child")
	a1.End()
	a.End()
	ctx2, b := StartSpan(ctx, "phase-b") // sibling: started from the outer ctx
	_, b1 := StartSpan(ctx2, "b-child")
	b1.End()
	b.End()
	tr.Finish()

	root := tr.Root()
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "phase-a" || kids[1].Name() != "phase-b" {
		t.Fatalf("root children = %v, want [phase-a phase-b]", names(kids))
	}
	if got := names(kids[0].Children()); !reflect.DeepEqual(got, []string{"a-child"}) {
		t.Errorf("phase-a children = %v", got)
	}
	if got := names(kids[1].Children()); !reflect.DeepEqual(got, []string{"b-child"}) {
		t.Errorf("phase-b children = %v", got)
	}
	if s, _ := ctx1.Value(spanKey).(*Span); s != a {
		t.Error("the context StartSpan returns does not carry the span it opened")
	}
}

func names(spans []*Span) []string {
	var out []string
	for _, s := range spans {
		out = append(out, s.Name())
	}
	return out
}

func TestRenderTreeAndAttrs(t *testing.T) {
	tr := NewTracerClock("pipeline", fakeClock(time.Millisecond))
	ctx := NewContext(context.Background(), tr)
	ctx, scan := StartSpan(ctx, "scan")
	scan.SetInt("files", 3)
	scan.SetAttr("mode", "draft")
	scan.SetAttr("mode", "final") // last write per key wins
	_, file := StartSpan(ctx, "scan-file")
	file.SetAttr("file", "r1.sql")
	file.End()
	scan.End()
	tr.Add(CtrFDChecks, 7)
	tr.Finish()

	var b strings.Builder
	tr.Render(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	wantFields := [][]string{
		{"pipeline", "5ms"},
		{"scan", "3ms", "[files=3", "mode=final]"},
		{"scan-file", "1ms", "[file=r1.sql]"},
		{"counters:"},
		{"fd-checks", "7"},
	}
	wantIndent := []string{"", "  ", "    ", "", "  "}
	if len(lines) != len(wantFields) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(lines), len(wantFields), b.String())
	}
	for i, line := range lines {
		if got := strings.Fields(line); !reflect.DeepEqual(got, wantFields[i]) {
			t.Errorf("line %d fields = %v, want %v", i, got, wantFields[i])
		}
		if !strings.HasPrefix(line, wantIndent[i]) || strings.HasPrefix(line, wantIndent[i]+" ") {
			t.Errorf("line %d indent wrong: %q", i, line)
		}
	}
}

func TestCounterAggregationConcurrent(t *testing.T) {
	tr := NewTracer("root")
	ctx := NewContext(context.Background(), tr)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Add(CtrFDChecks, 1)
				tr.Add(CtrStatsHits, 2)
				_, sp := StartSpan(ctx, "work")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}()
	}
	// A concurrent reader: rendering while writers are running must be
	// race-free (the -race CI leg runs this test).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			tr.Render(&b)
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Count(CtrFDChecks); got != workers*perWorker {
		t.Errorf("fd-checks = %d, want %d", got, workers*perWorker)
	}
	if got := tr.Count(CtrStatsHits); got != 2*workers*perWorker {
		t.Errorf("stats-cache-hits = %d, want %d", got, 2*workers*perWorker)
	}
	if got := len(tr.Root().Children()); got != workers*perWorker {
		t.Errorf("root has %d children, want %d", got, workers*perWorker)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := NewTracerClock("pipeline", fakeClock(time.Millisecond))
	ctx := NewContext(context.Background(), tr)
	ctx, a := StartSpan(ctx, "ind-discovery")
	a.SetInt("joins", 5)
	_, b := StartSpan(ctx, "count")
	b.End()
	a.End()
	tr.Add(CtrINDsTested, 5)
	tr.Add(CtrINDsAccepted, 3)
	tr.Finish()

	snap := tr.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, parsed) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", parsed, snap)
	}
	wantNames := []string{"pipeline", "ind-discovery", "count"}
	if got := parsed.Root.SpanNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("span names = %v, want %v", got, wantNames)
	}
}

func TestParseRejectsBadTraces(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"version": 999, "root": {"name":"x"}}`)); err == nil {
		t.Error("future schema version accepted")
	}
	if _, err := Parse([]byte(`{"version": 1}`)); err == nil {
		t.Error("rootless trace accepted")
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without a tracer returned a live span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan without a tracer changed the context")
	}
	// Every method must be callable on the nil values.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	sp.StartChild("c").End()
	if sp.Duration() != 0 || sp.Name() != "" || sp.Attrs() != nil || sp.Children() != nil {
		t.Error("nil span leaked state")
	}
	var tr *Tracer
	tr.Add(CtrFDChecks, 1)
	tr.Finish()
	tr.Render(&strings.Builder{})
	if tr.Count(CtrFDChecks) != 0 || tr.Snapshot() != nil || tr.Root() != nil || tr.CounterSnapshot() != nil {
		t.Error("nil tracer leaked state")
	}
	if NewContext(ctx, nil) != ctx {
		t.Error("NewContext(nil tracer) changed the context")
	}
}

func TestPublishAndDebugMux(t *testing.T) {
	tr := NewTracer("run-1")
	Publish("obs-test", tr)
	tr.Add(CtrFDChecks, 11)
	v := expvar.Get("obs-test")
	if v == nil {
		t.Fatal("expvar name not registered")
	}
	if !strings.Contains(v.String(), "fd-checks") {
		t.Errorf("expvar value lacks counters: %s", v.String())
	}
	// Re-publishing the same name rebinds instead of panicking.
	tr2 := NewTracer("run-2")
	tr2.Add(CtrINDsTested, 5)
	Publish("obs-test", tr2)
	if !strings.Contains(expvar.Get("obs-test").String(), "inds-tested") {
		t.Error("re-publish did not rebind the tracer")
	}

	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
