package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "x", false)
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	ctx2, child := StartSpan(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced ctx must be a no-op")
	}
	// Every span method must be a no-op on nil.
	child.Set("k", 1)
	child.End()
	child.Graft(&SpanData{Name: "g"})
	child.ChildSpan("c", time.Now(), time.Millisecond)
	if child.Recording() || child.TraceID() != "" || child.Traceparent() != "" || child.Data() != nil {
		t.Fatal("nil span must report empty state")
	}
	var lg *Logger
	lg.Info(ctx, "dropped") // must not panic
	if tr.Traces(10) != nil || tr.Sampled() != 0 {
		t.Fatal("nil tracer must report empty state")
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1})
	ctx, root := tr.StartRequest(context.Background(), "count", false)
	if root == nil {
		t.Fatal("sample=1 must record")
	}
	root.Set("method", "lss")
	ctx2, child := StartSpan(ctx, "estimate")
	child.Set("evals", 42)
	if FromContext(ctx2) != child {
		t.Fatal("child must be carried by the derived ctx")
	}
	child.ChildSpan("learn", child.start, 5*time.Millisecond, "trees", 20)
	child.End()
	root.Graft(&SpanData{Name: "shard.label", TraceID: root.TraceID()})
	root.End()

	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(traces))
	}
	d := traces[0]
	if d.Name != "count" || d.Attrs["method"] != "lss" {
		t.Fatalf("bad root export: %+v", d)
	}
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (estimate + graft)", len(d.Children))
	}
	est := d.Children[0]
	if est.Name != "estimate" || est.ParentID != d.SpanID || est.TraceID != d.TraceID {
		t.Fatalf("bad child linkage: %+v", est)
	}
	if len(est.Children) != 1 || est.Children[0].Name != "learn" {
		t.Fatalf("synthesized child missing: %+v", est.Children)
	}
	if d.Children[1].Name != "shard.label" {
		t.Fatalf("graft missing: %+v", d.Children[1])
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("span data must marshal: %v", err)
	}
}

func TestRingOverwriteNewestFirst(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1})
	const n = ringSize + 2 // wraps: the two oldest are overwritten
	for i := 0; i < n; i++ {
		_, sp := tr.StartRequest(context.Background(), "q"+strconv.Itoa(i), false)
		sp.End()
	}
	got := tr.Traces(0)
	if len(got) != ringSize {
		t.Fatalf("ring size %d, got %d", ringSize, len(got))
	}
	for k, d := range got {
		if want := "q" + strconv.Itoa(n-1-k); d.Name != want {
			t.Fatalf("trace %d is %s, want %s (newest first)", k, d.Name, want)
		}
	}
	if lim := tr.Traces(1); len(lim) != 1 || lim[0].Name != "q"+strconv.Itoa(n-1) {
		t.Fatalf("limit=1 must return the newest, got %+v", lim)
	}
}

// TestUnrecordedPhasesAllocateNothing: with a nil tracer or one that samples
// nothing, opening, annotating and ending a request's phases allocates
// nothing — the price of instrumenting code unconditionally.
func TestUnrecordedPhasesAllocateNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{{"nil", nil}, {"sample 0", NewTracer(TracerConfig{Sample: 0})}} {
		ctx := context.Background()
		evals := int64(1 << 20)
		phases := map[string]func(){
			"StartRequest": func() {
				c, sp := tc.tr.StartRequest(ctx, "count", false)
				sp.Set("evals", evals)
				sp.End()
				ctx = c
			},
			"EnsureSpan": func() {
				_, sp := EnsureSpan(ctx, tc.tr, "execute")
				sp.Set("evals", evals)
				sp.End()
			},
			"StartSpan": func() {
				_, sp := StartSpan(ctx, "learn")
				sp.Set("evals", evals)
				sp.End()
			},
		}
		for name, phase := range phases {
			if n := testing.AllocsPerRun(100, phase); n != 0 {
				t.Errorf("%s tracer: %s → Set → End allocates %v per phase, want 0", tc.name, name, n)
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestSamplingZeroNeverRecords(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 0})
	for i := 0; i < 100; i++ {
		_, sp := tr.StartRequest(context.Background(), "q", false)
		if sp != nil {
			t.Fatal("sample=0 without force must not record")
		}
	}
	// force overrides the coin.
	_, sp := tr.StartRequest(context.Background(), "q", true)
	if sp == nil {
		t.Fatal("forced request must record")
	}
	sp.End()
	if tr.Sampled() != 1 || tr.Started() != 101 {
		t.Fatalf("counters: sampled=%d started=%d", tr.Sampled(), tr.Started())
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1})
	_, sp := tr.StartRequest(context.Background(), "client", false)
	hdr := sp.Traceparent()
	tp, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own header must parse: %q", hdr)
	}
	if tp.TraceID != sp.TraceID() || tp.SpanID != sp.SpanID() || !tp.Sampled {
		t.Fatalf("round trip mismatch: %+v vs %s/%s", tp, sp.TraceID(), sp.SpanID())
	}

	// A remote server adopting the header joins the same trace even with
	// sampling off, because the inbound decision was "sampled".
	server := NewTracer(TracerConfig{Sample: 0})
	ctx := WithRemoteParent(context.Background(), tp)
	_, remote := server.StartRequest(ctx, "server", false)
	if remote == nil {
		t.Fatal("sampled traceparent must force recording")
	}
	if remote.TraceID() != sp.TraceID() {
		t.Fatalf("trace id not adopted: %s vs %s", remote.TraceID(), sp.TraceID())
	}
	if remote.Data().ParentID != sp.SpanID() {
		t.Fatalf("parent id not adopted: %s vs %s", remote.Data().ParentID, sp.SpanID())
	}

	for _, bad := range []string{
		"", "00", "zz-00000000000000000000000000000001-0000000000000001-01",
		"00-00000000000000000000000000000000-0000000000000001-01", // all-zero trace
		"00-00000000000000000000000000000001-0000000000000000-01", // all-zero span
		"00-0000000000000000000000000000000G-0000000000000001-01", // non-hex
		"00-00000000000000000000000000000001-0000000000000001-0",  // short flags
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("malformed header parsed: %q", bad)
		}
	}
	if tp, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); !ok || tp.Sampled {
		t.Fatalf("unsampled header: ok=%v tp=%+v", ok, tp)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf)
	tr := NewTracer(TracerConfig{SlowQuery: time.Nanosecond, Logger: lg})
	_, sp := tr.StartRequest(context.Background(), "count", false)
	if sp == nil {
		t.Fatal("a slow-query threshold must force recording")
	}
	_, child := StartSpan(ContextWithSpan(context.Background(), sp), "estimate")
	child.End()
	time.Sleep(time.Millisecond)
	sp.End()

	line := buf.String()
	if line == "" {
		t.Fatal("no slow-query line emitted")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "slow query" || rec["level"] != "warn" {
		t.Fatalf("bad record: %v", rec)
	}
	tree, ok := rec["trace"].(map[string]any)
	if !ok || tree["name"] != "count" {
		t.Fatalf("slow-query record must embed the span tree: %v", rec["trace"])
	}
	if kids, ok := tree["children"].([]any); !ok || len(kids) != 1 {
		t.Fatalf("span tree lost its children: %v", tree)
	}

	// Under the threshold: recorded (forced) but not logged.
	buf.Reset()
	tr2 := NewTracer(TracerConfig{SlowQuery: time.Hour, Logger: lg})
	_, fast := tr2.StartRequest(context.Background(), "count", false)
	fast.End()
	if buf.Len() != 0 {
		t.Fatalf("fast query logged as slow: %s", buf.String())
	}
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf)
	tr := NewTracer(TracerConfig{Sample: 1})
	ctx, sp := tr.StartRequest(context.Background(), "q", false)
	lg.Info(ctx, "serving", "dataset", "orders", "rows", 128, "err", context.Canceled)
	lg.Error(context.Background(), "boom", "odd")
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first["msg"] != "serving" || first["dataset"] != "orders" || first["rows"] != float64(128) {
		t.Fatalf("bad fields: %v", first)
	}
	if first["trace_id"] != sp.TraceID() || first["span_id"] != sp.SpanID() {
		t.Fatalf("trace ids missing: %v", first)
	}
	if first["err"] != context.Canceled.Error() {
		t.Fatalf("error value not rendered: %v", first["err"])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if _, ok := second["!badkey"]; !ok {
		t.Fatalf("odd kv list must be flagged: %v", second)
	}
	// Leveling: debug is dropped at the default info level.
	buf.Reset()
	lg.log(LevelDebug, nil, "hidden")
	if buf.Len() != 0 {
		t.Fatal("debug emitted at info level")
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("lsample_requests_total", "Total count requests.")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored
	reg.GaugeFunc("lsample_datasets", "Registered datasets.", func() int { return 7 })
	reg.CounterFunc("lsample_cache_hits_total", "Cache hits.", func() int64 { return 9 })
	tm := reg.NewTimer("lsample_estimate_busy_seconds", "Time inside estimation.", "estimate_ms")
	tm.Add(1500 * time.Millisecond)
	h := reg.NewHistogram("lsample_request_duration_seconds", "Request latency.", "latency")
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(64 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP lsample_requests_total Total count requests.",
		"# TYPE lsample_requests_total counter",
		"lsample_requests_total 4",
		"lsample_datasets 7",
		"lsample_cache_hits_total 9",
		"# TYPE lsample_estimate_busy_seconds gauge",
		"lsample_estimate_busy_seconds 1.5",
		"# TYPE lsample_request_duration_seconds histogram",
		`lsample_request_duration_seconds_bucket{le="0.001048576"} 2`,
		`lsample_request_duration_seconds_bucket{le="+Inf"} 3`,
		"lsample_request_duration_seconds_sum 0.066",
		"lsample_request_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must come out sorted by name.
	if strings.Index(out, "lsample_cache_hits_total") > strings.Index(out, "lsample_requests_total") {
		t.Fatal("families not sorted")
	}

	// The JSON view is the same registry under short keys: counters lose
	// the lsample_ prefix and _total suffix, durations are milliseconds
	// under the key they named.
	stats := reg.Stats()
	if stats["requests"] != int64(4) || stats["cache_hits"] != int64(9) || stats["datasets"] != 7 {
		t.Fatalf("stats view = %v", stats)
	}
	if stats["estimate_ms"] != 1500.0 {
		t.Fatalf("timer in stats = %v, want 1500 ms", stats["estimate_ms"])
	}
	lat, ok := stats["latency"].(HistSummary)
	if !ok || lat.Count != 3 || lat.MaxMS != 64 || len(lat.Buckets) != 2 || lat.Buckets[1].Count != 3 {
		t.Fatalf("histogram in stats = %+v", stats["latency"])
	}
	if len(stats) != 5 {
		t.Fatalf("stats has %d keys, want one per family: %v", len(stats), stats)
	}
}

func TestRegistryGuards(t *testing.T) {
	reg := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty help", func() { reg.NewCounter("x_total", "") })
	mustPanic("bad name", func() { reg.NewCounter("9bad", "help") })
	reg.NewCounter("dup_total", "help")
	mustPanic("duplicate", func() { reg.NewCounter("dup_total", "help") })
}

func TestConcurrentTracerAndRegistry(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1})
	reg := NewRegistry()
	c := reg.NewCounter("ops_total", "ops")
	h := reg.NewHistogram("lat", "lat", "lat")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ctx, sp := tr.StartRequest(context.Background(), "q", false)
				_, child := StartSpan(ctx, "phase")
				child.Set("j", j)
				child.End()
				sp.End()
				c.Inc()
				h.Observe(time.Duration(j) * time.Millisecond)
				tr.Traces(4)
				var buf bytes.Buffer
				if err := reg.Expose(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Fatalf("counter = %d, want 1600", c.Value())
	}
}
