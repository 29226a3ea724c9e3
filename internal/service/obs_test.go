package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// spanNames flattens a span tree into name -> occurrence count.
func spanNames(d *obs.SpanData, out map[string]int) {
	if d == nil {
		return
	}
	out[d.Name]++
	for _, c := range d.Children {
		spanNames(c, out)
	}
}

// forEachSpan visits every span of the tree.
func forEachSpan(d *obs.SpanData, visit func(*obs.SpanData)) {
	if d == nil {
		return
	}
	visit(d)
	for _, c := range d.Children {
		forEachSpan(c, visit)
	}
}

// TestExplainReturnsTrace: a request with Explain gets its span tree
// inline, covering admission, preparation, and the SDK's execution
// phases; a cached re-ask still gets a fresh (per-request) trace while
// the cached result itself stays trace-free for non-explain clients.
func TestExplainReturnsTrace(t *testing.T) {
	svc := newTestService(t, 80, Options{})
	req := &CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(10)},
		Method: "srs",
		Budget: 0.25,
		Seed:   3,
	}
	ex := *req
	ex.Explain = true
	res, err := svc.Count(&ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("explain request returned no trace")
	}
	if res.Trace.Name != "count" {
		t.Fatalf("root span %q, want count", res.Trace.Name)
	}
	names := map[string]int{}
	spanNames(res.Trace, names)
	for _, want := range []string{"count", "admission.wait", "prepare", "execute"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks span %q; got %v", want, names)
		}
	}
	// The execution phase shows up as either the classic estimate pipeline
	// or the reuse catalog's fast path — whichever served this query.
	if names["estimate"] == 0 && names["catalog"] == 0 {
		t.Fatalf("trace lacks an execution-phase span; got %v", names)
	}
	rootID := res.Trace.TraceID
	forEachSpan(res.Trace, func(d *obs.SpanData) {
		if d.TraceID != rootID {
			t.Fatalf("span %q has trace id %s, want %s", d.Name, d.TraceID, rootID)
		}
	})

	// A non-explain client hitting the now-warm cache sees no trace.
	plain, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Cached || plain.Trace != nil {
		t.Fatalf("cached non-explain result: cached=%t trace=%v", plain.Cached, plain.Trace)
	}
	// An explain client hitting the cache still gets its own (new) trace.
	again, err := svc.Count(&ex)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Trace == nil {
		t.Fatalf("cached explain result: cached=%t trace present=%t", again.Cached, again.Trace != nil)
	}
	if again.Trace.TraceID == rootID {
		t.Fatal("second explain reused the first request's trace")
	}
}

// TestTracesEndpointPaging: /v1/traces pages the completed-trace ring
// newest first.
func TestTracesEndpointPaging(t *testing.T) {
	svc := newTestService(t, 60, Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		req := CountRequest{
			SQL:     skybandQuery,
			Params:  map[string]any{"k": float64(10)},
			Method:  "srs",
			Budget:  0.25,
			Seed:    uint64(i + 1),
			Explain: true,
			NoCache: true,
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/count", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("count %d: status %d", i, resp.StatusCode)
		}
	}

	get := func(url string) []*obs.SpanData {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var out struct {
			Traces []*obs.SpanData `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Traces
	}
	all := get(ts.URL + "/v1/traces")
	if len(all) != 3 {
		t.Fatalf("got %d traces, want 3", len(all))
	}
	two := get(ts.URL + "/v1/traces?limit=2")
	if len(two) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(two))
	}
	// Newest first: the first page entry is the most recent completion.
	if !all[0].Start.After(all[2].Start) {
		t.Fatalf("traces not newest-first: %v then %v", all[0].Start, all[2].Start)
	}
	if resp, err := http.Get(ts.URL + "/v1/traces?limit=bogus"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bogus limit: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestStatsLatencyBuckets: /v1/stats exposes the latency histogram's
// cumulative bucket counts alongside the existing quantile fields.
func TestStatsLatencyBuckets(t *testing.T) {
	svc := newTestService(t, 60, Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req := CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(10)},
		Method: "srs",
		Budget: 0.25,
	}
	body, _ := json.Marshal(req)
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/count", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Metrics statsMetrics `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	lat := stats.Metrics.Latency
	if lat.Count != 4 {
		t.Fatalf("latency count %d, want 4", lat.Count)
	}
	if len(lat.Buckets) == 0 {
		t.Fatal("latency summary has no buckets")
	}
	last := lat.Buckets[len(lat.Buckets)-1]
	if int64(last.Count) != lat.Count {
		t.Fatalf("last cumulative bucket %d != count %d", last.Count, lat.Count)
	}
	for i := 1; i < len(lat.Buckets); i++ {
		if lat.Buckets[i].Count < lat.Buckets[i-1].Count || lat.Buckets[i].LeMS <= lat.Buckets[i-1].LeMS {
			t.Fatalf("buckets not cumulative/ascending at %d: %+v", i, lat.Buckets)
		}
	}
}

// TestConcurrentMetricsScrapes hammers GET /metrics and GET /v1/stats
// while live count traffic runs — the *Func collectors must read the
// serving path's atomics race-free (this test is what -race verifies).
func TestConcurrentMetricsScrapes(t *testing.T) {
	svc := newTestService(t, 60, Options{MaxInFlight: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := CountRequest{
					SQL:     skybandQuery,
					Params:  map[string]any{"k": float64(10)},
					Method:  "srs",
					Budget:  0.25,
					Seed:    uint64(g*100 + i),
					NoCache: true,
					Explain: i%2 == 0,
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/count", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	scrapeErr := make(chan error, 2)
	for _, path := range []string{"/metrics", "/v1/stats"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					scrapeErr <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErr <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					scrapeErr <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if path == "/metrics" && !strings.Contains(string(b), "lsample_requests_total") {
					scrapeErr <- fmt.Errorf("scrape lacks lsample_requests_total:\n%s", b)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// Final scrape is well-formed: HELP/TYPE precede every family and the
	// histogram carries its cumulative suffix series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"# HELP lsample_requests_total",
		"# TYPE lsample_requests_total counter",
		"# TYPE lsample_request_duration_seconds histogram",
		`lsample_request_duration_seconds_bucket{le="+Inf"}`,
		"lsample_request_duration_seconds_sum",
		"lsample_request_duration_seconds_count",
		"lsample_traces_sampled_total",
		"lsample_inflight_estimations",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape lacks %q:\n%s", want, text)
		}
	}
}

// TestSlowQueryLog: a configured slow-query threshold logs the full span
// tree of any slower request as one structured JSON line.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	svc := newTestService(t, 60, Options{
		SlowQuery: time.Nanosecond,
		Logger:    obs.NewLogger(&buf),
	})
	req := &CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(10)},
		Method: "srs",
		Budget: 0.25,
	}
	if _, err := svc.Count(req); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"msg":"slow query"`) {
		t.Fatalf("no slow-query line logged:\n%s", line)
	}
	var parsed struct {
		Level   string        `json:"level"`
		TraceID string        `json:"trace_id"`
		Trace   *obs.SpanData `json:"trace"`
	}
	if err := json.Unmarshal([]byte(line[strings.Index(line, "{"):]), &parsed); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if parsed.Trace == nil || parsed.Trace.Name != "count" {
		t.Fatalf("slow-query line lacks the span tree: %s", line)
	}
}

// TestShutdownSummaryLog: graceful shutdown emits one structured summary
// line with the persisted datasets, the drain outcome, and uptime.
func TestShutdownSummaryLog(t *testing.T) {
	var buf bytes.Buffer
	svc := newTestService(t, 60, Options{Logger: obs.NewLogger(&buf)})
	if _, err := svc.Count(&CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(10)},
		Method: "srs",
		Budget: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, `"msg":"shutdown complete"`) {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no shutdown summary line:\n%s", buf.String())
	}
	var parsed struct {
		Drained   *bool   `json:"inflight_drained"`
		Persisted []any   `json:"persisted"`
		Requests  int64   `json:"requests_served"`
		UptimeMS  float64 `json:"uptime_ms"`
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("summary line is not JSON: %v\n%s", err, line)
	}
	if parsed.Drained == nil || !*parsed.Drained {
		t.Fatalf("summary does not report a clean drain: %s", line)
	}
	if parsed.Requests != 1 || parsed.UptimeMS <= 0 {
		t.Fatalf("summary fields wrong: %s", line)
	}
}

// TestCoordinatorStitchedTrace: a 4-shard explain query over two workers,
// with every call to the first worker killed, returns ONE trace: the
// coordinator root, per-attempt rpc spans (failed primaries and their
// hedged retries as siblings), and each worker's own span subtree grafted
// under the attempt that carried it — all sharing a single trace id.
func TestCoordinatorStitchedTrace(t *testing.T) {
	const n, k = 120, 10
	_, srvA := newWorkerServer(t, testTable(n, 7))
	_, srvB := newWorkerServer(t, testTable(n, 7))
	rt := &faultRT{base: http.DefaultTransport, target: hostOf(t, srvA.URL), mode: "kill"}
	coord := newCoordinator(t, CoordinatorOptions{
		Shards:         4,
		WorkerDeadline: 2 * time.Second,
		HedgeAfter:     25 * time.Millisecond,
		Client:         &http.Client{Transport: rt},
	}, srvA, srvB)

	req := CountRequest{
		SQL:     skybandQuery,
		Params:  map[string]any{"k": float64(k)},
		Method:  "srs",
		Budget:  0.25,
		Seed:    3,
		Explain: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := coord.Count(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	if rt.count() == 0 {
		t.Fatal("fault injector never fired")
	}
	if res.Trace == nil {
		t.Fatal("explain coordinator query returned no trace")
	}
	if res.Trace.Name != "coordinator.count" {
		t.Fatalf("root span %q", res.Trace.Name)
	}

	rootID := res.Trace.TraceID
	var rpcs, failed, retried, worker int
	forEachSpan(res.Trace, func(d *obs.SpanData) {
		if d.TraceID != rootID {
			t.Fatalf("span %q carries trace id %s, want %s — trace not stitched", d.Name, d.TraceID, rootID)
		}
		switch {
		case d.Name == "shard.rpc":
			rpcs++
			if d.Attrs["error"] != nil {
				failed++
			}
			if d.Attrs["hedged"] == true {
				retried++
			}
			// A successful attempt carries the worker's grafted subtree.
			for _, c := range d.Children {
				if strings.HasPrefix(c.Name, "shard.") && c.Name != "shard.rpc" {
					worker++
					if c.ParentID == "" {
						t.Fatalf("grafted worker span %q has no parent id", c.Name)
					}
				}
			}
		}
	})
	if rpcs < 2 {
		t.Fatalf("only %d rpc attempt spans", rpcs)
	}
	if failed == 0 {
		t.Fatal("no failed attempt span despite the killed worker")
	}
	if retried == 0 {
		t.Fatal("no hedged/failover attempt span")
	}
	if worker == 0 {
		t.Fatal("no worker subtree grafted into the coordinator trace")
	}

	// The answer must be byte-identical to an unfaulted run.
	clean := newCoordinator(t, CoordinatorOptions{Shards: 4}, srvA, srvB)
	reqPlain := req
	reqPlain.Explain = false
	ref, err := clean.Count(context.Background(), &reqPlain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != ref.Estimate || res.CILo != ref.CILo || res.CIHi != ref.CIHi {
		t.Fatalf("tracing/hedging changed the answer: %v vs %v", res.Estimate, ref.Estimate)
	}

	// The coordinator's own exposition reflects the chaos.
	h := coord.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	if !strings.Contains(text, "lsample_coordinator_queries_total 1") {
		t.Fatalf("coordinator metrics lack query count:\n%s", text)
	}
	if !strings.Contains(text, "lsample_coordinator_worker_errors_total") {
		t.Fatalf("coordinator metrics lack worker errors:\n%s", text)
	}
}

// TestWorkerTraceparentRoundTrip: a sampled traceparent posted straight
// to /v1/shard makes the worker adopt the remote trace id and return its
// span subtree on the response; an unsampled or absent header leaves the
// response trace-free (and the hot path unrecorded).
func TestWorkerTraceparentRoundTrip(t *testing.T) {
	const n = 100
	_, srv := newWorkerServer(t, testTable(n, 7))
	body := shardFrame(t, shardReq(shard.OpMeta, 0, 2))

	post := func(traceparent string) *obs.SpanData {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/shard", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", shard.FrameContentType)
		if traceparent != "" {
			req.Header.Set(obs.TraceparentHeader, traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, payload)
		}
		return mustAnswer(t, payload).trace
	}

	const traceID = "0123456789abcdef0123456789abcdef"
	sampled := post("00-" + traceID + "-00f067aa0ba902b7-01")
	if sampled == nil {
		t.Fatal("sampled traceparent: worker returned no trace")
	}
	if sampled.TraceID != traceID {
		t.Fatalf("worker trace id %s, want adopted %s", sampled.TraceID, traceID)
	}
	if sampled.ParentID != "00f067aa0ba902b7" {
		t.Fatalf("worker root parent %s, want the caller's span id", sampled.ParentID)
	}
	if sampled.Name != "shard.meta" {
		t.Fatalf("worker root span %q", sampled.Name)
	}

	if unsampled := post("00-" + traceID + "-00f067aa0ba902b7-00"); unsampled != nil {
		t.Fatal("unsampled traceparent still recorded a trace")
	}
	if plain := post(""); plain != nil {
		t.Fatal("absent traceparent still recorded a trace")
	}
}

// findSpan returns the first span of the tree with the given name.
func findSpan(d *obs.SpanData, name string) *obs.SpanData {
	var hit *obs.SpanData
	forEachSpan(d, func(s *obs.SpanData) {
		if hit == nil && s.Name == name {
			hit = s
		}
	})
	return hit
}

// TestExplainHashPlanSpanTree: catalog-served requests open the fixed-cost
// phases as children of the "catalog" span, which says whether the query's
// executor was resident. The first count builds it — enumerate and features
// directly under the span, predicate.build (paying the cross-check) lazily
// where the label store first misses; later counts over the same parameters
// find it resident and open neither, nor a predicate.build: an extension
// labels through the executor's one predicate, and a request answered
// entirely from memoized labels labels through none.
func TestExplainHashPlanSpanTree(t *testing.T) {
	svc := newTestService(t, 80, Options{})
	count := func(budget float64) (*obs.SpanData, map[string]int) {
		t.Helper()
		res, err := svc.Count(&CountRequest{
			SQL:     skybandQuery,
			Params:  map[string]any{"k": float64(10)},
			Method:  "lss",
			Budget:  budget,
			Seed:    3,
			Explain: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cat := findSpan(res.Trace, "catalog")
		if cat == nil {
			t.Fatalf("budget %v: trace has no catalog span", budget)
		}
		children := map[string]int{}
		for _, c := range cat.Children {
			children[c.Name]++
		}
		return cat, children
	}
	wantChildren := func(what string, children map[string]int, want map[string]int) {
		t.Helper()
		for name, n := range want {
			if children[name] != n {
				t.Errorf("%s: catalog span children = %v, want %d %q", what, children, n, name)
			}
		}
	}

	cold, children := count(0.25)
	if cold.Attrs["resident"] != false {
		t.Errorf("first count: resident = %v, want false", cold.Attrs["resident"])
	}
	wantChildren("first count", children, map[string]int{"enumerate": 1, "features": 1, "shard.census": 1, "shard.attempt": 1})
	if findSpan(findSpan(cold, "shard.attempt"), "predicate.build") == nil {
		t.Error("first count: no predicate.build under the labeling round")
	}

	ext, children := count(0.5) // reuse class: budget extension, fresh labels needed
	if ext.Attrs["resident"] != true {
		t.Errorf("extension: resident = %v, want true", ext.Attrs["resident"])
	}
	wantChildren("extension", children, map[string]int{"enumerate": 0, "features": 0, "shard.census": 1, "shard.attempt": 1})
	if findSpan(ext, "predicate.build") != nil {
		t.Error("extension: a resident executor built its predicate again")
	}

	direct, _ := count(0.5 + 1e-9) // distinct cache key, same evaluation budget: every label memoized
	if findSpan(direct, "predicate.build") != nil || findSpan(direct, "enumerate") != nil || direct.Attrs["resident"] != true {
		t.Error("a request answered from memoized labels on a resident executor built something")
	}
}
