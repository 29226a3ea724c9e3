package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// statsMetrics is the part of the /v1/stats "metrics" block tests read.
type statsMetrics struct {
	Requests       int64           `json:"requests"`
	CacheHits      int64           `json:"cache_hits"`
	EstimatesRun   int64           `json:"estimates_run"`
	PredicateEvals int64           `json:"predicate_evals"`
	Latency        obs.HistSummary `json:"latency"`
}

// TestStatsExposeLatency pins that a served request shows up in the
// /v1/stats latency block with a nonzero p99.
func TestStatsExposeLatency(t *testing.T) {
	svc := newTestService(t, 60, Options{})
	if _, err := svc.Count(&CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "srs", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	lat := svc.metrics.Stats()["latency"].(obs.HistSummary)
	if lat.Count != 1 {
		t.Fatalf("latency count = %d, want 1", lat.Count)
	}
	if lat.P99MS <= 0 || lat.MaxMS <= 0 {
		t.Fatalf("latency summary not populated: %+v", lat)
	}
}

// mixedTraffic drives one of everything the counters distinguish: a miss,
// a hit, a no-cache run, a client error, a shed request, a degraded answer,
// and an ingest error.
func mixedTraffic(t *testing.T, svc *Service) {
	t.Helper()
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "srs", Budget: 0.25, Seed: 1}
	for i := 0; i < 2; i++ {
		if _, err := svc.Count(req); err != nil {
			t.Fatal(err)
		}
	}
	nc := *req
	nc.NoCache = true
	if _, err := svc.Count(&nc); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Count(&CountRequest{SQL: "SELECT nonsense"}); err == nil {
		t.Fatal("bad SQL accepted")
	}
	release := occupyAdmission(t, svc)
	shed := *req
	shed.Seed = 2
	if _, err := svc.Count(&shed); err == nil {
		t.Fatal("request admitted past a full service")
	}
	shed.Degrade = true
	if res, err := svc.Count(&shed); err != nil || !res.Degraded {
		t.Fatalf("degraded answer: %+v, %v", res, err)
	}
	release()
	if _, err := svc.Ingest("D", "csv", strings.NewReader("id,x,y\n")); err == nil {
		t.Fatal("ingest into a static dataset accepted")
	}
}

// TestStatsAgreeWithMetrics: /metrics and /v1/stats are two renderings of
// one registry, so after mixed traffic every counter family and the
// histogram's count carry the same value in both.
func TestStatsAgreeWithMetrics(t *testing.T) {
	svc := newTestService(t, 60, Options{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	mixedTraffic(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Prometheus rendering: sample name -> value, family name -> type.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, types := map[string]float64{}, map[string]string{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case len(f) == 2 && !strings.HasPrefix(f[0], "#"):
			v, perr := strconv.ParseFloat(f[1], 64)
			if perr != nil {
				t.Fatalf("sample %q: %v", sc.Text(), perr)
			}
			samples[f[0]] = v
		}
	}

	// JSON rendering.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}

	counters := 0
	for name, typ := range types {
		key := obs.StatsKey(name)
		switch typ {
		case "counter":
			counters++
			var got float64
			var byLabel map[string]float64 // a CounterVec: one sample per label value
			if err := json.Unmarshal(stats.Metrics[key], &got); err == nil {
				if got != samples[name] {
					t.Errorf("counter %s = %v in /metrics, metrics.%s = %v in /v1/stats", name, samples[name], key, got)
				}
			} else if err := json.Unmarshal(stats.Metrics[key], &byLabel); err != nil || len(byLabel) == 0 {
				t.Errorf("counter %s: /v1/stats metrics.%s = %s", name, key, stats.Metrics[key])
			}
			for value, n := range byLabel {
				if sample, ok := samples[fmt.Sprintf("%s{result=%q}", name, value)]; !ok || sample != n {
					t.Errorf("counter %s{result=%q} = %v in /metrics (present %t), metrics.%s.%s = %v in /v1/stats",
						name, value, sample, ok, key, value, n)
				}
			}
		case "histogram":
			var lat obs.HistSummary
			if err := json.Unmarshal(stats.Metrics["latency"], &lat); err != nil {
				t.Fatal(err)
			}
			if float64(lat.Count) != samples[name+"_count"] || lat.Count == 0 {
				t.Errorf("histogram %s_count = %v, latency.count = %d", name, samples[name+"_count"], lat.Count)
			}
		}
	}
	if counters < 16 {
		t.Fatalf("only %d counter families exposed", counters)
	}
	// The traffic above moved each of these; a rendering that silently
	// dropped one would otherwise still "agree" at zero.
	for _, name := range []string{"requests", "cache_hits", "cache_misses", "rejected", "degraded",
		"errors", "estimates_run", "predicate_evals", "ingest_requests", "ingest_errors", "catalog_misses"} {
		if string(stats.Metrics[name]) == "0" || stats.Metrics[name] == nil {
			t.Errorf("metrics.%s = %s after mixed traffic, want > 0", name, stats.Metrics[name])
		}
	}
}

// TestStatsFieldNamesGolden pins the /v1/stats field names clients read
// (bench/ reads metrics.{requests,cache_hits,cache_misses,rejected,degraded}
// and catalog.{bytes,hits,extensions,misses,evictions}). Adding a family
// adds a line here; renaming or dropping one must be a decision. Decided:
// shard_exec and shard_execs went with the service's executor store — a
// worker's executors live on its prepared queries, and the hash-plan span's
// resident attribute says whether a count rebuilt one.
func TestStatsFieldNamesGolden(t *testing.T) {
	svc := newTestService(t, 20, Options{})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	keysOf := func(raw json.RawMessage) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	golden := map[string]string{
		"": "cached_items catalog datasets metrics",
		"metrics": "admission_queued cache_hits cache_misses catalog_bytes catalog_entries catalog_evictions " +
			"catalog_extensions catalog_hits catalog_misses datasets degraded errors estimate_ms estimates_run " +
			"inflight_estimations ingest_batches ingest_errors ingest_requests ingest_rows latency predicate_evals " +
			"predicate_ms prepared_queries rejected requests result_cache_entries traces_sampled traces_started",
		"catalog": "bytes entries evictions extensions hits misses",
	}
	top, _ := json.Marshal(stats)
	if got := keysOf(top); got != golden[""] {
		t.Errorf("/v1/stats fields:\n got %s\nwant %s", got, golden[""])
	}
	for _, block := range []string{"metrics", "catalog"} {
		if got := keysOf(stats[block]); got != golden[block] {
			t.Errorf("/v1/stats %s fields:\n got %s\nwant %s", block, got, golden[block])
		}
	}
	if got := keysOf(mustField(t, stats["metrics"], "latency")); got != "count max_ms p50_ms p90_ms p999_ms p99_ms" {
		t.Errorf("empty latency block fields: %s", got)
	}
}

func mustField(t *testing.T, raw json.RawMessage, name string) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil || m[name] == nil {
		t.Fatalf("no field %q in %s", name, raw)
	}
	return m[name]
}
