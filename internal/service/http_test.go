package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/lsample"
)

func newTestServer(t *testing.T, n int, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, n, opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHTTPCountConcurrentClientsIdentical(t *testing.T) {
	const clients = 6
	_, ts := newTestServer(t, 100, Options{MaxInFlight: clients})
	req := &CountRequest{
		SQL:     skybandQuery,
		Params:  map[string]any{"k": 8},
		Method:  "lss",
		Budget:  0.25,
		Seed:    11,
		NoCache: true,
	}
	type reply struct {
		res  CountResult
		code int
		err  error
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/count", "application/json", bytes.NewReader(b))
			if err != nil {
				replies[i].err = err
				return
			}
			defer resp.Body.Close()
			replies[i].code = resp.StatusCode
			replies[i].err = json.NewDecoder(resp.Body).Decode(&replies[i].res)
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.code)
		}
	}
	ref := replies[0].res
	for i, r := range replies[1:] {
		if r.res.Estimate != ref.Estimate || r.res.Evals != ref.Evals ||
			r.res.CILo != ref.CILo || r.res.CIHi != ref.CIHi {
			t.Errorf("client %d got a different answer for the same seed: %+v vs %+v", i+1, r.res, ref)
		}
	}
}

func TestHTTPCountCachedFlag(t *testing.T) {
	_, ts := newTestServer(t, 80, Options{})
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Budget: 0.25, Seed: 2}
	var first, second CountResult
	resp, body := postJSON(t, ts.URL+"/v1/count", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/count", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags: first=%t second=%t, want false/true", first.Cached, second.Cached)
	}
	if first.Estimate != second.Estimate {
		t.Errorf("cached estimate differs: %v vs %v", second.Estimate, first.Estimate)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	svc, ts := newTestServer(t, 50, Options{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})

	resp, body := postJSON(t, ts.URL+"/v1/count", map[string]any{"sql": "SELEC nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error: status %d, body %s", resp.StatusCode, body)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/count", map[string]any{"sql": skybandQuery, "unknown_field": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown JSON field: status %d", resp.StatusCode)
	}

	release := occupyAdmission(t, svc) // saturate admission
	resp, body = postJSON(t, ts.URL+"/v1/count", &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated: status %d, body %s", resp.StatusCode, body)
	}
	release()

	// Oversized (but syntactically valid) bodies are rejected with 413,
	// not read to completion.
	big := []byte(`{"sql":"` + strings.Repeat("a", 2<<20) + `"}`)
	resp2, err := http.Post(ts.URL+"/v1/count", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2MiB count body: status %d, want 413", resp2.StatusCode)
	}

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
}

func TestHTTPUploadDatasetAndQuery(t *testing.T) {
	_, ts := newTestServer(t, 10, Options{})

	var csv strings.Builder
	csv.WriteString("id,x,y\n")
	tb := testTable(60, 3)
	for i := 0; i < tb.NumRows(); i++ {
		fmt.Fprintf(&csv, "%d,%g,%g\n", tb.Int(i, 0), tb.Float(i, 1), tb.Float(i, 2))
	}
	resp, err := http.Post(ts.URL+"/v1/datasets?name=U&schema=id:int,x:float,y:float",
		"text/csv", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	var uploaded DatasetInfo
	err = json.NewDecoder(resp.Body).Decode(&uploaded)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if uploaded.Version == 0 {
		t.Error("upload response did not report the assigned dataset version")
	}

	// The uploaded dataset is immediately queryable.
	q := strings.ReplaceAll(skybandQuery, "D o1, D o2", "U o1, U o2")
	resp2, body := postJSON(t, ts.URL+"/v1/count", &CountRequest{
		SQL: q, Params: map[string]any{"k": 10}, Method: "oracle", Budget: 1,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query on uploaded dataset: status %d: %s", resp2.StatusCode, body)
	}

	// Listing includes both tables.
	r, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list []DatasetInfo
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("datasets = %+v, want D and U", list)
	}

	// Uploads over the configured limit are rejected with 413.
	small := newTestService(t, 10, Options{MaxUploadBytes: 64})
	tsSmall := httptest.NewServer(small.Handler())
	defer tsSmall.Close()
	resp3, err := http.Post(tsSmall.URL+"/v1/datasets?name=Big&schema=id:int",
		"text/csv", strings.NewReader("id\n"+strings.Repeat("1\n", 200)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", resp3.StatusCode)
	}

	// Bad schema specs are client errors.
	for _, bad := range []string{"", "id", "id:blob"} {
		resp, err := http.Post(ts.URL+"/v1/datasets?name=X&schema="+bad, "text/csv", strings.NewReader("id\n1\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("schema %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHTTPStats(t *testing.T) {
	_, ts := newTestServer(t, 60, Options{})
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Budget: 0.25, Seed: 2}
	postJSON(t, ts.URL+"/v1/count", req)
	postJSON(t, ts.URL+"/v1/count", req) // cache hit

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats struct {
		Metrics     statsMetrics  `json:"metrics"`
		CachedItems int           `json:"cached_items"`
		Datasets    []DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Metrics.Requests != 2 || stats.Metrics.CacheHits != 1 || stats.Metrics.EstimatesRun != 1 {
		t.Errorf("metrics = %+v, want 2 requests / 1 hit / 1 estimate", stats.Metrics)
	}
	if stats.CachedItems != 1 {
		t.Errorf("cached_items = %d, want 1", stats.CachedItems)
	}
	if stats.Metrics.PredicateEvals <= 0 {
		t.Error("predicate_evals not recorded")
	}
	if len(stats.Datasets) != 1 {
		t.Errorf("datasets = %+v", stats.Datasets)
	}
}

func TestHTTPErrorEnvelope(t *testing.T) {
	// Every error response uses the {"error": {"code", "message"}} envelope.
	svc, ts := newTestServer(t, 50, Options{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	decode := func(body []byte) (code, msg string) {
		t.Helper()
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("error body %q is not the envelope: %v", body, err)
		}
		return env.Error.Code, env.Error.Message
	}

	_, body := postJSON(t, ts.URL+"/v1/count", map[string]any{"sql": "SELEC nope"})
	if code, msg := decode(body); code != "bad_request" || msg == "" {
		t.Errorf("parse error envelope = %q / %q, want bad_request with a message", code, msg)
	}

	release := occupyAdmission(t, svc) // saturate admission
	resp503, body := postJSON(t, ts.URL+"/v1/count", &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}})
	if code, _ := decode(body); code != "overloaded" {
		t.Errorf("saturated envelope code = %q, want overloaded", code)
	}
	if resp503.StatusCode != http.StatusServiceUnavailable || resp503.Header.Get("Retry-After") == "" {
		t.Errorf("saturated response = %d with Retry-After %q, want 503 with a hint",
			resp503.StatusCode, resp503.Header.Get("Retry-After"))
	}
	release()

	resp, err := http.Post(ts.URL+"/v1/datasets?name=X&schema=id:blob", "text/csv", strings.NewReader("id\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if code, _ := decode(b); code != "bad_request" {
		t.Errorf("bad schema envelope code = %q, want bad_request", code)
	}
}

func TestHTTPIntervalField(t *testing.T) {
	// The interval knob reaches the estimator: Wilson and Wald intervals
	// over the same seed differ, occupy distinct cache entries, and
	// unknown names are rejected.
	_, ts := newTestServer(t, 100, Options{})
	base := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8},
		Method: "srs", Budget: 0.3, Seed: 7}

	var wald, wilson CountResult
	resp, body := postJSON(t, ts.URL+"/v1/count", &base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wald: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wald); err != nil {
		t.Fatal(err)
	}
	withIv := base
	withIv.Interval = "wilson"
	resp, body = postJSON(t, ts.URL+"/v1/count", &withIv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wilson: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wilson); err != nil {
		t.Fatal(err)
	}
	if wilson.Cached {
		t.Error("wilson request hit the wald cache entry")
	}
	if wilson.Interval != "wilson" || wald.Interval != "wald" {
		t.Errorf("interval echo = %q / %q, want wilson / wald", wilson.Interval, wald.Interval)
	}
	if wald.Estimate != wilson.Estimate {
		t.Errorf("point estimates differ across intervals: %v vs %v", wald.Estimate, wilson.Estimate)
	}
	if wald.CILo == wilson.CILo && wald.CIHi == wilson.CIHi {
		t.Error("Wilson interval identical to Wald; the knob did not reach the estimator")
	}

	bad := base
	bad.Interval = "nope"
	resp, _ = postJSON(t, ts.URL+"/v1/count", &bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown interval: status %d, want 400", resp.StatusCode)
	}
}

// TestCountParamsExactPast2to53: a JSON parameter past 2^53 binds exactly
// on the service and through a coordinator, so of the ids 2^53 and 2^53 + 1
// only one equals 9007199254740993 (read through float64, both would).
func TestCountParamsExactPast2to53(t *testing.T) {
	items := func() *lsample.Table {
		tab, err := lsample.NewTable("items", "id:int")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{1 << 53, 1<<53 + 1} {
			if err := tab.AppendRow(id); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	_, standalone := newWorkerServer(t, items())
	_, w1 := newWorkerServer(t, items())
	_, w2 := newWorkerServer(t, items())
	coord := httptest.NewServer(newCoordinator(t, CoordinatorOptions{Shards: 2}, w1, w2).Handler())
	t.Cleanup(coord.Close)
	body := `{"sql": "SELECT i.id FROM items i WHERE i.id = p GROUP BY i.id", "params": {"p": 9007199254740993}, "method": "oracle"}`
	for name, url := range map[string]string{"service": standalone.URL, "coordinator": coord.URL} {
		resp, err := http.Post(url+"/v1/count", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res CountResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", name, resp.StatusCode, err)
		}
		if res.Estimate != 1 {
			t.Errorf("%s: counted %v, want 1", name, res.Estimate)
		}
	}
}
