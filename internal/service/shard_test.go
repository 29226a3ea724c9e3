package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/xrand"
	"repro/lsample"
)

// shardReq is the skyband test query as one shard op without arguments,
// the way a coordinator would send it.
func shardReq(op string, idx, count int) *ShardRequest {
	return &ShardRequest{
		CountRequest: CountRequest{
			SQL:    skybandQuery,
			Params: map[string]any{"k": float64(10)},
			Method: "srs",
			Budget: 0.25,
			Seed:   3,
		},
		Op:    op,
		Shard: shard.Spec{Index: idx, Count: count},
		Args:  noArgs,
	}
}

// newWorkerServer starts one worker process: a Service over its own copy
// of the given tables, exposed over HTTP.
func newWorkerServer(t *testing.T, tables ...*lsample.Table) (*Service, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, tab := range tables {
		reg.Register(tab)
	}
	svc := New(reg, Options{MaxInFlight: 16})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// shardFrame encodes req as the request frame a coordinator sends.
func shardFrame(tb testing.TB, req *ShardRequest) []byte {
	tb.Helper()
	query, err := encodeQuery(req.CountRequest)
	if err != nil {
		tb.Fatal(err)
	}
	return append(shard.AppendCall(nil, &shard.Call{Query: query, Seed: req.Seed, Op: req.Op, Shard: req.Shard,
		Versions: req.Versions, Census: req.Census}), req.Args...)
}

func postShard(t *testing.T, srv *httptest.Server, req *ShardRequest) (*http.Response, []byte) {
	t.Helper()
	return postFrame(t, srv, shardFrame(t, req))
}

// postFrame posts one /v1/shard body and returns the response and its body.
func postFrame(t *testing.T, srv *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/shard", shard.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// mustAnswer decodes a 200 reply frame.
func mustAnswer(t *testing.T, payload []byte) *answer {
	t.Helper()
	a, err := readAnswer(payload)
	if err != nil {
		t.Fatalf("reply frame unreadable: %v (%.80q)", err, payload)
	}
	return a
}

func TestShardEndpointMetaAndVersionFence(t *testing.T) {
	const n = 100
	_, srv := newWorkerServer(t, testTable(n, 7))
	meta := *shardReq(shard.OpMeta, 0, 4)
	resp, payload := postShard(t, srv, &meta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta op: %d %s", resp.StatusCode, payload)
	}
	sr := mustAnswer(t, payload)
	if sr.reply.Meta == nil || sr.reply.Meta.N <= 0 || sr.reply.Meta.N >= n {
		t.Fatalf("shard 0/4 census = %+v, want a proper slice of %d", sr.reply.Meta, n)
	}
	if sr.versions == "" || sr.plan == nil || sr.plan.Fingerprint == "" {
		t.Fatalf("meta response missing versions/plan: %+v", sr)
	}
	// The plan is the worker's resolution of the request: the knobs the
	// request set, and the service defaults for those it did not.
	if p := sr.plan.Request; p.Method != "srs" || p.Budget != 0.25 || p.Classifier != "rf" || p.Strata != 4 || p.Interval != "wald" || p.Seed != 3 {
		t.Fatalf("resolved request = %+v", p)
	}
	// Only the meta op pays for the plan block; an unknown op is a 400.
	if resp, payload := postShard(t, srv, shardReq(shard.OpScoreAll, 0, 4)); resp.StatusCode != http.StatusOK ||
		mustAnswer(t, payload).plan != nil {
		t.Fatalf("score_all op: %d %.200q", resp.StatusCode, payload)
	}
	if resp, payload := postShard(t, srv, shardReq("explode", 0, 4)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: %d %s, want 400", resp.StatusCode, payload)
	}

	// The version fence: a pinned versions string that no longer matches
	// answers 409 version_mismatch with the current versions in a header.
	fenced := meta
	fenced.Versions = "D@999"
	resp, payload = postShard(t, srv, &fenced)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale versions: %d %s, want 409", resp.StatusCode, payload)
	}
	var env errorEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Error.Code != "version_mismatch" {
		t.Fatalf("409 body = %s", payload)
	}
	if got := resp.Header.Get("X-Dataset-Versions"); got != sr.versions {
		t.Fatalf("X-Dataset-Versions = %q, want %q", got, sr.versions)
	}

	// Matching versions pass the fence.
	fenced.Versions = sr.versions
	if resp, payload = postShard(t, srv, &fenced); resp.StatusCode != http.StatusOK {
		t.Fatalf("current versions rejected: %d %s", resp.StatusCode, payload)
	}
}

// opBuilds runs one shard op under a recording span and returns how many
// executors it built (executorBuilds).
func opBuilds(t *testing.T, svc *Service, req *ShardRequest) int {
	t.Helper()
	ctx, span := svc.Tracer().StartRequest(context.Background(), "shard."+req.Op, true)
	_, err := svc.ShardOp(ctx, req)
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	return executorBuilds(span.Data())
}

// TestShardExecCacheLifecycle: a shard's executor is built by its first op
// and found resident by the next; a data version bump drops the prepared
// query that kept it, so the new snapshot's first op builds its own.
func TestShardExecCacheLifecycle(t *testing.T) {
	const n = 80
	svc, _ := newWorkerServer(t, testTable(n, 7))
	for i, want := range []int{1, 1, 0, 0} {
		if got := opBuilds(t, svc, shardReq(shard.OpMeta, i%2, 2)); got != want {
			t.Fatalf("op %d on shard %d of 2 built %d executors, want %d", i, i%2, got, want)
		}
	}
	svc.RegisterTable(testTable(n, 8))
	if got := svc.preps.len(); got != 0 {
		t.Fatalf("after re-registration: retained %d prepared queries, want 0", got)
	}
	if got := opBuilds(t, svc, shardReq(shard.OpMeta, 0, 2)); got != 1 {
		t.Fatalf("the new snapshot's first op built %d executors, want 1", got)
	}
}

func TestCountInProcessSharded(t *testing.T) {
	const n, k = 120, 10
	svc := newTestService(t, n, Options{})
	base := CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "lss",
		Budget: 0.25,
		Seed:   3,
		Exact:  true,
	}
	ref, err := svc.Count(&base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 4
	got, err := svc.Count(&sharded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 4 || got.Cached || got.Degraded {
		t.Fatalf("shards/cached/degraded = %d/%t/%t", got.Shards, got.Cached, got.Degraded)
	}
	if got.Estimate != ref.Estimate || got.CILo != ref.CILo || got.CIHi != ref.CIHi ||
		got.Objects != ref.Objects || got.Budget != ref.Budget {
		t.Fatalf("sharded answer diverged: %v [%v,%v] vs %v [%v,%v]",
			got.Estimate, got.CILo, got.CIHi, ref.Estimate, ref.CILo, ref.CIHi)
	}
	if got.TrueCount == nil || ref.TrueCount == nil || *got.TrueCount != *ref.TrueCount {
		t.Fatalf("true counts %v vs %v", got.TrueCount, ref.TrueCount)
	}
	// Sharded and unsharded requests must not share a cache entry.
	again, err := svc.Count(&sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical sharded request should hit the result cache")
	}
}

func TestCountRejectsBadShards(t *testing.T) {
	svc := newTestService(t, 50, Options{})
	_, err := svc.Count(&CountRequest{
		SQL: skybandQuery, Params: map[string]any{"k": float64(5)}, Shards: -1,
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("shards=-1: err = %v", err)
	}
	// Methods outside the sharded contract are request errors, not silent
	// fallbacks to unsharded execution.
	_, err = svc.Count(&CountRequest{
		SQL: skybandQuery, Params: map[string]any{"k": float64(5)},
		Method: "ssp", Budget: 0.3, Shards: 2,
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ssp sharded: err = %v", err)
	}
}

func newCoordinator(t *testing.T, opts CoordinatorOptions, servers ...*httptest.Server) *Coordinator {
	t.Helper()
	var infos []WorkerInfo
	for i, s := range servers {
		infos = append(infos, WorkerInfo{Name: fmt.Sprintf("w%d", i), BaseURL: s.URL})
	}
	c, err := NewCoordinator(infos, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorByteIdentity(t *testing.T) {
	const n, k = 120, 10
	// Two workers with identical copies of the data; a local service as
	// the single-process reference.
	_, srvA := newWorkerServer(t, testTable(n, 7))
	_, srvB := newWorkerServer(t, testTable(n, 7))
	local := newTestService(t, n, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 4}, srvA, srvB)

	for _, method := range []string{"srs", "lss", "oracle"} {
		t.Run(method, func(t *testing.T) {
			req := CountRequest{
				SQL:    skybandQuery,
				Params: map[string]any{"k": float64(k)},
				Method: method,
				Budget: 0.25,
				Seed:   3,
				Exact:  true,
			}
			refReq := req
			refReq.Shards = 4
			ref, err := local.Count(&refReq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Count(context.Background(), &req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Degraded || got.Shards != 4 {
				t.Fatalf("degraded/shards = %t/%d", got.Degraded, got.Shards)
			}
			if got.Estimate != ref.Estimate || got.CILo != ref.CILo || got.CIHi != ref.CIHi ||
				got.Objects != ref.Objects || got.Budget != ref.Budget {
				t.Fatalf("scatter/gather diverged: %v [%v,%v] vs %v [%v,%v]",
					got.Estimate, got.CILo, got.CIHi, ref.Estimate, ref.CILo, ref.CIHi)
			}
			if got.TrueCount == nil || ref.TrueCount == nil || *got.TrueCount != *ref.TrueCount {
				t.Fatalf("true counts %v vs %v", got.TrueCount, ref.TrueCount)
			}
			if got.Fingerprint != ref.Fingerprint {
				t.Fatalf("fingerprints %q vs %q", got.Fingerprint, ref.Fingerprint)
			}
		})
	}
}

func TestCoordinatorGroupedByteIdentity(t *testing.T) {
	const n, k = 120, 12
	_, srvA := newWorkerServer(t, groupedTestTable(n, 7))
	_, srvB := newWorkerServer(t, groupedTestTable(n, 7))
	reg := NewRegistry()
	reg.Register(groupedTestTable(n, 7))
	local := New(reg, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 4}, srvA, srvB)

	req := CountRequest{
		SQL:    groupedSkybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "lss",
		Budget: 0.3,
		Seed:   5,
	}
	refReq := req
	refReq.Shards = 4
	ref, err := local.Count(&refReq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	// The total carries no interval on either path: a GROUP BY answer's
	// intervals are its rows'.
	if got.HasCI || got.CILo != 0 || got.CIHi != 0 {
		t.Fatalf("coordinator put an interval on a grouped total: has_ci=%t [%v, %v]", got.HasCI, got.CILo, got.CIHi)
	}
	sameAnswer(t, "coordinator vs in-process sharded", got, ref)
	t.Run("numeric-looking string keys", groupedRowOrder)
}

// groupedRowOrder is TestCoordinatorGroupedByteIdentity over a string group
// column whose values look like numbers: every path that answers orders the
// rows with the one comparator (shard.LessGroupKey), so "9" precedes "10"
// whether the count ran standalone (classic or through the catalog), under
// WithShards, or through a coordinator — whose answer must equal the
// in-process sharded one byte for byte, row order included.
func groupedRowOrder(t *testing.T) {
	const n, k = 120, 12
	table := func() *lsample.Table {
		r := xrand.New(7)
		tb, err := lsample.NewTable("B", "id:int,x:float,y:float,bucket:string")
		if err != nil {
			t.Fatal(err)
		}
		buckets := []string{"9", "10", "2", "10", "9", "west"}
		for i := 0; i < n; i++ {
			if err := tb.AppendRow(int64(i), r.Float64()*100, r.Float64()*100, buckets[i%len(buckets)]); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	_, srvA := newWorkerServer(t, table())
	_, srvB := newWorkerServer(t, table())
	reg := NewRegistry()
	reg.Register(table())
	local := New(reg, Options{})
	classic := New(reg, Options{CatalogBytes: -1}) // no reuse catalog: the classic body
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2}, srvA, srvB)

	req := CountRequest{
		SQL: `SELECT bucket, COUNT(*) FROM (
			SELECT o1.id, o1.bucket FROM B o1, B o2
			WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
			GROUP BY o1.id, o1.bucket HAVING COUNT(*) < k
		) GROUP BY bucket`,
		Params: map[string]any{"k": float64(k)},
		Method: "lss",
		Budget: 0.3,
		Seed:   5,
	}
	order := func(res *CountResult) string {
		keys := make([]string, len(res.Groups))
		for i, g := range res.Groups {
			keys[i] = strings.Join(g.Key, "|")
		}
		return strings.Join(keys, ",")
	}
	const want = "2,9,10,west"
	shardedReq := req
	shardedReq.Shards = 2
	var sharded *CountResult
	for _, tc := range []struct {
		what string
		svc  *Service
		req  *CountRequest
	}{{"standalone", local, &req}, {"standalone, classic path", classic, &req}, {"WithShards(2)", local, &shardedReq}} {
		res, err := tc.svc.Count(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if got := order(res); got != want {
			t.Errorf("%s: rows ordered %s, want %s", tc.what, got, want)
		}
		sharded = res
	}
	got, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if o := order(got); o != want {
		t.Errorf("coordinator: rows ordered %s, want %s", o, want)
	}
	sameAnswer(t, "coordinator vs in-process sharded, string keys", got, sharded)
}

// faultRT injects transport faults for one worker host: kill (connection
// error), stall (hang until the per-op deadline), or corrupt (garbage
// 200 body). An optional match restricts the fault to specific shard ops
// so a single shard can be killed mid-query.
type faultRT struct {
	base   http.RoundTripper
	target string // URL host to fault
	mode   string // kill | stall | corrupt
	match  func(*ShardRequest) bool

	mu   sync.Mutex
	hits int
}

func (f *faultRT) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *faultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	apply := req.URL.Host == f.target
	if apply && f.match != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		if sr, err := decodeShardRequest(body); err == nil {
			apply = f.match(sr)
		}
	}
	if !apply {
		return f.base.RoundTrip(req)
	}
	f.mu.Lock()
	f.hits++
	f.mu.Unlock()
	switch f.mode {
	case "kill":
		return nil, errors.New("chaos: connection killed")
	case "stall":
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("chaos: stall expired")
		}
	case "corrupt":
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"versions": "garbage`)),
			Request:    req,
		}, nil
	}
	return f.base.RoundTrip(req)
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestCoordinatorChaosFailover: with a second worker holding the same
// data, killing, stalling, or corrupting every request to the first
// worker must not change the answer by a byte — the hedged retries route
// around it, on the shape's first count and on a warm one that opens from
// the stored census.
func TestCoordinatorChaosFailover(t *testing.T) {
	const n, k = 120, 10
	_, srvA := newWorkerServer(t, testTable(n, 7))
	_, srvB := newWorkerServer(t, testTable(n, 7))
	local := newTestService(t, n, Options{})
	req := CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "lss",
		Budget: 0.25,
		Seed:   3,
	}
	refReq := req
	refReq.Shards = 4
	ref, err := local.Count(&refReq)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"kill", "stall", "corrupt"} {
		t.Run(mode, func(t *testing.T) {
			rt := &faultRT{base: http.DefaultTransport, target: hostOf(t, srvA.URL), mode: mode}
			coord := newCoordinator(t, CoordinatorOptions{
				Shards:         4,
				WorkerDeadline: 2 * time.Second,
				HedgeAfter:     25 * time.Millisecond,
				Client:         &http.Client{Transport: rt},
			}, srvA, srvB)
			got, cerr := coord.Count(context.Background(), &req)
			if cerr != nil {
				t.Fatal(cerr)
			}
			if rt.count() == 0 {
				t.Fatal("fault injector never fired; test routed nothing at the faulted worker")
			}
			if got.Degraded {
				t.Fatal("with a healthy replica the answer must not degrade")
			}
			if got.Estimate != ref.Estimate || got.CILo != ref.CILo || got.CIHi != ref.CIHi {
				t.Fatalf("answer changed under %s: %v [%v,%v] vs %v [%v,%v]",
					mode, got.Estimate, got.CILo, got.CIHi, ref.Estimate, ref.CILo, ref.CIHi)
			}
			warmCount(t, coord, req, got)
		})
	}
}

// TestCoordinatorDegradedAnswer kills one shard's operations after the
// census on the only worker: with AllowDegraded the coordinator answers
// inside its deadline with a scaled estimate, the lost shard listed, and
// a widened interval — never a silently partial count. Without it, the
// query fails.
func TestCoordinatorDegradedAnswer(t *testing.T) {
	const n, k = 120, 10
	_, srv := newWorkerServer(t, testTable(n, 7))
	req := CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "srs",
		Budget: 0.25,
		Seed:   3,
	}
	killShard2 := func(sr *ShardRequest) bool { return sr.Op != shard.OpMeta && sr.Shard.Index == 2 }
	rt := &faultRT{base: http.DefaultTransport, target: hostOf(t, srv.URL), mode: "kill", match: killShard2}
	opts := CoordinatorOptions{
		Shards:         4,
		WorkerDeadline: 2 * time.Second,
		HedgeAfter:     25 * time.Millisecond,
		Client:         &http.Client{Transport: rt},
	}

	strict := newCoordinator(t, opts, srv)
	if _, err := strict.Count(context.Background(), &req); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("strict coordinator: err = %v, want ErrNoWorkers", err)
	}

	opts.AllowDegraded = true
	lenient := newCoordinator(t, opts, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := lenient.Count(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.LostShards) != 1 || res.LostShards[0] != 2 {
		t.Fatalf("degraded/lost = %t/%v", res.Degraded, res.LostShards)
	}
	if res.Objects != n {
		t.Fatalf("objects = %d, want the full census %d", res.Objects, n)
	}
	if !res.HasCI || res.CIHi > float64(n) || res.CILo < 0 || res.CILo > res.CIHi {
		t.Fatalf("degraded CI invalid: [%v, %v]", res.CILo, res.CIHi)
	}
	if res.Estimate <= 0 || res.Estimate > float64(n) {
		t.Fatalf("degraded estimate %v out of range", res.Estimate)
	}
	// Warm, the count opens at cands — the round shard 2 is lost in — so
	// the shard is lost after the census again, and the answer repeats.
	warmCount(t, lenient, req, res)
}

// shardOpsSent is how many shard calls the coordinator has launched.
func shardOpsSent(c *Coordinator) int64 {
	var n int64
	for name := range c.workers {
		n += c.shardOps.With(name).Value()
	}
	return n
}

// opTally is a RoundTripper that tallies the shard ops it carries, by name.
type opTally struct {
	mu  sync.Mutex
	ops map[string]int
}

func (o *opTally) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	if sr, err := decodeShardRequest(body); err == nil {
		o.mu.Lock()
		if o.ops == nil {
			o.ops = make(map[string]int)
		}
		o.ops[sr.Op]++
		o.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// take returns the tally since the last take and starts a new one.
func (o *opTally) take() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops := o.ops
	o.ops = nil
	return ops
}

// answerBytes is an answer's estimate as bytes: everything but wall-clock
// time, the trace, and the accounting of who paid for which label.
func answerBytes(t *testing.T, r *CountResult) string {
	t.Helper()
	a := *r
	a.DurationMS, a.PredicateMS, a.Evals, a.Reuse, a.Compiled, a.Cached, a.Trace = 0, 0, 0, "", false, false, nil
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// censusSpans lists the memo and retried flags of an explained
// coordinator count's census spans, in the order they opened.
func censusSpans(res *CountResult) string {
	var out []string
	forEachSpan(res.Trace, func(d *obs.SpanData) {
		if d.Name == "shard.census" && d.Attrs["memo"] != nil {
			out = append(out, fmt.Sprintf("memo=%v retried=%v", d.Attrs["memo"], d.Attrs["retried"]))
		}
	})
	return strings.Join(out, ", ")
}

// warmCount counts req once more on a coordinator that has counted its
// shape: the count opens from the stored census — its census span says so
// and no meta op crosses the wire — and answers first's bytes.
func warmCount(t *testing.T, coord *Coordinator, req CountRequest, first *CountResult) {
	t.Helper()
	req.Explain = true
	res, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	metas := 0
	forEachSpan(res.Trace, func(d *obs.SpanData) {
		if d.Name == "shard.rpc" && d.Attrs["op"] == shard.OpMeta {
			metas++
		}
	})
	if got := censusSpans(res); metas != 0 || got != "memo=true retried=false" {
		t.Errorf("warm count sent %d meta ops, census spans %q: want none, from the store", metas, got)
	}
	if a, b := answerBytes(t, res), answerBytes(t, first); a != b {
		t.Errorf("warm count answered differently:\n%s\n%s", a, b)
	}
}

// TestCoordinatorVersionFence: workers serving different dataset versions
// can never contribute to one merged answer — the query fails with
// data_changed instead of mixing snapshots. Cold, the pre-flight sees it:
// it asks every shard at once and pins nothing until the answers agree, so
// no op past that round is sent and nothing reaches a merge. Warm — B moves
// after a count whose census the coordinator kept — B's shards refuse the
// stored pin at cands, the coordinator forgets the census and takes a fresh
// one, which disagrees: data_changed, and no label op is ever sent.
func TestCoordinatorVersionFence(t *testing.T) {
	const n, k, shards = 100, 10, 8
	req := CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "srs",
		Budget: 0.25,
		Seed:   3,
	}
	t.Run("cold", func(t *testing.T) {
		_, srvA := newWorkerServer(t, testTable(n, 7))
		svcB, srvB := newWorkerServer(t, testTable(n, 7))
		svcB.RegisterTable(testTable(n, 7)) // bump B's version past A's
		coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute}, srvA, srvB)
		if _, err := coord.Count(context.Background(), &req); !errors.Is(err, ErrDataChanged) {
			t.Fatalf("mixed versions: err = %v, want ErrDataChanged", err)
		}
		if sent := shardOpsSent(coord); sent != shards {
			t.Errorf("%d shard ops sent, want the %d pre-flight metas and nothing after them", sent, shards)
		}
	})
	t.Run("warm store", func(t *testing.T) {
		_, srvA := newWorkerServer(t, testTable(n, 7))
		svcB, srvB := newWorkerServer(t, testTable(n, 7))
		tally := &opTally{}
		coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute,
			Client: &http.Client{Transport: tally}}, srvA, srvB)
		if _, err := coord.Count(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
		tally.take()
		svcB.RegisterTable(testTable(n, 7))
		next := req
		next.Seed = 4
		if _, err := coord.Count(context.Background(), &next); !errors.Is(err, ErrDataChanged) {
			t.Fatalf("B moved after the census was kept: err = %v, want ErrDataChanged", err)
		}
		if ops := tally.take(); ops[shard.OpMeta] != shards || ops[shard.OpLabel] != 0 {
			t.Errorf("ops sent %v: want one fresh pre-flight (%d metas) and no label op", ops, shards)
		}
		if coord.censuses.len() != 0 {
			t.Error("the coordinator kept a census the workers disagree with")
		}
	})
}

// liveWorker starts a worker whose D is a live table of 80 points.
func liveWorker(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	lt, err := lsample.NewLiveTable("D", "id:int,x:float,y:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	var batch lsample.DeltaBatch
	for i := 0; i < 80; i++ {
		batch.Append(int64(i), float64((i*37)%100), float64((i*59)%100))
	}
	if _, err := lt.Apply(&batch); err != nil {
		t.Fatal(err)
	}
	svc := New(NewRegistry(), Options{MaxInFlight: 16})
	svc.RegisterLiveTable(lt)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// TestCoordinatorCensusFollowsIngest: an ingest on every worker between
// two counts of one request moves the versions the coordinator's stored
// census is pinned at. The second count's first round is refused, the
// coordinator takes exactly one more pre-flight — its census span and
// query log line say retried — and answers what a fresh coordinator
// answers over the new data, byte for byte.
func TestCoordinatorCensusFollowsIngest(t *testing.T) {
	const shards = 2
	svcA, srvA := liveWorker(t)
	svcB, srvB := liveWorker(t)
	tally := &opTally{}
	var logs bytes.Buffer
	coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute,
		Client: &http.Client{Transport: tally}, Logger: obs.NewLogger(&logs)}, srvA, srvB)
	req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3, Seed: 3}
	if _, err := coord.Count(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []*Service{svcA, svcB} {
		if _, err := svc.Ingest("D", "csv", strings.NewReader("id,x,y\n500,99,98\n501,1,2\n")); err != nil {
			t.Fatal(err)
		}
	}
	tally.take()
	logs.Reset()
	req.Seed, req.Explain = 4, true
	got, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if ops := tally.take(); ops[shard.OpMeta] != shards {
		t.Errorf("ops sent %v: want exactly one extra pre-flight (%d metas)", ops, shards)
	}
	if spans := censusSpans(got); spans != "memo=true retried=false, memo=false retried=true" {
		t.Errorf("census spans %q: want the stored census, then a retried fresh one", spans)
	}
	if line := logs.String(); !strings.Contains(line, `"memo":false`) || !strings.Contains(line, `"retried":true`) {
		t.Errorf("query log line does not say the count retried:\n%s", line)
	}
	if got.Objects != 82 {
		t.Errorf("answered over %d objects, want the 82 after the ingest", got.Objects)
	}
	fresh, err := newCoordinator(t, CoordinatorOptions{Shards: shards}, srvA, srvB).Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := answerBytes(t, got), answerBytes(t, fresh); a != b {
		t.Errorf("retried count differs from a fresh coordinator's:\n%s\n%s", a, b)
	}
}

// swapHandler serves whichever handler was stored last.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// TestCoordinatorCatchesSwappedWorker: a worker replaced behind the same
// URL by one over different data reports the same versions string — both
// processes registered D once — so the version pin alone would let the
// coordinator's stored census through. Every op of a count opened from
// the store carries the census it assumed, the new worker refuses it, and
// the count runs again from a fresh pre-flight: the answer is a fresh
// coordinator's over the new data.
func TestCoordinatorCatchesSwappedWorker(t *testing.T) {
	const shards = 2
	oldSvc, _ := newWorkerServer(t, testTable(120, 7))
	newSvc, _ := newWorkerServer(t, testTable(90, 8))
	var sw swapHandler
	h := oldSvc.Handler()
	sw.h.Store(&h)
	srv := httptest.NewServer(&sw)
	t.Cleanup(srv.Close)

	req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "srs", Budget: 0.3, Seed: 3}
	var versions []string
	for _, svc := range []*Service{oldSvc, newSvc} {
		meta := ShardRequest{CountRequest: req, Op: shard.OpMeta, Shard: shard.Spec{Index: 0, Count: shards}, Args: noArgs}
		resp, err := svc.ShardOp(context.Background(), &meta)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, resp.Versions)
	}
	if versions[0] != versions[1] {
		t.Fatalf("versions %q and %q differ: the version pin alone would catch the swap", versions[0], versions[1])
	}

	tally := &opTally{}
	coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute,
		Client: &http.Client{Transport: tally}}, srv)
	if _, err := coord.Count(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	h = newSvc.Handler()
	sw.h.Store(&h)
	tally.take()
	req.Seed, req.Explain = 4, true
	got, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if ops := tally.take(); ops[shard.OpMeta] != shards {
		t.Errorf("ops sent %v: want exactly one extra pre-flight (%d metas)", ops, shards)
	}
	if spans := censusSpans(got); spans != "memo=true retried=false, memo=false retried=true" {
		t.Errorf("census spans %q: want the stored census refused, then a fresh one", spans)
	}
	fresh, err := newCoordinator(t, CoordinatorOptions{Shards: shards}, srv).Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objects != 90 || answerBytes(t, got) != answerBytes(t, fresh) {
		t.Errorf("after the swap:\n%s\nwant a fresh coordinator's\n%s", answerBytes(t, got), answerBytes(t, fresh))
	}
}

// TestCoordinatorRoundBudget pins what a scattered count costs in RPCs on
// two shards. A shape's first count sends one meta per shard that is
// pre-flight and census at once, then one call per shard per round the
// plan's data dependencies require — lss cands, label with the learn
// sample's feature rows, score_all, one label for every stratum (10 in all;
// it was 19 when the census asked again, features were an op and each
// stratum a round), srs cands and label (6; it was 7). Every later count of
// the shape, whatever its seed, opens at cands from the coordinator's
// stored census: 8 and 4. A grouped lss count adds one label round for its
// under-served groups' top-ups: 12, then 10.
func TestCoordinatorRoundBudget(t *testing.T) {
	const n, shards = 120, 2
	_, srvA := newWorkerServer(t, testTable(n, 7), groupedTestTable(n, 7))
	_, srvB := newWorkerServer(t, testTable(n, 7), groupedTestTable(n, 7))
	// No hedging: a slow test machine must not add backup calls.
	coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute}, srvA, srvB)
	for _, tc := range []struct {
		what, sql, method string
		first, repeat     int64
	}{
		{"lss", skybandQuery, "lss", 10, 8},
		{"srs", skybandQuery, "srs", 6, 4},
		{"grouped lss", groupedSkybandQuery, "lss", 12, 10},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			before := shardOpsSent(coord)
			_, err := coord.Count(context.Background(), &CountRequest{
				SQL: tc.sql, Params: map[string]any{"k": float64(10)},
				Method: tc.method, Budget: 0.3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.repeat
			if seed == 1 {
				want = tc.first
			}
			if got := shardOpsSent(coord) - before; got != want {
				t.Errorf("%s seed %d: %d shard ops for one count on %d shards, want %d",
					tc.what, seed, got, shards, want)
			}
		}
	}
}

// BenchmarkCoordinatorCount times repeat lss counts of the shard_scatter
// workload's shape through a coordinator over two loopback workers and two
// shards, each count under a new seed after a first has stored the shape's
// census and the workers' catalogs have labeled the population. rpcs/op is
// the shard calls one count sends (8: it opens at cands); allocs/op counts
// the coordinator's and both workers' allocations together.
func BenchmarkCoordinatorCount(b *testing.B) {
	var urls []*httptest.Server
	for range 2 {
		reg := NewRegistry()
		reg.Register(testTable(wireRows, 7))
		srv := httptest.NewServer(New(reg, Options{MaxInFlight: 16}).Handler())
		b.Cleanup(srv.Close)
		urls = append(urls, srv)
	}
	c, err := NewCoordinator([]WorkerInfo{{Name: "w0", BaseURL: urls[0].URL}, {Name: "w1", BaseURL: urls[1].URL}},
		CoordinatorOptions{Shards: 2, HedgeAfter: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	req := wireCount
	for seed := range uint64(20) {
		req.Seed = seed + 1
		if _, err := c.Count(context.Background(), &req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	before := shardOpsSent(c)
	counts := 0
	for b.Loop() {
		counts++
		req.Seed = uint64(100 + counts)
		if _, err := c.Count(context.Background(), &req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(shardOpsSent(c)-before)/float64(counts), "rpcs/op")
}

// TestCoordinatorKeepsWorkerConnections: a round puts ceil(shards/workers)
// calls on a worker at once, and the coordinator's own client keeps that
// many connections idle between rounds — http.DefaultClient kept two per
// worker and dialed the rest again every round. The client trace tells a
// call that used a connection it dialed itself from one that found a kept
// one. The server's count of connections is no bound on the first count:
// a call that starts a dial and then takes a connection another call just
// returned leaves the transport a spare (under load the first count of
// eight shards has opened nine or ten this way, each call but a few
// reusing).
func TestCoordinatorKeepsWorkerConnections(t *testing.T) {
	const n, shards = 120, 8
	svc := newTestService(t, n, Options{MaxInFlight: 16})
	var dialed atomic.Int64
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	coord := newCoordinator(t, CoordinatorOptions{Shards: shards, HedgeAfter: time.Minute}, srv)
	if coord.client == http.DefaultClient {
		t.Fatal("coordinator fell back to http.DefaultClient")
	}
	// count runs one count and returns how many of its calls took a
	// connection of their own dialing and how many a kept one.
	count := func(seed uint64) (fresh, reused int64) {
		t.Helper()
		var f, r atomic.Int64
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if info.Reused {
					r.Add(1)
				} else {
					f.Add(1)
				}
			},
		})
		_, err := coord.Count(ctx, &CountRequest{
			SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f.Load(), r.Load()
	}
	if fresh, reused := count(1); fresh > shards || reused == 0 {
		t.Errorf("the first count's calls took %d new connections and %d kept ones for %d shards: rounds are re-dialing",
			fresh, reused, shards)
	}
	warm := dialed.Load()
	if fresh, reused := count(2); fresh != 0 || reused == 0 || dialed.Load() != warm {
		t.Errorf("the second count took %d new connections (the worker saw %d more) and %d kept ones, want every call on a kept one",
			fresh, dialed.Load()-warm, reused)
	}

	own := &http.Client{}
	if c := newCoordinator(t, CoordinatorOptions{Client: own}, srv); c.client != own {
		t.Error("CoordinatorOptions.Client did not override the coordinator's own client")
	}
}

// TestCoordinatorConcurrentIngest races scatter/gather queries from two
// clients against live ingestion on the worker. Every query must either
// succeed with a well-formed answer or fail cleanly (data_changed when an
// ingest lands mid-query) — never return a silently partial merge, whether
// it took a fresh census or opened from a stored one. Run with -race.
func TestCoordinatorConcurrentIngest(t *testing.T) {
	const k = 10
	lt, err := lsample.NewLiveTable("D", "id:int,x:float,y:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	var batch lsample.DeltaBatch
	for i := 0; i < 80; i++ {
		batch.Append(int64(i), float64((i*37)%100), float64((i*59)%100))
	}
	if _, err := lt.Apply(&batch); err != nil {
		t.Fatal(err)
	}
	svc := New(NewRegistry(), Options{MaxInFlight: 16})
	svc.RegisterLiveTable(lt)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	coord := newCoordinator(t, CoordinatorOptions{Shards: 4}, srv)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			csv := fmt.Sprintf("id,x,y\n%d,%d,%d\n", 1000+i, (i*13)%100, (i*29)%100)
			if _, ierr := svc.Ingest("D", "csv", strings.NewReader(csv)); ierr != nil {
				t.Errorf("ingest: %v", ierr)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Two clients share the coordinator's census store: each count opens
	// from whichever census the other stored, dropped or replaced last.
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := c; i < 8; i += 2 {
				res, cerr := coord.Count(context.Background(), &CountRequest{
					SQL:    skybandQuery,
					Params: map[string]any{"k": float64(k)},
					Method: "srs",
					Budget: 0.3,
					Seed:   uint64(i + 1),
				})
				if cerr != nil {
					if errors.Is(cerr, ErrDataChanged) {
						continue // clean refusal: an ingest landed mid-query
					}
					t.Errorf("query %d: %v", i, cerr)
					return
				}
				if res.Degraded || res.Objects <= 0 || (res.HasCI && res.CILo > res.CIHi) {
					t.Errorf("query %d: malformed answer %+v", i, res)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	wg.Wait()
}

// TestCoordinatorUsesWorkerDefaults: the coordinator normalizes nothing —
// it reads the resolved plan from the worker's meta reply — so a scattered
// count that omits method and budget gets the worker's -method/-budget
// exactly as a standalone count does (it used to get lss/0.02 regardless).
// The answer is byte-identical to the same request sent to that worker's
// own /v1/count with shards set.
func TestCoordinatorUsesWorkerDefaults(t *testing.T) {
	const n = 120
	reg := NewRegistry()
	reg.Register(testTable(n, 7))
	svc := New(reg, Options{MaxInFlight: 16, DefaultMethod: "srs", DefaultBudget: 0.1})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	coord := newCoordinator(t, CoordinatorOptions{Shards: 4}, srv)

	req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Seed: 3}
	got, err := coord.Count(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "srs" || got.Budget != lsample.EvalBudget(0.1, n) {
		t.Fatalf("coordinator answered method %q budget %d, want the worker's srs / %d",
			got.Method, got.Budget, lsample.EvalBudget(0.1, n))
	}

	own := req
	own.Shards = 4
	var ref CountResult
	if resp, payload := postJSON(t, srv.URL+"/v1/count", &own); resp.StatusCode != http.StatusOK {
		t.Fatalf("worker /v1/count: %d %s", resp.StatusCode, payload)
	} else if err := json.Unmarshal(payload, &ref); err != nil {
		t.Fatal(err)
	}
	if a, b := answerBytes(t, got), answerBytes(t, &ref); a != b {
		t.Fatalf("scattered answer differs from the worker's own:\n%s\n%s", a, b)
	}
	// A warm count sends the plan the stored census resolved.
	warmCount(t, coord, req, got)
}

// TestPlaceBalancesPrimaries runs place over every roster of 1 to 16
// workers and every layout of 1 to 33 shards: each shard's list is the
// roster once each, no worker is primary for more than ceil(S/W) shards and
// every worker for exactly k when S = kW, and the same workers listed
// reversed or shuffled place identically.
func TestPlaceBalancesPrimaries(t *testing.T) {
	rng := xrand.New(33)
	for w := 1; w <= 16; w++ {
		roster := make([]string, w)
		for i := range roster {
			roster[i] = fmt.Sprintf("w%d", i+1)
		}
		names := slices.Sorted(slices.Values(roster))
		for s := 1; s <= 33; s++ {
			placed := place(roster, s)
			if len(placed) != s {
				t.Fatalf("W=%d S=%d: %d lists", w, s, len(placed))
			}
			load := map[string]int{}
			for i, list := range placed {
				if !slices.Equal(slices.Sorted(slices.Values(list)), names) {
					t.Fatalf("W=%d S=%d: shard %d's candidates %v are not the roster once each", w, s, i, list)
				}
				load[list[0]]++
			}
			bound := (s + w - 1) / w
			for _, name := range names {
				if load[name] > bound || (s%w == 0 && load[name] != s/w) {
					t.Errorf("W=%d S=%d: %s is primary for %d shards, bound %d (loads %v)", w, s, name, load[name], bound, load)
				}
			}
			reversed, shuffled := slices.Clone(roster), slices.Clone(roster)
			slices.Reverse(reversed)
			rng.Shuffle(w, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, other := range [][]string{reversed, shuffled} {
				if got := place(other, s); fmt.Sprint(got) != fmt.Sprint(placed) {
					t.Fatalf("W=%d S=%d: roster %v places as %v, roster %v as %v", w, s, other, got, roster, placed)
				}
			}
		}
	}
}
