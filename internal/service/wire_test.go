package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/xrand"
	"repro/lsample"
)

// wireCount is the shard_scatter workload's lss count over its 300-row
// table, as the ops of one of its two shards carry it.
var wireCount = CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(25)}, Method: "lss", Budget: 0.35, Seed: 3}

const wireRows = 300

// wireOp is one /v1/shard request frame of shard 0/2 of wireCount, built
// as the coordinator builds it: query is the count request encoded once
// (encodeQuery), and the op's arguments go straight into the frame.
func wireOp(tb testing.TB, query []byte, op string, args *shard.Args, versions string) []byte {
	tb.Helper()
	if args == nil {
		args = &shard.Args{}
	}
	body, err := shard.AppendArgs(shard.AppendCall(nil, &shard.Call{
		Query: query, Seed: wireCount.Seed, Op: op, Shard: shard.Spec{Index: 0, Count: 2}, Versions: versions,
	}), args)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// wireQuery is wireCount as a request frame carries it.
func wireQuery(tb testing.TB) []byte {
	tb.Helper()
	query, err := encodeQuery(wireCount)
	if err != nil {
		tb.Fatal(err)
	}
	return query
}

// shardOpSequence sends one shard's lss ops the way shard.Drive does — meta,
// cands, label with the learn sample's feature rows, score_all, and one
// label for a stratum-sized selection — each op's arguments built from the
// replies before it. send carries one op and returns its reply block.
func shardOpSequence(tb testing.TB, send func(op string, args *shard.Args) shard.Reply) {
	tb.Helper()
	meta := send(shard.OpMeta, nil)
	if meta.Meta == nil || meta.Meta.N == 0 {
		tb.Fatalf("meta reply %+v: no census", meta)
	}
	k, err := shard.LearnSize(lsample.EvalBudget(wireCount.Budget, wireRows))
	if err != nil {
		tb.Fatal(err)
	}
	var learn []int64
	for _, c := range send(shard.OpCands, &shard.Args{K: k, Tag: shard.TagLearn}).Cands {
		learn = append(learn, c.Key)
	}
	labeled := send(shard.OpLabel, &shard.Args{Keys: learn, RowsOf: learn})
	if len(learn) == 0 || len(labeled.Labels) != len(learn) || len(labeled.Features) != len(learn) {
		tb.Fatalf("label of %d learn keys: %d labels, %d feature rows", len(learn), len(labeled.Labels), len(labeled.Features))
	}
	scored := send(shard.OpScoreAll, &shard.Args{X: labeled.Features, Y: labeled.Labels, ClfSeed: 1}).Scored
	if len(scored) != meta.Meta.N {
		tb.Fatalf("score_all scored %d of the shard's %d objects", len(scored), meta.Meta.N)
	}
	var stratum []int64
	for i := 0; i < len(scored); i += 4 {
		stratum = append(stratum, scored[i].Key)
	}
	if got := send(shard.OpLabel, &shard.Args{Keys: stratum}).Labels; len(got) != len(stratum) {
		tb.Fatalf("label of %d stratum keys: %d labels", len(stratum), len(got))
	}
}

// isCompactLine reports whether body is one line of compact JSON plus the
// encoder's trailing newline.
func isCompactLine(body []byte) bool {
	var buf bytes.Buffer
	if json.Compact(&buf, body) != nil {
		return false
	}
	return buf.String()+"\n" == string(body)
}

// TestResponsesAreCompact: every role answers /v1/count in compact JSON —
// a reply standalone, sharded in-process and from a coordinator — and every
// 200 /v1/shard reply of an lss count, score_all's population-sized one
// included, is one reply frame that decodes strictly: head, reply block and
// nothing after it.
func TestResponsesAreCompact(t *testing.T) {
	_, srvA := newWorkerServer(t, testTable(wireRows, 7))
	_, srvB := newWorkerServer(t, testTable(wireRows, 7))
	coord := httptest.NewServer(newCoordinator(t, CoordinatorOptions{Shards: 2}, srvA, srvB).Handler())
	t.Cleanup(coord.Close)

	sharded := wireCount
	sharded.Shards = 2
	for _, tc := range []struct {
		what, url string
		req       *CountRequest
	}{
		{"standalone", srvA.URL, &wireCount},
		{`"shards": 2`, srvA.URL, &sharded},
		{"coordinator", coord.URL, &wireCount},
	} {
		resp, body := postJSON(t, tc.url+"/v1/count", tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.what, resp.StatusCode, body)
		}
		if !isCompactLine(body) {
			t.Errorf("%s /v1/count body is not one line of compact JSON:\n%.300s", tc.what, body)
		}
	}

	versions, query := "", wireQuery(t)
	shardOpSequence(t, func(op string, args *shard.Args) shard.Reply {
		resp, payload := postFrame(t, srvB, wireOp(t, query, op, args, versions))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", op, resp.StatusCode, payload)
		}
		if ct := resp.Header.Get("Content-Type"); ct != shard.FrameContentType {
			t.Errorf("/v1/shard %s answered Content-Type %q", op, ct)
		}
		head, block, err := shard.ReadAnswer(payload)
		if err != nil {
			t.Fatalf("/v1/shard %s body is not a reply frame: %v", op, err)
		}
		r, err := shard.DecodeReply(block)
		if err != nil {
			t.Fatalf("/v1/shard %s reply block: %v", op, err)
		}
		versions = head.Versions
		return r
	})
}

// countingWriter adds the bytes a handler writes to n.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// BenchmarkShardOpWire times one shard's five lss ops against a worker over
// loopback HTTP through the coordinator's post — request frame encode (the
// count request's sub-block encoded once, as a count does), worker decode
// and reply frame, reply decode — after a first pass has prepared the
// executor and bought the labels, as on a warm shard_scatter worker.
// wire-B/op is the request plus reply bytes of the five ops: the regression
// guard for the frames' size.
func BenchmarkShardOpWire(b *testing.B) {
	reg := NewRegistry()
	reg.Register(testTable(wireRows, 7))
	svc := New(reg, Options{MaxInFlight: 16})
	var wire atomic.Int64
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.Add(r.ContentLength)
		h.ServeHTTP(countingWriter{w, &wire}, r)
	}))
	b.Cleanup(srv.Close)
	c, err := NewCoordinator([]WorkerInfo{{Name: "w0", BaseURL: srv.URL}}, CoordinatorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	versions, query := "", wireQuery(b)
	send := func(op string, args *shard.Args) shard.Reply {
		a, err := c.post(ctx, srv.URL, wireOp(b, query, op, args, versions), "")
		if err != nil {
			b.Fatal(err)
		}
		versions = a.versions
		return a.reply
	}
	shardOpSequence(b, send)
	wire.Store(0)
	seqs := 0
	for b.Loop() {
		shardOpSequence(b, send)
		seqs++
	}
	b.ReportMetric(float64(wire.Load())/float64(seqs), "wire-B/op")
}

// nonFiniteTable is testTable with a NaN x every 50th row, and +Inf y and
// -Inf x on two other rows of every 50: feature values a count must carry
// to the workers and back bit for bit.
func nonFiniteTable(n int, seed uint64) *lsample.Table {
	r := xrand.New(seed)
	t, err := lsample.NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		x, y := r.Float64()*100, r.Float64()*100
		switch i % 50 {
		case 0:
			x = math.NaN()
		case 17:
			y = math.Inf(1)
		case 33:
			x = math.Inf(-1)
		}
		if err := t.AppendRow(int64(i), x, y); err != nil {
			panic(err)
		}
	}
	return t
}

// TestCoordinatorNonFiniteFeatures: NaN and ±Inf in a feature column reach
// the workers' learn sample, its feature rows and the scores, and a
// coordinator over two workers answers exactly what the same request
// answers with "shards": 2 in one process. Under JSON bodies a NaN row
// made the worker's reply unencodable, and every count failed as worker
// loss.
func TestCoordinatorNonFiniteFeatures(t *testing.T) {
	_, srvA := newWorkerServer(t, nonFiniteTable(wireRows, 7))
	_, srvB := newWorkerServer(t, nonFiniteTable(wireRows, 7))
	reg := NewRegistry()
	reg.Register(nonFiniteTable(wireRows, 7))
	local := New(reg, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2, HedgeAfter: time.Minute}, srvA, srvB)
	for seed := uint64(3); seed <= 5; seed++ {
		req := wireCount
		req.Seed = seed
		got, err := coord.Count(context.Background(), &req)
		if err != nil {
			t.Fatalf("seed %d: coordinator: %v", seed, err)
		}
		req.Shards = 2
		want, err := local.Count(&req)
		if err != nil {
			t.Fatalf("seed %d: in process: %v", seed, err)
		}
		if answerBytes(t, got) != answerBytes(t, want) {
			t.Errorf("seed %d: coordinator answered\n%s\nwant the in-process \"shards\": 2 answer\n%s",
				seed, answerBytes(t, got), answerBytes(t, want))
		}
	}
}

// frameVersionBump rewrites the version byte of every 200 /v1/shard reply
// frame a worker writes: a worker of the next frame version.
type frameVersionBump struct{ h http.Handler }

func (f frameVersionBump) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK && rec.Header().Get("Content-Type") == shard.FrameContentType {
		body[3]++ // after the 3-byte magic
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body) //nolint:errcheck
}

// TestShardFrameVersionSkew: a /v1/shard body that is not a request frame
// of this version — an older coordinator's JSON body, or a frame of
// another version — is a 400 bad_request naming the frame version the
// worker reads; and a 200 reply frame the coordinator cannot read fails the
// count at once, with no hedge or failover to a sibling that would answer
// the same way.
func TestShardFrameVersionSkew(t *testing.T) {
	_, srv := newWorkerServer(t, testTable(wireRows, 7))
	jsonBody, err := json.Marshal(map[string]any{
		"sql": skybandQuery, "params": map[string]any{"k": 25}, "method": "lss", "seed": 3,
		"op": "meta", "shard": map[string]int{"index": 0, "count": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	bumped := shardFrame(t, shardReq(shard.OpMeta, 0, 2))
	bumped[3]++
	for what, body := range map[string][]byte{"an older coordinator's JSON body": jsonBody, "a frame of version 2": bumped} {
		resp, payload := postFrame(t, srv, body)
		var env errorEnvelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(payload, &env) != nil || env.Error.Code != "bad_request" ||
			!strings.Contains(env.Error.Message, "version-1 shard request frame") {
			t.Errorf("%s: %d %s, want 400 bad_request naming the frame version", what, resp.StatusCode, payload)
		}
	}

	svcA, _ := newWorkerServer(t, testTable(wireRows, 7))
	newer := httptest.NewServer(frameVersionBump{svcA.Handler()})
	t.Cleanup(newer.Close)
	var sibling atomic.Int64
	svcB, _ := newWorkerServer(t, testTable(wireRows, 7))
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sibling.Add(1)
		svcB.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	// One shard, whose primary is the newer worker ("w0" sorts first).
	coord := newCoordinator(t, CoordinatorOptions{Shards: 1, HedgeAfter: time.Minute}, newer, counted)
	_, err = coord.Count(context.Background(), &wireCount)
	if err == nil || errors.Is(err, ErrNoWorkers) || !strings.Contains(err.Error(), "version-1 shard reply frame") {
		t.Fatalf("count over a worker of another frame version: err = %v, want the frame version named, not worker loss", err)
	}
	if n := sibling.Load(); n != 0 || coord.hedges.Value() != 0 || coord.workerErrors.Value() != 0 {
		t.Errorf("the unreadable reply moved on: %d calls to the sibling, %d hedges, %d worker errors",
			n, coord.hedges.Value(), coord.workerErrors.Value())
	}
}
