package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/shard"
	"repro/lsample"
)

// wireCount is the shard_scatter workload's lss count over its 300-row
// table, as the ops of one of its two shards carry it.
var wireCount = CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(25)}, Method: "lss", Budget: 0.35, Seed: 3}

const wireRows = 300

// wireOp is one /v1/shard request of shard 0/2 of wireCount.
func wireOp(tb testing.TB, op string, args *shard.Args, versions string) *ShardRequest {
	tb.Helper()
	req := &ShardRequest{CountRequest: wireCount, Op: op, Shard: shard.Spec{Index: 0, Count: 2}, Versions: versions}
	if args != nil {
		var err error
		if req.Args, err = json.Marshal(args); err != nil {
			tb.Fatal(err)
		}
	}
	return req
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

// TestResponsesAreCompact: every role answers in compact JSON — a /v1/count
// reply standalone, sharded in-process and from a coordinator, and every
// /v1/shard reply of an lss count, score_all's population-sized one
// included.
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

	versions := ""
	shardOpSequence(t, func(op string, args *shard.Args) shard.Reply {
		resp, payload := postShard(t, srvB, wireOp(t, op, args, versions))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", op, resp.StatusCode, payload)
		}
		if !isCompactLine(payload) {
			t.Errorf("/v1/shard %s body is not one line of compact JSON:\n%.300s", op, payload)
		}
		var sr ShardResponse
		var r shard.Reply
		if err := json.Unmarshal(payload, &sr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(sr.Reply, &r); err != nil {
			t.Fatal(err)
		}
		versions = sr.Versions
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
// loopback HTTP through the coordinator's post — request encode, worker
// envelope, reply decode — after a first pass has prepared the executor and
// bought the labels, as on a warm shard_scatter worker. wire-B/op is the
// request plus reply bytes of the five ops: the regression guard for the
// envelope's size.
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
	versions := ""
	send := func(op string, args *shard.Args) shard.Reply {
		body, err := json.Marshal(wireOp(b, op, args, versions))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := c.post(ctx, srv.URL, body, "")
		if err != nil {
			b.Fatal(err)
		}
		versions = resp.Versions
		return resp.Reply
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
