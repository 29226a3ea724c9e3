package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/lsample"
)

// This file is the worker side of sharded scale-out estimation: POST
// /v1/shard runs one op of internal/shard's protocol on one shard of a
// query, so a coordinator process can scatter the deterministic
// per-trial-stream protocol across machines and merge byte-identically.
// Every request is one binary frame (internal/shard/frame.go) that names
// the query and its knobs (a CountRequest in a JSON sub-block, resolved by
// the same resolver /v1/count uses), the seed, the shard, and the op with
// its argument block, and every 200 reply is one frame too. The worker
// asks the prepared query for that shard
// (lsample.PreparedQuery.PrepareShard) on every op — the prepared query
// keeps the shard's executor, its slice of the population, its features and
// its cross-checked predicate, none of which a seed or a budget can change,
// resident across ops and counts — hands the op its request's seed, and
// passes args and reply through without decoding either. Labels land in
// the reuse catalog under a per-shard key just as seed-free, so a worker
// retains O(population) labels per (query, shard) however many counts it
// has served, and none at all without a catalog.
//
// Version fencing: every response reports the worker's resolved dataset
// versions, and a request carrying an expected "versions" string fails
// with 409 version_mismatch when the worker's data has moved on — a
// coordinator that pinned its census against version V can never merge a
// partial computed against V+1. A request that also carries the census the
// coordinator assumed for the shard fails the same way when the shard's own
// census differs: versions strings are per-process counters, so a worker
// restarted over other data can answer with the versions of the old.

// ShardRequest is one /v1/shard operation, as a worker reads it off a
// request frame (decodeShardRequest): the count request being scattered,
// plus the shard, the op, and the op's argument block. Of the embedded
// request only the query and its sampling knobs apply to a shard; the
// serving flags (shards, exact, no_cache, degrade, explain) are the merging
// process's business. The frame carries the request as a JSON sub-block
// without its seed, and the seed beside it.
type ShardRequest struct {
	CountRequest
	Op       string     // an internal/shard op name
	Shard    shard.Spec // the shard of the query's layout
	Versions string     // expected dataset versions ("" skips the fence)
	// Census is the shard's census the coordinator assumed, set when it
	// kept the census of an earlier count instead of asking again; a worker
	// whose own differs answers as for stale versions.
	Census *shard.Meta
	Args   []byte // the op's encoded shard.Args block, passed through undecoded
}

// ShardResponse is the result of one /v1/shard operation: the op's reply
// block plus the worker's dataset versions. The meta op additionally
// reports the resolved plan, so a coordinator can shape the final answer
// without parsing SQL or normalizing a knob itself. writeShardResponse
// writes it as a reply frame.
type ShardResponse struct {
	Versions string
	Plan     *PlanInfo
	Reply    []byte // the op's encoded shard.Reply block, written as it is
	// Trace is the worker's completed span tree for this op, present when
	// the inbound traceparent was sampled — the coordinator grafts it under
	// its own attempt span so one query yields one stitched trace.
	Trace *obs.SpanData
}

// versionMismatchError carries the worker's current versions back to the
// HTTP layer, which maps it to 409 version_mismatch with the versions in an
// X-Dataset-Versions header (writeError). census marks a census that
// differs under unchanged versions.
type versionMismatchError struct {
	want, current string
	census        bool
}

func (e *versionMismatchError) Error() string {
	if e.census {
		return fmt.Sprintf("service: shard census differs from the coordinator's at versions %q", e.current)
	}
	return fmt.Sprintf("service: dataset versions moved from %q to %q", e.want, e.current)
}

// ShardOp executes one shard operation against the registry's current
// snapshot of the referenced datasets.
func (s *Service) ShardOp(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	if !req.Shard.Valid() {
		return nil, badf("shard %s out of range", req.Shard)
	}
	q := req.CountRequest
	q.NoCache = false // shard executors always sit on the reuse catalog
	p, err := s.resolve(&q)
	if err != nil {
		return nil, err
	}
	if req.Versions != "" && req.Versions != p.Versions {
		return nil, &versionMismatchError{want: req.Versions, current: p.Versions}
	}
	prep, err := s.prepared(p)
	if err != nil {
		return nil, mapSDKErr(err)
	}
	exec, err := prep.PrepareShard(ctx, req.Shard.Index, req.Shard.Count, p.Params, p.execOptions()...)
	if err != nil {
		return nil, mapSDKErr(err)
	}
	if req.Census != nil {
		if err := checkCensus(ctx, exec, p, req.Census); err != nil {
			return nil, err
		}
	}
	if shard.Heavy(req.Op) {
		// Labeling and training share the MaxInFlight and per-dataset
		// budgets with whole-query estimations. Shard ops carry no admission
		// deadline of their own — the coordinator's per-op context deadline
		// bounds the wait.
		release, aerr := s.admitted(ctx, p.Versions, time.Time{})
		if aerr != nil {
			return nil, aerr
		}
		defer release()
	}
	resp := &ShardResponse{Versions: p.Versions}
	if resp.Reply, err = exec.Op(ctx, p.Seed, req.Op, req.Args); err != nil {
		return nil, mapSDKErr(err)
	}
	if req.Op == shard.OpMeta {
		resp.Plan = &PlanInfo{
			Request:     p.CountRequest,
			Fingerprint: exec.Fingerprint(),
			GroupCols:   prep.GroupColumns(),
			FeatureCols: exec.FeatureColumns(),
		}
	}
	return resp, nil
}

// noArgs is the argument block of an op that takes none, such as meta.
var noArgs, _ = shard.AppendArgs(nil, &shard.Args{}) // no rows: cannot fail

// checkCensus compares the census the coordinator assumed for this shard
// with the shard's own, as the meta op reports it, by their reply blocks:
// the codec writes equal censuses as equal bytes.
func checkCensus(ctx context.Context, exec *lsample.ShardExec, p *plan, assumed *shard.Meta) error {
	own, err := exec.Op(ctx, p.Seed, shard.OpMeta, noArgs)
	if err != nil {
		return mapSDKErr(err)
	}
	want, _ := shard.AppendReply(nil, &shard.Reply{Meta: assumed}) // a census has no rows: cannot fail
	if !bytes.Equal(own, want) {
		return &versionMismatchError{want: p.Versions, current: p.Versions, census: true}
	}
	return nil
}

// decodeShardRequest reads a request frame: its head, the count request
// sub-block — as strictly as decodeBody reads a /v1/count body — under the
// frame's seed, and the op's argument block, left encoded for the op.
// Anything else, a JSON body of an older coordinator included, is a bad
// request that names the frame version the worker reads.
func decodeShardRequest(body []byte) (*ShardRequest, error) {
	c, args, err := shard.ReadCall(body)
	if err != nil {
		return nil, badf("%v", err)
	}
	req := &ShardRequest{Op: c.Op, Shard: c.Shard, Versions: c.Versions, Census: c.Census, Args: args}
	if err := decodeJSON(bytes.NewReader(c.Query), &req.CountRequest); err != nil {
		return nil, clientErr("shard frame's count request", err)
	}
	if req.Seed != 0 {
		return nil, badf("shard frame's count request carries a seed: the frame's own is the op's")
	}
	req.Seed = c.Seed
	return req, nil
}

func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, clientErr("reading the shard frame", err))
		return
	}
	req, err := decodeShardRequest(body)
	if err != nil {
		writeError(w, err)
		return
	}
	// Adopt the coordinator's trace: a sampled inbound traceparent makes
	// this worker record its own subtree and ship it back on the response.
	ctx, span := s.tracer.StartRequest(traceCtx(r), "shard."+req.Op, false)
	span.Set("op", req.Op)
	span.Set("shard", req.Shard.Index)
	span.Set("shard_count", req.Shard.Count)
	resp, err := s.ShardOp(ctx, req)
	if err != nil {
		span.Set("error", err.Error())
	}
	span.End()
	if err == nil && span.Recording() {
		resp.Trace = span.Data()
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeShardResponse(w, resp)
}

// writeShardResponse answers 200 with resp as one reply frame: the head,
// then the op's reply block as the op encoded it. A span tree that does not
// encode is left off — tracing never fails an op.
func writeShardResponse(w http.ResponseWriter, resp *ShardResponse) {
	head := shard.Answer{Versions: resp.Versions}
	if resp.Plan != nil {
		var err error
		if head.Plan, err = json.Marshal(resp.Plan); err != nil {
			writeError(w, fmt.Errorf("service: encoding the plan: %w", err))
			return
		}
	}
	if resp.Trace != nil {
		head.Trace, _ = json.Marshal(resp.Trace)
	}
	frame := shard.AppendAnswer(make([]byte, 0, 64+len(head.Plan)+len(head.Trace)), &head)
	h := w.Header()
	h.Set("Content-Type", shard.FrameContentType)
	h.Set("Content-Length", strconv.Itoa(len(frame)+len(resp.Reply)))
	w.WriteHeader(http.StatusOK)
	w.Write(frame)      //nolint:errcheck // nothing to do about a failed write
	w.Write(resp.Reply) //nolint:errcheck
}
