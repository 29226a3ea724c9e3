package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/lsample"
)

// This file is the worker side of sharded scale-out estimation: POST
// /v1/shard runs one op of internal/shard's protocol on one shard of a
// query, so a coordinator process can scatter the deterministic
// per-trial-stream protocol across machines and merge byte-identically.
// Every request names the query and its knobs (a CountRequest, resolved by
// the same resolver /v1/count uses), the shard, and the op with its opaque
// argument block. The worker asks the prepared query for that shard
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

// ShardRequest is one /v1/shard operation: the count request being
// scattered, exactly as the coordinator received it, plus the shard, the
// op, and the op's arguments. Of the embedded request only the query and
// its sampling knobs apply to a shard; the serving flags (shards, exact,
// no_cache, degrade, explain) are the merging process's business.
type ShardRequest struct {
	CountRequest
	Op       string     `json:"op"` // an internal/shard op name
	Shard    shard.Spec `json:"shard"`
	Versions string     `json:"versions,omitempty"` // expected dataset versions ("" skips the fence)
	// Census is the shard's census the coordinator assumed, set when it
	// kept the census of an earlier count instead of asking again; a worker
	// whose own differs answers as for stale versions.
	Census *shard.Meta     `json:"census,omitempty"`
	Args   json.RawMessage `json:"args,omitempty"` // the op's shard.Args block
}

// ShardResponse is the result of one /v1/shard operation: the op's reply
// block plus the worker's dataset versions. The meta op additionally
// reports the resolved plan, so a coordinator can shape the final answer
// without parsing SQL or normalizing a knob itself.
type ShardResponse struct {
	Versions string          `json:"versions"`
	Plan     *PlanInfo       `json:"plan,omitempty"`
	Reply    json.RawMessage `json:"reply"` // the op's shard.Reply block
	// Trace is the worker's completed span tree for this op, present when
	// the inbound traceparent was sampled — the coordinator grafts it under
	// its own attempt span so one query yields one stitched trace.
	Trace *obs.SpanData `json:"trace,omitempty"`
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

// checkCensus compares the census the coordinator assumed for this shard
// with the shard's own, as the meta op reports it.
func checkCensus(ctx context.Context, exec *lsample.ShardExec, p *plan, assumed *shard.Meta) error {
	raw, err := exec.Op(ctx, p.Seed, shard.OpMeta, nil)
	if err != nil {
		return mapSDKErr(err)
	}
	var own shard.Reply
	if err := json.Unmarshal(raw, &own); err != nil {
		return fmt.Errorf("service: reading the shard's census: %v", err)
	}
	if own.Meta == nil || !reflect.DeepEqual(*own.Meta, *assumed) {
		return &versionMismatchError{want: p.Versions, current: p.Versions, census: true}
	}
	return nil
}

func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeBody(w, r, 16<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	// Adopt the coordinator's trace: a sampled inbound traceparent makes
	// this worker record its own subtree and ship it back on the response.
	ctx, span := s.tracer.StartRequest(traceCtx(r), "shard."+req.Op, false)
	span.Set("op", req.Op)
	span.Set("shard", req.Shard.Index)
	span.Set("shard_count", req.Shard.Count)
	resp, err := s.ShardOp(ctx, &req)
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
	writeJSON(w, http.StatusOK, resp)
}
