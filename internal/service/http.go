package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/lsample"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/count     JSON CountRequest -> CountResult
//	POST /v1/shard     one shard's estimation primitive (worker role);
//	                   JSON ShardRequest -> ShardResponse, 409
//	                   version_mismatch when the coordinator's pinned
//	                   dataset versions no longer match
//	GET  /v1/datasets  list registered datasets
//	POST /v1/datasets  upload a CSV dataset (?name=D&schema=id:int,x:float);
//	                   add &live=1 (and optionally &key=id) to register it
//	                   as a live dataset accepting /v1/ingest deltas
//	POST /v1/ingest    stream a delta batch into a live dataset
//	                   (?name=D, body text/csv or application/x-ndjson)
//	GET  /v1/stats     metrics snapshot (including ingest counters and
//	                   latency histogram buckets)
//	GET  /v1/traces    completed request traces, newest first (?limit=N)
//	GET  /metrics      Prometheus text-format metrics exposition
//	                   (absent when Options.DisableMetrics)
//	GET  /healthz      liveness probe
//
// POST /v1/count and /v1/shard honor an inbound W3C traceparent header:
// the request's root span joins the remote trace, and a sampled remote
// decision forces recording — which is how a coordinator stitches its
// workers' spans into one tree.
//
// Every error response is the JSON envelope
//
//	{"error": {"code": "...", "message": "..."}}
//
// with codes bad_request (400), payload_too_large (413), version_mismatch
// (409, /v1/shard only), canceled (499), overloaded (503, admission
// control), unavailable_durability (503, the write-ahead log cannot
// acknowledge writes — nothing was applied, retry after the Retry-After
// hint), and internal (500). Every 503 carries a Retry-After header with a
// wait hint in seconds. writeError is the one table.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/count", handleCount(s.CountCtx))
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleUploadDataset)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", handleTraces(s.tracer))
	if !s.opts.DisableMetrics {
		mux.HandleFunc("GET /metrics", handleMetrics(s.metrics))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// handleCount is POST /v1/count on either role: the body decoded strictly,
// count run under the request's context and any inbound traceparent.
func handleCount(count func(context.Context, *CountRequest) (*CountResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req CountRequest
		if err := decodeBody(w, r, 1<<20, &req); err != nil {
			writeError(w, err)
			return
		}
		res, err := count(traceCtx(r), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// decodeBody reads a JSON request body of at most limit bytes into v,
// rejecting fields v does not declare.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return clientErr("invalid JSON body", err)
	}
	return nil
}

// traceCtx returns the request context carrying any inbound traceparent,
// so the next StartRequest joins the remote trace.
func traceCtx(r *http.Request) context.Context {
	ctx := r.Context()
	if tp, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		ctx = obs.WithRemoteParent(ctx, tp)
	}
	return ctx
}

// handleMetrics serves a registry's Prometheus text-format exposition.
func handleMetrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Expose(w) //nolint:errcheck // nothing to do about a failed write
	}
}

// handleTraces pages a tracer's completed-trace ring, newest first.
func handleTraces(tracer *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, badf("invalid ?limit=%q", v))
				return
			}
			limit = n
		}
		writeJSON(w, http.StatusOK, struct {
			Traces []*obs.SpanData `json:"traces"`
		}{tracer.Traces(limit)})
	}
}

func (s *Service) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Registry.List())
}

func (s *Service) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	name := qp.Get("name")
	if name == "" {
		writeError(w, badf("missing ?name="))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if qp.Get("live") == "1" || qp.Get("live") == "true" {
		// Live upload: the CSV seeds a mutable dataset that /v1/ingest can
		// keep appending to. The body is stream-parsed in bounded batches,
		// never buffered whole. With a data directory configured the dataset
		// is durable: the seed rows are logged and fsynced as they apply.
		lt, err := s.openLiveUpload(name, qp.Get("schema"), qp.Get("key"))
		if err != nil {
			writeError(w, mapSDKErr(err))
			return
		}
		if _, err := lt.ApplyDelta("csv", body, 0); err != nil {
			writeError(w, mapSDKErr(err))
			return
		}
		v := s.RegisterLiveTable(lt)
		writeJSON(w, http.StatusOK, DatasetInfo{
			Name: name, Rows: lt.NumRows(), Cols: lt.NumCols(), Version: v, Live: true,
		})
		return
	}
	t, err := lsample.ReadCSV(name, qp.Get("schema"), body)
	if err != nil {
		writeError(w, mapSDKErr(err))
		return
	}
	v := s.RegisterTable(t)
	writeJSON(w, http.StatusOK, DatasetInfo{
		Name: name, Rows: t.NumRows(), Cols: t.NumCols(), Version: v,
	})
}

// handleIngest streams a delta into a live dataset. The format comes from
// ?format= when present, otherwise from the Content-Type (text/csv or
// application/x-ndjson; CSV is the default). The body is parsed and applied
// in bounded batches under the usual upload size cap.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	name := qp.Get("name")
	if name == "" {
		writeError(w, badf("missing ?name="))
		return
	}
	format := qp.Get("format")
	if format == "" {
		switch ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) {
		case "application/x-ndjson", "application/ndjson", "application/jsonl":
			format = "ndjson"
		default:
			format = "csv"
		}
	}
	res, err := s.Ingest(name, format, http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStats serves the JSON rendering of the metrics registry (the
// "metrics" block: every family of GET /metrics under its short key), plus
// the reuse catalog's accounting and the dataset list.
func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics":      s.metrics.Stats(),
		"cached_items": s.results.len(),
		"catalog":      s.CatalogStats(),
		"datasets":     s.Registry.List(),
	})
}

// writeJSON answers with v as one line of compact JSON. Not indented: a
// /v1/shard reply embeds a block shard.Serve already marshaled, and
// indenting the envelope would encode that block again and double the bytes
// a coordinator scans.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do about a failed write
}

// clientErr marks a body-processing failure as a bad request, except for
// size-limit violations, which must keep their type so writeError can map
// them to 413.
func clientErr(context string, err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return err
	}
	return badf("%s: %v", context, err)
}

// errorEnvelope is the uniform error body every endpoint returns.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client went away; no standard code fits and the response
// is unlikely to be delivered anyway.
const statusClientClosedRequest = 499

// retryAfterSeconds is the Retry-After hint of every 503: overload and
// durability faults clear on the scale of a second.
const retryAfterSeconds = 1

// writeError is the one error → status table. Two codes are the
// coordinator's: data_changed (409) when an ingest landed on the workers
// mid-query, workers_unavailable (503) when every candidate for a shard
// failed. Every 503 carries a Retry-After hint of retryAfterSeconds.
func writeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	var moved *versionMismatchError
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.As(err, &tooBig):
		status, code = http.StatusRequestEntityTooLarge, "payload_too_large"
	case errors.As(err, &moved):
		status, code = http.StatusConflict, "version_mismatch"
		w.Header().Set("X-Dataset-Versions", moved.current)
	case errors.Is(err, ErrBadRequest):
		status, code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrDurability):
		// Storage cannot acknowledge writes right now; nothing was applied,
		// so the identical request is safe to retry after a short wait.
		status, code = http.StatusServiceUnavailable, "unavailable_durability"
	case errors.Is(err, ErrBusy):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, ErrDataChanged):
		status, code = http.StatusConflict, "data_changed"
	case errors.Is(err, ErrNoWorkers):
		// Ahead of canceled: a shard lost to the per-op deadline wraps
		// DeadlineExceeded, and it is the workers that timed out, not the client.
		status, code = http.StatusServiceUnavailable, "workers_unavailable"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status, code = statusClientClosedRequest, "canceled"
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: err.Error()}})
}
