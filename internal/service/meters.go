package service

import "repro/internal/obs"

// meters are the handles the serving path updates. Each is declared once,
// here, by registering it in the service's obs.Registry; GET /metrics and
// the "metrics" block of GET /v1/stats are two renderings of that registry,
// so neither can drift from the other or from what the code counts.
//
// Naming convention: every family is prefixed lsample_, counters end in
// _total, sizes are _bytes, populations are bare gauges, durations are
// base seconds (per Prometheus convention; /v1/stats reports them in
// milliseconds under the key they name).
type meters struct {
	requests, cacheHits, cacheMisses, rejected, degraded, errors *obs.Counter
	estimatesRun, predicateEvals                                 *obs.Counter
	ingestRequests, ingestRows, ingestBatches, ingestErrors      *obs.Counter
	estimateBusy, predicateBusy                                  *obs.Timer
	// latency is the /v1/count request-latency histogram (admission wait
	// included — tail latency is what admission control is for).
	latency *obs.Histogram
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		requests: r.NewCounter("lsample_requests_total",
			"Count requests received by /v1/count."),
		cacheHits: r.NewCounter("lsample_cache_hits_total",
			"Requests served from the result cache (including coalesced flights)."),
		cacheMisses: r.NewCounter("lsample_cache_misses_total",
			"Requests that required a fresh estimation."),
		rejected: r.NewCounter("lsample_rejected_total",
			"Requests shed by admission control (503 overloaded)."),
		degraded: r.NewCounter("lsample_degraded_total",
			"Budget-degraded answers served instead of 503s."),
		errors: r.NewCounter("lsample_errors_total",
			"Failed requests (bad input or internal)."),
		estimatesRun: r.NewCounter("lsample_estimates_run_total",
			"Estimations actually executed (cache misses and degraded runs)."),
		predicateEvals: r.NewCounter("lsample_predicate_evals_total",
			"Expensive-predicate evaluations spent across all estimations."),
		estimateBusy: r.NewTimer("lsample_estimate_busy_seconds",
			"Cumulative wall time spent inside estimation.", "estimate_ms"),
		predicateBusy: r.NewTimer("lsample_predicate_busy_seconds",
			"Cumulative wall time spent inside the expensive predicate q.", "predicate_ms"),
		ingestRequests: r.NewCounter("lsample_ingest_requests_total",
			"Delta-ingest requests received by /v1/ingest."),
		ingestRows: r.NewCounter("lsample_ingest_rows_total",
			"Delta rows committed (appends, updates, and deletes)."),
		ingestBatches: r.NewCounter("lsample_ingest_batches_total",
			"Delta batches committed."),
		ingestErrors: r.NewCounter("lsample_ingest_errors_total",
			"Ingest requests that failed, possibly mid-stream."),
		latency: r.NewHistogram("lsample_request_duration_seconds",
			"End-to-end /v1/count latency (admission wait included).", "latency"),
	}
}

// registerGauges declares the families whose state lives elsewhere — the
// stores, the dataset registry, the admission queues, the reuse catalog,
// the tracer — as collectors read at scrape time.
func (s *Service) registerGauges(r *obs.Registry) {
	r.GaugeFunc("lsample_datasets", "Datasets currently registered.",
		func() int { return len(s.Registry.List()) })
	r.GaugeFunc("lsample_result_cache_entries", "Entries resident in the result cache.",
		s.results.len)
	r.GaugeFunc("lsample_prepared_queries", "Prepared queries retained across (dataset version, fingerprint) keys.",
		s.preps.len)
	r.GaugeFunc("lsample_inflight_estimations", "Estimations currently admitted and running.",
		s.admit.inflight)
	r.GaugeFunc("lsample_admission_queued", "Requests currently queued for admission.",
		s.admit.queuedTotal)

	r.GaugeFunc("lsample_catalog_entries", "Label memos resident in the reuse catalog.",
		func() int { return s.CatalogStats().Entries })
	r.GaugeFunc("lsample_catalog_bytes", "Estimated resident size of the reuse catalog.",
		func() int { return int(s.CatalogStats().Bytes) })
	r.CounterFunc("lsample_catalog_hits_total", "Executions the catalog's label memo answered in full.",
		func() int64 { return s.CatalogStats().Hits })
	r.CounterFunc("lsample_catalog_extensions_total", "Executions that reused some memoized labels and bought the rest.",
		func() int64 { return s.CatalogStats().Extensions })
	r.CounterFunc("lsample_catalog_misses_total", "Executions on a catalog entry never asked for a label before.",
		func() int64 { return s.CatalogStats().Misses })
	r.CounterFunc("lsample_catalog_evictions_total", "Catalog entries evicted by budget pressure or invalidation.",
		func() int64 { return s.CatalogStats().Evictions })

	s.tracer.Register(r)
}
