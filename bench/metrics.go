package main

import "strings"

// metricSpec names one metric of the ledger. Later performance and
// simplicity changes are judged by these names, so they are fixed here.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the baseline median

	// abs is an absolute allowance beside the relative bound: the larger of
	// the two applies (-compare only).
	abs float64
	// only restricts an end-to-end metric to one workload ("" = all).
	only string
	// gated metrics are the ones BENCHMARK.json lists: defined on every
	// workload, never zero on working code, and steady across workload
	// seeds. The others (see README) are still reported, compared and
	// bounded by -compare, but cannot satisfy the driver's contract.
	gated bool
}

// endToEnd is what a user of the system sees, per workload. The bounds are
// what the sizing box supports: its timings drift by several per cent from
// run to run (README has the measured spreads), and a bound has to sit about
// three spreads above the noise to mean anything.
var endToEnd = []metricSpec{
	{Name: "counts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, gated: true},
	{Name: "count_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, gated: true},
	{Name: "count_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, gated: true},
	{Name: "evals_per_count", Unit: "count", Better: "lower", Bound: 0.05, gated: true},
	{Name: "rel_err_med", Unit: "ratio", Better: "lower", Bound: 0.25, abs: 0.01},
	{Name: "ci_cover", Unit: "ratio", Better: "higher", Bound: 0.20, gated: true},
	{Name: "fail_rate", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, gated: true},
	{Name: "cpu_ms_per_count", Unit: "ms", Better: "lower", Bound: 0.25, gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, gated: true},
	{Name: "ingest_rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, only: "live_refresh"},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, only: "live_refresh"},
}

func (m metricSpec) appliesTo(workload string) bool {
	return m.only == "" || m.only == workload
}

func endToEndSpec(name string) (metricSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer is the per-layer table, names <module>.<thing>. Three sources
// (README has the layer → end-to-end prediction for each):
//
//   - spans of the traced ops: mean self time (or duration, or span count)
//     per count, keyed by span name through layerOfSpan;
//   - counters read from responses and /v1/stats;
//   - layer probes timing public functions on the workloads' own inputs.
//
// A traced run reports every one of them: a span or counter of a layer the
// workload never enters reads 0, which is the "no work here" prediction
// made checkable. Probes do not depend on the workload's op stream.
var perLayer = []metricSpec{
	// Spans (ms per count unless the name says otherwise).
	lower("bench.client.self_ms", "ms"),
	lower("lsample.execute.self_ms", "ms"),
	lower("lsample.enumerate.self_ms", "ms"),
	lower("lsample.features.self_ms", "ms"),
	lower("lsample.predicate.build.self_ms", "ms"),
	lower("lsample.estimate.self_ms", "ms"),
	lower("lsample.estimate.learn_ms", "ms"),
	lower("lsample.estimate.design_ms", "ms"),
	lower("lsample.estimate.sample_ms", "ms"),
	lower("lsample.exact.scan.self_ms", "ms"),
	lower("lsample.catalog.self_ms", "ms"),
	lower("lsample.refresh.self_ms", "ms"),
	lower("lsample.shard.drive.self_ms", "ms"),
	lower("service.count.self_ms", "ms"),
	lower("service.admission.wait_ms", "ms"),
	lower("service.prepare.self_ms", "ms"),
	lower("service.coordinator.count.self_ms", "ms"),
	lower("service.shard.rpc.ms", "ms"),
	lower("service.shard.rpcs_per_count", "count"),
	lower("service.shard.census.ms", "ms"),
	lower("service.worker.op.self_ms", "ms"),
	lower("shard.driver.self_ms", "ms"),
	lower("obs.other.self_ms", "ms"),
	higher("obs.span_coverage_pct", "%"),
	lower("obs.trace_overhead_pct", "%"),

	// Op classes and estimate quality of the run.
	lower("class.primary.p50_ms", "ms"),
	lower("class.minor25.p50_ms", "ms"),
	lower("class.minor15.p50_ms", "ms"),
	lower("quality.rel_err_med", "ratio"),
	lower("quality.fail_rate", "ratio"),

	// Serving counters (HTTP workloads).
	higher("service.cache.hit_rate", "ratio"),
	lower("service.http_overhead_us", "us"),
	lower("service.shed_rate", "ratio"),
	lower("service.degraded_rate", "ratio"),
	higher("catalog.direct_rate", "ratio"),
	lower("catalog.extension_rate", "ratio"),
	lower("catalog.miss_rate", "ratio"),
	lower("catalog.evictions", "count"),
	lower("catalog.bytes", "bytes"),

	// Layer probes.
	lower("service.cache_hit_us", "us"),
	lower("sql.parse_us", "us"),
	lower("sql.fingerprint_us", "us"),
	lower("engine.decompose_us", "us"),
	lower("engine.enumerate_us_per_kobj", "us"),
	lower("engine.interp_ms_per_eval.skyband", "ms"),
	lower("engine.interp_ms_per_eval.exists", "ms"),
	lower("qcompile.compile_ms", "ms"),
	lower("qcompile.bind_us", "us"),
	lower("qcompile.vec_ns_per_eval.skyband", "ns"),
	lower("qcompile.vec_ns_per_eval.exists", "ns"),
	lower("qcompile.scalar_ns_per_eval.skyband", "ns"),
	lower("qcompile.scalar_ns_per_eval.exists", "ns"),
	lower("qcompile.extend_us_per_row", "us"),
	lower("learn.fit_ms", "ms"),
	lower("learn.score_ns_per_obj", "ns"),
	lower("stratify.design_ms", "ms"),
	lower("core.lss_ms", "ms"),
	lower("core.lws_ms", "ms"),
	lower("core.qlcc_ms", "ms"),
	lower("core.srs_ms", "ms"),
	lower("par.foreach_ns_per_item", "ns"),
	higher("par.speedup_2w", "ratio"),
	lower("live.apply_us_per_row", "us"),
	lower("live.snapshot_us", "us"),
	higher("live.ingest_rows_per_s", "1/s"),
	lower("wal.commit_ms", "ms"),
	lower("wal.syncs_per_batch", "count"),
	lower("wal.write_amp", "ratio"),
	lower("wal.recover_ms_per_krow", "ms"),
	lower("shard.drive_ms", "ms"),
}

// spanKind selects what a span contributes to its layer metric.
type spanKind int

const (
	spanSelf  spanKind = iota // self time per count
	spanDur                   // full duration per count
	spanCount                 // spans per count
)

type spanMetric struct {
	name string
	kind spanKind
}

// layerOfSpan maps a program (or harness) span name to the per-layer
// metrics it feeds. Every name maps somewhere — unknown spans land in
// obs.other.self_ms — so per-count self times always add up to the
// client-observed latency.
func layerOfSpan(name string) []spanMetric {
	switch name {
	case clientSpanName:
		return []spanMetric{{"bench.client.self_ms", spanSelf}}
	case "execute", "execute.groups":
		return []spanMetric{{"lsample.execute.self_ms", spanSelf}}
	case "enumerate":
		return []spanMetric{{"lsample.enumerate.self_ms", spanSelf}}
	case "features":
		return []spanMetric{{"lsample.features.self_ms", spanSelf}}
	case "predicate.build":
		return []spanMetric{{"lsample.predicate.build.self_ms", spanSelf}}
	case "estimate":
		return []spanMetric{{"lsample.estimate.self_ms", spanSelf}}
	case "learn":
		return []spanMetric{{"lsample.estimate.learn_ms", spanSelf}}
	case "design":
		return []spanMetric{{"lsample.estimate.design_ms", spanSelf}}
	case "sample":
		return []spanMetric{{"lsample.estimate.sample_ms", spanSelf}}
	case "exact.scan":
		return []spanMetric{{"lsample.exact.scan.self_ms", spanSelf}}
	case "catalog":
		return []spanMetric{{"lsample.catalog.self_ms", spanSelf}}
	case "refresh":
		return []spanMetric{{"lsample.refresh.self_ms", spanSelf}}
	case "shard.drive":
		return []spanMetric{{"lsample.shard.drive.self_ms", spanSelf}}
	case "count":
		return []spanMetric{{"service.count.self_ms", spanSelf}}
	case "admission.wait":
		return []spanMetric{{"service.admission.wait_ms", spanSelf}}
	case "prepare":
		return []spanMetric{{"service.prepare.self_ms", spanSelf}}
	case "coordinator.count":
		return []spanMetric{{"service.coordinator.count.self_ms", spanSelf}}
	case "shard.rpc":
		// The RPC's self time (its duration minus the grafted worker
		// subtree) is the fabric's own cost: encode, network, decode.
		return []spanMetric{{"service.shard.rpc.ms", spanSelf}, {"service.shard.rpcs_per_count", spanCount}}
	case "shard.census":
		return []spanMetric{{"service.shard.census.ms", spanDur}, {"shard.driver.self_ms", spanSelf}}
	case "shard.attempt":
		return []spanMetric{{"shard.driver.self_ms", spanSelf}}
	}
	if strings.HasPrefix(name, "shard.") {
		// Worker-side roots of one /v1/shard op: shard.meta, shard.cands, …
		return []spanMetric{{"service.worker.op.self_ms", spanSelf}}
	}
	return []spanMetric{{"obs.other.self_ms", spanSelf}}
}
