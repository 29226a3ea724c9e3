// Command lsserve runs the counting service: an HTTP server that estimates
// counts for SQL queries over registered datasets using the paper's learned
// sampling methods.
//
// Usage:
//
//	lsserve -addr :8080 -preload sports:8000,neighbors:8000
//
// Endpoints (see internal/service):
//
//	POST /v1/count     {"sql": "...", "params": {"k": 25}, "method": "lss", "interval": "wilson"}
//	GET  /v1/datasets  list registered datasets (live datasets are flagged)
//	POST /v1/datasets  upload CSV (?name=D&schema=id:int,x:float); add
//	                   &live=1&key=id to register a live dataset that
//	                   accepts streaming deltas
//	POST /v1/ingest    stream a delta into a live dataset (?name=D; body
//	                   text/csv for appends or application/x-ndjson for
//	                   append/update/delete ops); each ingest publishes a
//	                   new dataset version, so cached results over the old
//	                   data are never served
//	GET  /v1/stats     metrics: cache hits, admissions, predicate evals,
//	                   a request-latency histogram (p50/p90/p99/p999/max
//	                   plus cumulative bucket counts), the degraded-answer
//	                   counter, ingest counters (requests,
//	                   rows, batches, errors), and the reuse-catalog block
//	                   (entries, bytes, hits, extensions, misses, evictions)
//	GET  /metrics      Prometheus text-format exposition of the same
//	                   counters plus the latency histogram (disable with
//	                   -metrics=false)
//	GET  /v1/traces    completed request traces, newest first (?limit=N)
//	GET  /healthz      liveness
//	POST /v1/shard     one shard's estimation primitives (worker side of
//	                   sharded scale-out; see -role)
//
// Every JSON response is one line of compact JSON; pipe it through jq to
// read it. The exception is a 200 /v1/shard reply, which like the request
// it answers is one binary frame (internal/shard/frame.go).
//
// Observability: -trace-sample records that fraction of requests as span
// trees readable from /v1/traces (a request with "explain": true is
// always recorded and gets its trace inline in the response);
// -slow-query-ms logs the full span tree of any slower request. All
// server logs are structured JSON, one object per line on stdout, tagged
// with the trace and span ids of the request they belong to. A
// coordinator injects W3C traceparent headers into worker calls, so one
// sharded query yields one stitched trace across processes.
//
// Sharded scale-out: start worker servers (-role=worker, each with the
// same datasets) and one coordinator:
//
//	lsserve -role=worker -addr :8081 -preload neighbors:8000
//	lsserve -role=worker -addr :8082 -preload neighbors:8000
//	lsserve -role=coordinator -addr :8080 \
//	        -workers w1=http://localhost:8081,w2=http://localhost:8082 \
//	        -shards 4 -hedge-after 500ms -allow-degraded
//
// The coordinator serves POST /v1/count by scattering per-shard sampling
// over the workers (shard i to the (i mod W)-th worker by name, per-op
// deadlines, hedged retries on stragglers) and merging the partials; the
// answer is byte-identical to a single-process run at any worker or shard
// count. A /v1/count request may also pass "shards": N to any standalone
// server for in-process sharded execution.
//
// A GROUP BY request — "sql" of the form SELECT g, COUNT(*) FROM (...)
// GROUP BY g — answers with one groups[] row per group (key, objects,
// estimate, CI, sampled), estimated from one shared sample and cached like
// any other request. Its intervals are its rows': on every role —
// standalone, "shards": N, coordinator — the reply's top-level estimate is
// the sum of the rows and carries "has_ci": false (the sum of the per-group
// bounds is not a 1−α interval for the sum); under exact its true_count is
// the sum of the rows' true counts. Request knobs: method, budget, classifier, strata,
// interval (wald|wilson), seed, exact, no_cache (recompute on a private
// label memo, reading and keeping nothing cached: the same answer at a cold
// run's evaluation bill), degrade (answer with a small-budget
// wider-interval estimate instead of 503 under overload).
//
// Admission control runs at most -max-inflight estimations at once, first
// come first served, and a dataset whose queue is hopelessly deep sheds new
// arrivals immediately. A query whose predicate fails
// on the data (a division by zero on some object) answers 400 bad_request
// naming the fault. The -pprof flag serves Go profiling endpoints under
// /debug/pprof/ on every role, the coordinator included (off by default).
//
// The server keeps a cross-query reuse catalog (see lsample.Catalog) that
// memoizes the labels a count bought — per predicate, nothing else — so a
// count of any seed, budget or method finds the labels earlier counts over
// the same dataset version and query shape paid for; /v1/count responses
// report what the memo answered in "reuse" (direct: everything, extension:
// some, none: it had never been asked). Size it with -catalog-mb (0 = 64
// MiB default, negative disables): the budget bounds the live bytes of the
// entries — one per (dataset version, query shape, feature columns), at
// most a label per object and predicate variant, about 10 KB for 300 fully
// labeled objects — and the process's resident size grows by about twice
// that under the default GOGC.
// Ingests and re-registrations evict the affected entries automatically.
//
// With -data-dir set, live datasets are durable: uploads and ingests are
// write-ahead logged and fsynced before they are acknowledged, startup
// recovers every dataset found under the directory (replaying the newest
// checkpoint plus the log tail, truncating any torn tail from a crash),
// and graceful shutdown drains in-flight estimations then flushes and
// checkpoints each dataset. When the log cannot acknowledge a write the
// server answers 503 with error code unavailable_durability and a
// Retry-After hint; nothing is half-applied.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/lsample"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		preload   = flag.String("preload", "", "builtin datasets to register, e.g. sports:8000,neighbors:8000")
		seed      = flag.Uint64("seed", 1, "seed for preloaded synthetic datasets")
		inflight  = flag.Int("max-inflight", 4, "concurrent estimations admitted")
		queueWait = flag.Duration("queue-timeout", 2*time.Second, "max wait for admission before 503")
		cacheSize = flag.Int("cache-size", 256, "result cache entries (-1 disables)")
		cacheTTL  = flag.Duration("cache-ttl", 10*time.Minute, "result cache max age (-1ns disables expiry)")
		para      = flag.Int("p", 1, "classifier parallelism per request (requests already run concurrently)")
		budget    = flag.Float64("budget", 0.02, "default labeling budget fraction when a request omits one; read by the standalone and worker roles (a coordinator answers with its workers' default)")
		method    = flag.String("method", "lss", "default estimation method when a request omits one; read by the standalone and worker roles (a coordinator answers with its workers' default)")
		dataDir   = flag.String("data-dir", "", "directory for durable live datasets: uploads and ingests are write-ahead logged, and restart recovers them (empty = memory-only)")
		catalogMB = flag.Int64("catalog-mb", 0, "reuse-catalog budget in MiB for cross-query label memoization: bounds the entries' live bytes, RSS grows about twice that under the default GOGC (0 = default 64 MiB, negative disables)")
		pprofOn   = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/ on any role, the coordinator included (off by default; enable only on trusted networks)")

		metricsOn   = flag.Bool("metrics", true, "serve Prometheus text-format metrics at GET /metrics")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests to trace [0,1]; explain requests are always traced")
		slowQueryMS = flag.Int64("slow-query-ms", 0, "log the full span tree of requests slower than this many milliseconds (0 disables)")

		role           = flag.String("role", "", "serving role: empty (standalone: full API incl. /v1/shard), worker (same, intended behind a coordinator), or coordinator (scatter/gather /v1/count over -workers)")
		workerSpec     = flag.String("workers", "", "coordinator role: worker roster as name=http://host:port,name=url")
		shards         = flag.Int("shards", 0, "coordinator role: shards per query (0 = one per worker)")
		workerDeadline = flag.Duration("worker-deadline", 15*time.Second, "coordinator role: per-shard-op deadline on one worker")
		hedgeAfter     = flag.Duration("hedge-after", 500*time.Millisecond, "coordinator role: start a backup request to the next worker after this quiet time")
		allowDegraded  = flag.Bool("allow-degraded", false, "coordinator role: answer with a scaled, widened-interval estimate when a shard's every candidate fails, instead of failing the query")
	)
	flag.Parse()

	// All operational logs are structured JSON, one object per line on
	// stdout; request-scoped lines carry the trace and span ids.
	logger := obs.NewLogger(os.Stdout)

	if *role == "coordinator" {
		if err := runCoordinator(*addr, *workerSpec, *pprofOn, logger, service.CoordinatorOptions{
			Shards:         *shards,
			WorkerDeadline: *workerDeadline,
			HedgeAfter:     *hedgeAfter,
			AllowDegraded:  *allowDegraded,
			TraceSample:    *traceSample,
			SlowQuery:      time.Duration(*slowQueryMS) * time.Millisecond,
			Logger:         logger,
		}); err != nil {
			logger.Error(context.Background(), "coordinator failed", "error", err)
			os.Exit(1)
		}
		return
	}
	if *role != "" && *role != "worker" {
		fmt.Fprintf(os.Stderr, "lsserve: unknown -role %q (want worker or coordinator)\n", *role)
		os.Exit(2)
	}

	reg := service.NewRegistry()
	if err := preloadDatasets(reg, *preload, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "lsserve: %v\n", err)
		os.Exit(2)
	}
	svc := service.New(reg, service.Options{
		MaxInFlight:    *inflight,
		QueueTimeout:   *queueWait,
		CacheSize:      *cacheSize,
		CacheTTL:       *cacheTTL,
		DefaultMethod:  *method,
		DefaultBudget:  *budget,
		Parallelism:    *para,
		DataDir:        *dataDir,
		CatalogBytes:   catalogBytes(*catalogMB),
		TraceSample:    *traceSample,
		SlowQuery:      time.Duration(*slowQueryMS) * time.Millisecond,
		Logger:         logger,
		DisableMetrics: !*metricsOn,
	})
	recovered, err := svc.RecoverDatasets()
	if err != nil {
		logger.Error(context.Background(), "recovery failed", "data_dir", *dataDir, "error", err)
		os.Exit(2)
	}
	for _, d := range recovered {
		logger.Info(context.Background(), "recovered live dataset",
			"name", d.Name, "rows", d.Rows, "version", d.Version)
	}

	if err := serve(*addr, withPprof(svc.Handler(), *pprofOn, logger), logger,
		"datasets", len(reg.List()), "role", roleName(*role),
		"metrics", *metricsOn, "trace_sample", *traceSample); err != nil {
		logger.Error(context.Background(), "server failed", "error", err)
		os.Exit(1)
	}
	// Drain in-flight estimations, then flush and checkpoint every durable
	// live dataset so the next start replays a checkpoint instead of the
	// whole log. A drain timeout is reported but does not skip persistence.
	// The service logs the summary line (datasets persisted, drained,
	// uptime) through the shared structured logger.
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if _, err := svc.Shutdown(shutCtx); err != nil {
		logger.Error(context.Background(), "shutdown incomplete", "error", err)
		os.Exit(1)
	}
}

// roleName normalizes the -role flag for the boot log line.
func roleName(role string) string {
	if role == "" {
		return "standalone"
	}
	return role
}

// runCoordinator serves the scatter/gather role: /v1/count requests are
// split into hash-aligned shards, routed over the worker roster with
// per-op deadlines and hedged retries, and merged byte-identically to a
// single-process run.
func runCoordinator(addr, roster string, pprofOn bool, logger *obs.Logger, opts service.CoordinatorOptions) error {
	var workers []service.WorkerInfo
	for _, part := range strings.Split(roster, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, base, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("-workers entry %q is not name=url", part)
		}
		workers = append(workers, service.WorkerInfo{Name: name, BaseURL: strings.TrimSuffix(base, "/")})
	}
	coord, err := service.NewCoordinator(workers, opts)
	if err != nil {
		return err
	}
	return serve(addr, withPprof(coord.Handler(), pprofOn, logger), logger,
		"workers", len(workers), "role", "coordinator")
}

// shutdownGrace bounds each shutdown step: the HTTP server's wait for
// in-flight requests, and the standalone role's drain and checkpoint.
const shutdownGrace = 10 * time.Second

// serve is every role's server lifecycle: listen on addr until SIGINT or
// SIGTERM, then stop accepting and give in-flight requests shutdownGrace to
// finish. attrs go on the "listening" line. It returns a listen error, or a
// shutdown error other than running out of grace.
func serve(addr string, handler http.Handler, logger *obs.Logger, attrs ...any) error {
	srv := &http.Server{
		Addr:    addr,
		Handler: handler,
		// Bound header reads and idle keep-alives so stalled clients
		// cannot pin connections forever; body reads stay unbounded
		// because CSV uploads may legitimately be slow (the service
		// caps their size instead).
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info(context.Background(), "listening", append([]any{"addr", addr}, attrs...)...)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info(context.Background(), "shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// withPprof puts Go's profiling endpoints under /debug/pprof/ in front of
// either role's handler when on. Explicit routes on a mux of our own:
// importing net/http/pprof for its DefaultServeMux side effect would expose
// the endpoints even when the flag is off.
func withPprof(handler http.Handler, on bool, logger *obs.Logger) http.Handler {
	if !on {
		return handler
	}
	root := http.NewServeMux()
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root.Handle("/", handler)
	logger.Info(context.Background(), "profiling enabled", "path", "/debug/pprof/")
	return root
}

// catalogBytes maps the -catalog-mb flag onto Options.CatalogBytes:
// MiB to bytes, with any negative value normalized to -1 (disabled) and
// 0 passed through to mean the service default.
func catalogBytes(mb int64) int64 {
	if mb < 0 {
		return -1
	}
	return mb << 20
}

// preloadDatasets registers builtin synthetic datasets from a
// "name:rows,name:rows" spec.
func preloadDatasets(reg *service.Registry, spec string, seed uint64) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, rowsStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return fmt.Errorf("preload entry %q is not name:rows", part)
		}
		rows, err := strconv.Atoi(rowsStr)
		if err != nil || rows <= 0 {
			return fmt.Errorf("preload entry %q: bad row count", part)
		}
		t, err := lsample.SyntheticTable(name, rows, seed)
		if err != nil {
			return err
		}
		reg.Register(t)
	}
	return nil
}
