// Package repro is a from-scratch Go reproduction of
//
//	Walenz, Sintos, Roy, Yang. "Learning to Sample: Counting with Complex
//	Queries." PVLDB 12, 2019 (arXiv:1906.09335).
//
// The system estimates the count of objects satisfying an expensive
// predicate — correlated aggregate subqueries, join conditions, or
// user-defined functions — by training a cheap classifier on a labeled
// sample and using its scores to design a sampling scheme: Learned Weighted
// Sampling (PPS + Des Raj estimator) and Learned Stratified Sampling
// (score-ordered strata with jointly optimized stratification and
// allocation). Estimates stay unbiased with valid confidence intervals even
// when the classifier is poor.
//
// # The public SDK: repro/lsample
//
// All estimation goes through the public, embeddable repro/lsample package:
// the CLIs, the HTTP service, and every example construct estimators
// exclusively through it (some examples and CLIs also use internal packages
// for workload scaffolding — calibrated instances, classifier demos — but
// never to build methods). examples/embed and examples/quickstart are
// pure-SDK: lsample plus the standard library only. The implementation
// stays under internal/; `make docs-check` (tools/doccheck) fails the build
// if an internal type ever leaks into a public signature.
//
// Counting over your own objects:
//
//	est, _ := lsample.NewEstimator(
//		lsample.WithMethod("lss"), lsample.WithBudget(0.02), lsample.WithSeed(42))
//	res, err := est.Estimate(ctx, features, func(i int) bool { return expensiveCheck(i) })
//	// res.Count, res.CI, res.SamplesUsed, res.Timings
//
// Counting over SQL, with the per-query analysis done once and executed
// many times with bound parameters:
//
//	sess, _ := lsample.NewSession(lsample.NewMemorySource(table))
//	q, _ := sess.Prepare(`SELECT o1.id FROM D o1, D o2 WHERE ... GROUP BY o1.id HAVING COUNT(*) < k`)
//	res, err := q.Execute(ctx, map[string]any{"k": 25})
//
// GROUP BY counting — SELECT g, COUNT(*) FROM (Q1) GROUP BY g — estimates
// every group from one shared sampling/learning plan via
// PreparedQuery.ExecuteGroups (or Session.CountGroups): the expensive
// predicate is evaluated once per sampled object no matter how many groups
// there are, instead of once per group per loop iteration. Methods srs,
// lss, and oracle support the grouped path; rare groups fall back to a
// dedicated per-group draw with memoized labels.
//
// The functional options (accepted everywhere, later layers override
// earlier ones) and the DataSource contract are listed once, in the lsample
// package documentation's Options table and DataSource contract.
//
// Estimations are context-aware: cancellation is observed cooperatively at
// labeling-loop granularity in every method, so callers (and the HTTP
// layer) can abort mid-run and receive a wrapped context.Canceled.
//
// # Package layout
//
//	lsample              the public SDK: Session, PreparedQuery, Estimator,
//	                     DataSource, functional options
//	internal/core        the paper's methods: SRS, SSP, SSN, QLCC, QLAC, LWS, LSS
//	internal/stratify    stratification designers: DirSol, LogBdr, DynPgm, DynPgmP
//	internal/estimate    proportion/stratified/Des Raj estimators, allocations
//	internal/learn       kNN, decision tree, random forest, MLP, dummy
//	internal/quantify    Classify-and-Count, Adjusted Count
//	internal/active      uncertainty-sampling augmentation
//	internal/sample      SRS, stratified draws, Fenwick-backed PPS w/o replacement
//	internal/sql         lexer/parser/AST for the paper's SQL subset
//	internal/engine      naive executor + the §2 Q1→(Q2, Q3) decomposition
//	internal/qcompile    Q3 predicate compiler: typed closures, hash-indexed
//	                     equality probes, EXISTS short-circuits
//	internal/predicate   expensive-predicate instances with cost accounting
//	internal/dataset     typed tables, CSV I/O, synthetic dataset generators
//	internal/geom        kd-tree, Fenwick tree, dominance counting
//	internal/stats       descriptive stats, normal/t quantiles, intervals
//	internal/workload    calibrated instances for the paper's six regimes
//	internal/experiment  drivers regenerating Table 1 and Figures 1–8
//	internal/service     the serving layer: registry, caches, admission, HTTP
//	internal/par         bounded worker pools for deterministic parallelism
//	internal/xrand       deterministic xoshiro256** randomness
//
// # Deterministic parallelism
//
// Experiment trials (experiment.RunDistP), random-forest training, and
// batched forest scoring fan out across a bounded worker pool
// (internal/par). Every unit of work receives its own xrand sub-stream,
// split from the parent stream in a fixed order before anything is
// dispatched, and writes only its own output slot — so a given seed
// produces bit-identical estimates at any parallelism degree and any
// GOMAXPROCS. WithParallelism (and the -p flag on the binaries) bounds the
// worker count; the context checks added for cancellation consume no
// randomness, preserving this property. EXPERIMENTS.md describes the model
// and records measured speedups.
//
// # Compiled predicate evaluation
//
// SQL predicates are compiled at Prepare time (internal/qcompile): the
// decomposed Q3 EXISTS lowers to typed closures over columnar data, with
// prebuilt hash indexes for its equality-correlated probes and EXISTS
// short-circuits, and labeling runs through a batched — optionally
// parallel — predicate API. Queries outside the compilable subset keep the
// interpreted engine (the semantics oracle); Estimate.Labeling reports
// which path ran. Estimates are byte-identical either way — the win is
// labeling throughput, recorded in the "Predicate compilation" section of
// EXPERIMENTS.md and re-measured per layer by the bench/ ledger.
//
// # Counting as a service
//
// internal/service turns the SDK into a server: a versioned dataset
// registry (builtin generators or uploaded CSVs), a prepared-query cache
// keyed on (dataset versions, query shape), a result cache keyed on the
// full request identity, singleflight coalescing of identical requests, and
// admission control that bounds concurrent estimations. Every error
// response uses the JSON envelope {"error": {"code", "message"}}. Estimates
// are deterministic in (data, query, knobs, seed), so caching is lossless
// and concurrent clients with the same seed receive bit-identical answers.
// See the SERVICE section of EXPERIMENTS.md for the HTTP API.
//
// Binaries: cmd/lscount (single estimation, calibrated or ad-hoc SQL over
// CSV), cmd/lsbench (regenerate any paper table/figure), and cmd/lsserve
// (the HTTP counting service). Runnable walkthroughs live under examples/;
// examples/embed is the minimal SDK embedding.
//
// The benchmarks in internal/experiment/figures_bench_test.go regenerate
// each table and figure at reduced scale and report predicate evaluations
// per op; `make check` builds, vets, checks the public API surface and
// documentation gates, and runs the race-enabled test suite; `make
// bench-micro` runs the Go micro-benchmarks (the paper figure, forest fit
// and scoring, the designers, GROUP BY shared vs naive) and `make bench`
// the end-to-end ledger under bench/. CI (.github/workflows/ci.yml) runs
// the same gates.
//
// README.md is the front door (quick starts, package map, benchmark
// highlights) and ARCHITECTURE.md describes the layer boundaries and the
// parse → decompose → feature-select → learn → estimate data flow.
package repro
