# Repository verification and benchmarking entry points.
#
#   make check         build + vet + gofmt/docs/obs gates + race-enabled
#                      tests (tier-1 gate and more). The race run covers every
#                      package but repro/bench: the harness's TestSmoke
#                      times half-second traced runs that keep no span
#                      under the detector's slowdown — a harness artifact
#                      only a benchmark PR may fix (ROADMAP item 1(b)) —
#                      and the harness has its own gate,
#                      make bench-ledger-smoke
#   make test          plain test run
#   make fmt-check     gofmt gate: fails when gofmt -l lists any file
#   make docs-check    README/ARCHITECTURE exist, examples vet, every
#                      exported lsample symbol documented and free of
#                      internal/ types in its signature, no shard op in
#                      ARCHITECTURE.md's table that the protocol dropped, no
#                      backticked pkg.Ident / Type.Member in ARCHITECTURE.md,
#                      README.md or lsample/doc.go that the module no longer
#                      declares, and no backticked Test* / Fuzz* / Benchmark*
#                      name there that no _test.go file declares
#   make bench         the end-to-end ledger (bench/README.md): five
#                      workloads untraced then traced against real lsserve
#                      children, result.json + per-layer table under
#                      .bench_out. Every per-layer quantity lives here:
#                      interpreted and compiled ns per eval, tracing
#                      overhead, live apply and WAL cost, the result-cache
#                      hit, cold/direct/extension (serve_mix), refresh
#                      (live_refresh) and sharded scatter (shard_scatter)
#   make bench-ledger-smoke
#                      a few seconds of every ledger workload plus the
#                      harness's own unit tests — the CI gate that the
#                      ledger still builds and runs
#   make bench-micro   one pass (BENCHTIME=1x) over the Go micro-benchmarks
#                      the ledger does not replace — paper figure, forest
#                      fit and scoring, designers, GROUP BY shared vs naive,
#                      catalog bytes per entry, shard-op wire bytes, RPCs
#                      per repeat coordinator count, the interpreter's
#                      first-object cross-check per joined row, a served
#                      no_cache (cold) and cached (warm) count, the
#                      bottom-k candidate sort, a grouped lss Drive over
#                      three in-process shards —
#                      printed as `go test -bench` prints them
#   make obs-check     observability lint: metrics without help strings
#                      or registered from two call sites, spans opened
#                      but never ended (tools/obscheck)
#   make loc           line counts the ROADMAP quotes: non-test Go outside
#                      bench/, Go tests outside bench/, and all of bench/
#   make fuzz-smoke    brief run of every native fuzzer (parser round-trip,
#                      lexer, live delta parser, WAL reader, shard frame codec,
#                      design sweep vs its per-bound reference, radix
#                      score order vs the comparator sort, presorted
#                      forest fit vs its per-node-sort reference, rank-grid
#                      forest scoring vs the walk, compiled predicate
#                      closures vs the interpreter, int columns around
#                      ±2^53 included, count-reporting evaluation's bounds
#                      and settled labels vs the interpreter) — the CI
#                      crash gate

GO ?= go

.PHONY: check build vet test race fmt-check docs-check obs-check bench-micro bench bench-ledger-smoke fuzz-smoke loc

check: build vet fmt-check docs-check obs-check race

# Formatting gate: every Go file is as gofmt writes it.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "fmt-check: gofmt -l lists:"; gofmt -l .; exit 1; }

# Documentation gate: the user-facing docs must exist, the runnable
# examples must vet clean, every exported symbol of the public SDK must
# carry a doc comment and no internal/ package may leak into its exported
# signatures (repro/lsample is the compatibility surface), ARCHITECTURE.md's
# shard-op table must name only ops internal/shard/protocol.go declares, the
# backticked `pkg.Ident` and `Type.Member` names of the three documents must
# still resolve against the module's source, and every backticked test,
# fuzz target or benchmark name they cite must be declared in a _test.go
# file (tools/doccheck).
docs-check:
	@test -f README.md || { echo "docs-check: README.md is missing"; exit 1; }
	@test -f ARCHITECTURE.md || { echo "docs-check: ARCHITECTURE.md is missing"; exit 1; }
	$(GO) vet ./examples/...
	$(GO) run ./tools/doccheck -idents ARCHITECTURE.md,README.md,lsample/doc.go \
		-op-doc ARCHITECTURE.md -op-decl internal/shard/protocol.go ./lsample

# Observability gate: every registered metric carries a help string and is
# registered from one call site, and every opened span is ended
# (tools/obscheck).
obs-check:
	$(GO) run ./tools/obscheck .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Everything but the ledger harness under the detector once (repro/bench's
# TestSmoke needs real-time half-second runs; bench-ledger-smoke is its
# gate — ROADMAP item 1(b)), then the tests that put several seeds on one
# shard executor or one catalog entry at the same time, the catalog store's
# acquire/release/EvictStale churn, the round-budget
# tests whose scatters merge every shard's reply of a fused round, the
# degraded-shard tests whose restarts scatter over a survivor table with
# holes (one lost shard, two, all of them), and the
# coordinator tests whose stored census meets moved data (a version bump,
# an ingest, a swapped worker, two clients racing live ingestion) and is
# retried from a fresh pre-flight, the coordinator tests whose frames carry
# non-finite feature values or meet a worker of another frame version, and
# the compiled and interpreted
# predicates several goroutines share, ten times over: a race only shows in
# an interleaving the run happens to execute.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^repro/bench$$')
	$(GO) test -race -count=10 -run 'TestShardExecConcurrent|TestResidentExecutorConcurrentSeeds|TestCatalogConcurrentSeedsShareOneEntry|TestConcurrentAcquireReleaseInvalidate|TestDriveRoundBudget|TestDriveLossInFusedRound|TestDriveDegradedPlain|TestDriveDegradedGrouped|TestDriveAllShardsLost|TestDriveLosesTwoShards|TestCoordinatorRoundBudget|TestCoordinatorVersionFence|TestCoordinatorCensusFollowsIngest|TestCoordinatorCatchesSwappedWorker|TestCoordinatorConcurrentIngest|TestCoordinatorNonFiniteFeatures|TestShardFrameVersionSkew|TestPredicatesSafeForConcurrentUse' ./lsample/ ./internal/service/ ./internal/shard/ ./internal/predicate/

# The figure benchmark, the parallel-engine micro-benchmarks (forest fit at
# 400 × 3 and at the ledger's 50 × 2 and 200 × 2; batched scoring at
# 20 000 × 3 and, as BenchmarkForestScoreLedger, at the ledger's forests ×
# 300 and 10 000 rows; scoreRest, RunDist), the three stratification
# designers (DynPgm at a wide shape and at the ledger's udf_learn shape),
# one lss estimate end to end (BenchmarkLSSEstimate: knn at budget 500, and
# ledger — udf_learn's lss count: 10 000 × 2 objects, the forest on one
# worker, budget 200), udf_learn's other two classes on the same objects
# (BenchmarkLWSEstimate/ledger, the 60 % class that sets its count_p50_ms,
# beside knn at budget 500; BenchmarkQLCCEstimate/ledger, the 15 % class),
# shared-sample GROUP BY against the naive
# per-group loop, and what a reuse-catalog entry costs after two seeds
# counted through it (BenchmarkCatalogEntry: labels/entry, live-B/entry
# beside accounted-B/entry, 100 cold counts over 50 tables per iteration),
# one shard's five lss ops over loopback HTTP through the coordinator's
# post (BenchmarkShardOpWire: wire-B/op, request plus reply bytes — the
# guard on the /v1/shard frames' size), and repeat lss counts through a
# coordinator over two loopback workers and two shards
# (BenchmarkCoordinatorCount: rpcs/op — 8 once the shape's census is
# stored — and allocs/op), and the interpreter's cross-check of a compiled
# program: the skyband Q3 and the neighbor Q3 (arithmetic and scalar
# functions in WHERE) for object 0 over 300 × 300 joined rows
# (BenchmarkFirstObjectValidation, one arm each: ns/row), a served lss count through
# Service.Count (BenchmarkServeCount: cold is a no_cache count at a fresh
# seed, the hash plan on the resident executor over an empty private label
# memo; warm a result-cache hit; evals/op), and the (hash, key) sort of 300
# bottom-k candidates under every hash-plan sample (BenchmarkSortCands), and
# one grouped lss Drive over 3 in-process shards of 300 objects
# (BenchmarkDriveGrouped: census, learn, per-group tallies, top-ups and
# read-out; ns/op and allocs/op).
# BENCHTIME=2s gives numbers worth recording.
BENCH_PATTERN = ^(BenchmarkFig2|BenchmarkForestFit(Seq|Par|Ledger)|BenchmarkForestScore.*|BenchmarkScoreRest|BenchmarkOrderByScore|BenchmarkRunDist(Seq|Par)|BenchmarkDirSol|BenchmarkDynPgmP?|Benchmark(LSS|LWS|QLCC)Estimate|BenchmarkGroupBy(Shared|Naive)|BenchmarkCatalogEntry|BenchmarkShardOpWire|BenchmarkCoordinatorCount|BenchmarkFirstObjectValidation|BenchmarkServeCount|BenchmarkSortCands|BenchmarkDriveGrouped)$$
BENCHTIME ?= 1x

bench-micro:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCHTIME) -benchmem ./...

# The end-to-end ledger: BENCHMARK.json's five workloads and per-layer
# table, written under .bench_out (gitignored).
bench:
	$(GO) run ./bench -out .bench_out

bench-ledger-smoke:
	$(GO) run ./bench -smoke
	$(GO) test ./bench

# Lines of Go in the three parts the ROADMAP tracks: the program (non-test
# files outside bench/), its tests, and the ledger harness under bench/
# (its tests included).
GO_FILES = find . \( -path ./bench -o -path ./.git \) -prune -o -name '*.go'
loc:
	@echo "non-test Go outside bench/: $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "tests outside bench/:       $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "bench/:                     $$(find bench -name '*.go' | xargs cat | wc -l)"

# Brief run of each native fuzzer: the parser/renderer round-trip property,
# lexer crash-safety, the live delta-batch parser (CSV + NDJSON) against a
# real keyed table, the WAL reader against arbitrary segment bytes, the
# designers' one-sweep dynamic program against the per-bound, per-level
# reference it replaced (cuts and objective bit for bit, feasibility, V =
# objective of the cuts), the radix score order against the comparator
# sort it replaced ((score, index) order and score bits, NaN last), the
# presorted, bootstrap-weighted forest fit against the row-copying,
# per-node-sort reference it replaced (every compiled node bit for bit),
# the forest's rank-grid scoring against the walk (every score bit for bit,
# with and without the tuple table), and qcompile's closures against the
# interpreter over generated tables × Q1 shapes × parameters (every object's
# label; an interpreter error is a typed fault; a refusal is a fallback), and
# the count-reporting closures of HAVING COUNT(*) <op> p against the
# interpreter's COUNT(*) and its label at a second threshold, and the shard
# wire's frame codec (arbitrary bytes never panic a decoder; generated
# frames and blocks, NaN and empty lists among them, round-trip bit for bit;
# a spare or missing byte is an error).
# Failures persist a reproducer under the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDelta$$' -fuzztime $(FUZZTIME) ./internal/live/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReader$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDesignSweep$$' -fuzztime $(FUZZTIME) ./internal/stratify/
	$(GO) test -run '^$$' -fuzz '^FuzzOrderByScore$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzForestFit$$' -fuzztime $(FUZZTIME) ./internal/learn/
	$(GO) test -run '^$$' -fuzz '^FuzzForestScore$$' -fuzztime $(FUZZTIME) ./internal/learn/
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledAgrees$$' -fuzztime $(FUZZTIME) ./internal/qcompile/
	$(GO) test -run '^$$' -fuzz '^FuzzCountBound$$' -fuzztime $(FUZZTIME) ./internal/qcompile/
	$(GO) test -run '^$$' -fuzz '^FuzzShardFrame$$' -fuzztime $(FUZZTIME) ./internal/shard/
