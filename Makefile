# Repository verification and benchmarking entry points.
#
#   make check         build + vet + api/docs gates + race-enabled tests
#                      (tier-1 gate and more)
#   make test          plain test run
#   make docs-check    README/ARCHITECTURE exist, examples vet, every
#                      exported lsample symbol documented
#   make bench         the end-to-end ledger (bench/README.md): five
#                      workloads untraced then traced against real lsserve
#                      children, result.json + per-layer table under
#                      .bench_out. Every per-layer quantity lives here:
#                      interpreted/scalar/vector ns per eval, tracing
#                      overhead, live apply and WAL cost, the result-cache
#                      hit, cold/direct/extension (serve_mix), refresh
#                      (live_refresh) and sharded scatter (shard_scatter)
#   make bench-ledger-smoke
#                      a few seconds of every ledger workload plus the
#                      harness's own unit tests — the CI gate that the
#                      ledger still builds and runs
#   make bench-smoke   1-iteration pass over the figure benchmark and the
#                      perf micro-benchmarks, emitted as BENCH_smoke.json
#   make bench-groupby shared-sample GROUP BY vs naive per-group loop,
#                      emitted as BENCH_groupby.json
#   make obs-check     observability lint: metrics without help strings
#                      or registered from two call sites, spans opened
#                      but never ended (tools/obscheck)
#   make fuzz-smoke    brief run of every native fuzzer (parser round-trip,
#                      lexer, live delta parser, WAL reader, shard routing,
#                      design sweep vs its per-bound reference, presorted
#                      forest fit vs its per-node-sort reference) — the CI
#                      crash gate
#   make bench-full    3-second benchmark pass (slow; for recorded numbers)

GO ?= go

# Benchmarks are piped into benchjson; without pipefail a failed bench run
# would exit 0 and silently overwrite the snapshot with a partial one.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: check build vet test race api-check docs-check obs-check bench-smoke bench-full bench-groupby bench bench-ledger-smoke fuzz-smoke

check: build vet api-check docs-check obs-check race

# Fail if internal/ packages leak into the public SDK's exported
# signatures (repro/lsample is the compatibility surface).
api-check:
	$(GO) run ./tools/apicheck lsample

# Documentation gate: the user-facing docs must exist, the runnable
# examples must vet clean, and every exported symbol of the public SDK
# must carry a doc comment (tools/doccheck).
docs-check:
	@test -f README.md || { echo "docs-check: README.md is missing"; exit 1; }
	@test -f ARCHITECTURE.md || { echo "docs-check: ARCHITECTURE.md is missing"; exit 1; }
	$(GO) vet ./examples/...
	$(GO) run ./tools/doccheck ./lsample

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

race:
	$(GO) test -race ./...

# The figure benchmark, the parallel-engine micro-benchmarks (forest fit at
# 400 × 3 and at the ledger's 50 × 2 and 200 × 2, batched scoring,
# scoreRest, RunDist), the three stratification designers (DynPgm at a wide
# shape and at the ledger's udf_learn shape) and one lss estimate end to end.
BENCH_PATTERN = ^(BenchmarkFig2|BenchmarkForestFit(Seq|Par|Ledger)|BenchmarkForestScore.*|BenchmarkScoreRest|BenchmarkOrderByScore|BenchmarkRunDist(Seq|Par)|BenchmarkDirSol|BenchmarkDynPgmP?|BenchmarkLSSEstimate)$$

bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x ./... \
		| $(GO) run ./tools/benchjson > BENCH_smoke.json
	@cat BENCH_smoke.json

bench-full:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2s ./... \
		| $(GO) run ./tools/benchjson > BENCH_full.json
	@cat BENCH_full.json

# One pass over the GROUP BY benchmarks: shared-sample grouped estimation
# vs the naive per-group estimate loop, emitted as BENCH_groupby.json.
# (BENCH_PR3.json records a 2-iteration run of the same benchmarks.)
bench-groupby:
	$(GO) test -run '^$$' -bench '^BenchmarkGroupBy(Shared|Naive)$$' -benchtime 1x ./lsample/ \
		| $(GO) run ./tools/benchjson > BENCH_groupby.json
	@cat BENCH_groupby.json

# The end-to-end ledger: BENCHMARK.json's five workloads and per-layer
# table, written under .bench_out (gitignored).
bench:
	$(GO) run ./bench -out .bench_out

bench-ledger-smoke:
	$(GO) run ./bench -smoke
	$(GO) test ./bench

# Brief run of each native fuzzer: the parser/renderer round-trip property,
# lexer crash-safety, the live delta-batch parser (CSV + NDJSON) against a
# real keyed table, the WAL reader against arbitrary segment bytes, the
# consistent-hash shard routing invariants (no key lost or double-assigned,
# minimal movement on join/leave), the designers' one-sweep dynamic
# program against the per-bound, per-level reference it replaced (cuts and
# objective bit for bit, feasibility, V = objective of the cuts), and the
# presorted, bootstrap-weighted forest fit against the row-copying,
# per-node-sort reference it replaced (every compiled node bit for bit).
# Failures persist a reproducer under the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDelta$$' -fuzztime $(FUZZTIME) ./internal/live/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReader$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzShardRouting$$' -fuzztime $(FUZZTIME) ./internal/shard/
	$(GO) test -run '^$$' -fuzz '^FuzzDesignSweep$$' -fuzztime $(FUZZTIME) ./internal/stratify/
	$(GO) test -run '^$$' -fuzz '^FuzzForestFit$$' -fuzztime $(FUZZTIME) ./internal/learn/
