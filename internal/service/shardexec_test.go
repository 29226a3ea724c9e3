package service

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// These tests hold a worker's shard executor to what it is: the shard, not
// one seed's run of it. One executor per (query, parameters, shard) serves
// every seed and budget, keeps the population and the checked predicate
// resident on the prepared query, keeps every label in the catalog across
// counts, and answers byte-identically to a fresh in-process WithShards run
// of each seed.

// executorBuilds counts the shard executors the given traces show being
// built: an op that finds its executor resident opens no enumerate span,
// one that builds it opens exactly one.
func executorBuilds(traces ...*obs.SpanData) int {
	n := 0
	for _, tr := range traces {
		forEachSpan(tr, func(d *obs.SpanData) {
			if d.Name == "enumerate" {
				n++
			}
		})
	}
	return n
}

// sameAnswer compares everything of two answers but the evaluation bill,
// numbers by their bits. (A grouped answer's intervals are its rows': on
// every serving path the total carries none.)
func sameAnswer(t *testing.T, what string, got, ref *CountResult) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Estimate, ref.Estimate) || got.Objects != ref.Objects || got.Budget != ref.Budget || got.Fingerprint != ref.Fingerprint ||
		!same(got.CILo, ref.CILo) || !same(got.CIHi, ref.CIHi) || got.HasCI != ref.HasCI {
		t.Fatalf("%s diverged: %v [%v,%v] budget %d vs %v [%v,%v] budget %d", what,
			got.Estimate, got.CILo, got.CIHi, got.Budget, ref.Estimate, ref.CILo, ref.CIHi, ref.Budget)
	}
	if len(got.Groups) != len(ref.Groups) {
		t.Fatalf("%s: %d groups, want %d", what, len(got.Groups), len(ref.Groups))
	}
	for i, rg := range ref.Groups {
		gg := got.Groups[i]
		if strings.Join(gg.Key, "|") != strings.Join(rg.Key, "|") || !same(gg.Estimate, rg.Estimate) || gg.HasCI != rg.HasCI ||
			!same(gg.CILo, rg.CILo) || !same(gg.CIHi, rg.CIHi) || gg.Objects != rg.Objects || gg.Sampled != rg.Sampled {
			t.Fatalf("%s: group %d diverged: %+v vs %+v", what, i, gg, rg)
		}
	}
}

// freshRun is the reference: the request as an in-process WithShards run
// that bypasses every cache and the reuse catalog.
func freshRun(t *testing.T, local *Service, req CountRequest, shards int) *CountResult {
	t.Helper()
	req.Shards, req.NoCache = shards, true
	ref, err := local.Count(&req)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestShardExecServesEverySeed: K fresh seeds of three query classes go
// through one worker over HTTP. Every answer is byte-identical to a fresh
// in-process WithShards(1) run of its seed and costs no more evaluations;
// the worker builds one executor per (query, method) — not one per count —
// and every later op finds it resident.
func TestShardExecServesEverySeed(t *testing.T) {
	const n, seeds = 150, 6
	_, srv := newWorkerServer(t, testTable(n, 7), groupedTestTable(n, 7))
	reg := NewRegistry()
	reg.Register(testTable(n, 7))
	reg.Register(groupedTestTable(n, 7))
	local := New(reg, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 1}, srv)

	classes := []CountRequest{
		{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3, Explain: true},
		{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "srs", Budget: 0.2, Explain: true},
		{SQL: groupedSkybandQuery, Params: map[string]any{"k": float64(12)}, Method: "lss", Budget: 0.3, Explain: true},
	}
	var spent, fresh int64
	built := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		for c, req := range classes {
			req.Seed = seed
			got, err := coord.Count(context.Background(), &req)
			if err != nil {
				t.Fatal(err)
			}
			ref := freshRun(t, local, req, 1)
			sameAnswer(t, fmt.Sprintf("class %d seed %d", c, seed), got, ref)
			if got.Evals > ref.Evals {
				t.Errorf("class %d seed %d spent %d evaluations, a fresh run %d", c, seed, got.Evals, ref.Evals)
			}
			spent, fresh = spent+got.Evals, fresh+ref.Evals
			built += executorBuilds(got.Trace)
		}
	}
	if spent >= fresh {
		t.Errorf("%d seeds spent %d evaluations through one executor, fresh runs %d: no label was shared", seeds, spent, fresh)
	}
	if built != len(classes) {
		t.Errorf("worker built %d executors over %d counts, want %d", built, seeds*len(classes), len(classes))
	}
}

// TestShardExecConcurrentSeeds: ops of different seeds run on one executor
// at once (run under -race), every seed still gets its own byte-identical
// answer, and a count after them finds both shards' executors resident.
func TestShardExecConcurrentSeeds(t *testing.T) {
	const n, seeds = 150, 8
	_, srv := newWorkerServer(t, testTable(n, 7))
	local := newTestService(t, n, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2}, srv)

	base := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3}
	refs := make([]*CountResult, seeds)
	for i := range refs {
		req := base
		req.Seed = uint64(i + 1)
		refs[i] = freshRun(t, local, req, 2)
	}
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := base
			req.Seed = uint64(i + 1)
			got, err := coord.Count(context.Background(), &req)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Estimate != refs[i].Estimate || got.CILo != refs[i].CILo || got.CIHi != refs[i].CIHi ||
				got.Budget != refs[i].Budget || got.Evals > refs[i].Evals {
				t.Errorf("seed %d: %v [%v,%v] evals %d, fresh run %v [%v,%v] evals %d", i+1,
					got.Estimate, got.CILo, got.CIHi, got.Evals, refs[i].Estimate, refs[i].CILo, refs[i].CIHi, refs[i].Evals)
			}
		}()
	}
	wg.Wait()
	after := base
	after.Seed, after.Explain = seeds+1, true
	res, err := coord.Count(context.Background(), &after)
	if err != nil {
		t.Fatal(err)
	}
	if built := executorBuilds(res.Trace); built != 0 {
		t.Errorf("a count after %d concurrent seeds built %d executors, want both shards' resident", seeds, built)
	}
}

// TestShardExecBoundsWorkerState: what a worker retains is O(population)
// per (query, shard), not O(counts). After a first count that labels the
// whole population, fresh seeds and budgets build no executor and change
// neither the catalog's entry count nor a byte of its accounting; an lss
// plan that buys its labels count by count stops growing once the
// population is labeled.
func TestShardExecBoundsWorkerState(t *testing.T) {
	const n = 150
	worker, srv := newWorkerServer(t, testTable(n, 7))
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2}, srv)
	built := 0
	count := func(method string, budget float64, seed uint64) {
		t.Helper()
		req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: method, Budget: budget, Seed: seed, Explain: true}
		res, err := coord.Count(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		built += executorBuilds(res.Trace)
	}

	count("srs", 1, 1)
	first := worker.CatalogStats()
	if first.Entries != 2 || first.Bytes == 0 {
		t.Fatalf("after the first count: %d entries, %d bytes, want one accounted entry per shard", first.Entries, first.Bytes)
	}
	for seed := uint64(2); seed <= 13; seed++ {
		count("srs", 0.2, seed)
	}
	if after := worker.CatalogStats(); after.Entries != first.Entries || after.Bytes != first.Bytes {
		t.Errorf("12 fresh seeds moved the catalog from %d entries / %d B to %d / %d B",
			first.Entries, first.Bytes, after.Entries, after.Bytes)
	}
	if built != 2 {
		t.Errorf("worker built %d executors over 13 counts, want one per shard (2)", built)
	}

	for seed := uint64(1); seed <= 30; seed++ {
		count("lss", 0.3, seed)
	}
	labeled := worker.CatalogStats()
	for seed := uint64(31); seed <= 60; seed++ {
		count("lss", 0.3, seed)
	}
	if after := worker.CatalogStats(); after.Entries != 4 || after.Bytes != labeled.Bytes {
		t.Errorf("30 more lss seeds moved the catalog from %d entries / %d B to %d / %d B, want 4 entries and no growth",
			labeled.Entries, labeled.Bytes, after.Entries, after.Bytes)
	}
	if built != 4 {
		t.Errorf("worker built %d executors, want one per (method, shard) (4)", built)
	}
}

// predicateBuilds counts a stitched trace's predicate.build spans, each of
// which paid the interpreter's cross-check.
func predicateBuilds(trace *obs.SpanData) (n int) {
	forEachSpan(trace, func(d *obs.SpanData) {
		if d.Name == "predicate.build" {
			n++
		}
	})
	return n
}

// TestShardExecChecksPerProgramAndSnapshot: the interpreter cross-check is
// paid once for every distinct (program, parameters, snapshot) and never
// again — a second seed rides on the executor's predicate and labels, while a
// changed Q3 parameter or a new dataset version gets its own executor and
// its own check. A new version also gets its own labels; a changed count
// threshold k shares the predicate's count space, so it buys only the
// labels the first count's walks do not settle.
func TestShardExecChecksPerProgramAndSnapshot(t *testing.T) {
	const n = 150
	worker, srv := newWorkerServer(t, testTable(n, 7))
	coord := newCoordinator(t, CoordinatorOptions{Shards: 1}, srv)
	count := func(k float64, seed uint64) *CountResult {
		t.Helper()
		req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": k}, Method: "srs", Budget: 0.4, Seed: seed, Explain: true}
		res, err := coord.Count(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("explain count returned no trace")
		}
		return res
	}

	first := count(10, 1)
	if checked := predicateBuilds(first.Trace); checked != 1 {
		t.Fatalf("first count paid %d cross-checks, want 1", checked)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		res := count(10, seed)
		if checked := predicateBuilds(res.Trace); checked != 0 {
			t.Errorf("seed %d paid the cross-check again (%d builds)", seed, checked)
		}
		if res.Evals >= first.Evals {
			t.Errorf("seed %d spent %d evaluations, the first count %d: no label was shared", seed, res.Evals, first.Evals)
		}
	}

	other := count(12, 1) // same seed, another Q3 parameter: another predicate
	if checked := predicateBuilds(other.Trace); checked != 1 {
		t.Errorf("a changed parameter paid %d cross-checks, want its own 1", checked)
	}
	if other.Evals >= first.Evals {
		t.Errorf("a changed threshold spent %d evaluations, the first count %d: k=10's settled labels were not reused", other.Evals, first.Evals)
	}
	if built := executorBuilds(other.Trace); built != 1 {
		t.Errorf("a changed parameter built %d executors, want its own 1", built)
	}

	worker.RegisterTable(testTable(n, 8)) // a new dataset version
	if got := worker.preps.len(); got != 0 {
		t.Errorf("%d prepared queries, and the executors they keep, survived their snapshot", got)
	}
	moved := count(10, 1)
	if checked := predicateBuilds(moved.Trace); checked != 1 {
		t.Errorf("a new dataset version paid %d cross-checks, want its own 1", checked)
	}
	if moved.Evals != first.Evals {
		t.Errorf("a new dataset version spent %d evaluations, want the full %d", moved.Evals, first.Evals)
	}
}

// TestCoordinatorPlacesPrimariesEvenly: with S = kW shards every worker is
// primary for exactly k of them — so it builds exactly k executors and
// takes its share of the ops — and the merged answer is byte-identical to
// the in-process run, as it was when one worker could own every shard.
func TestCoordinatorPlacesPrimariesEvenly(t *testing.T) {
	const n = 120
	local := newTestService(t, n, Options{})
	for w := 2; w <= 4; w++ {
		for k := 1; k <= 2; k++ {
			t.Run(fmt.Sprintf("W=%d/S=%d", w, k*w), func(t *testing.T) {
				workers := make([]*Service, w)
				servers := make([]*httptest.Server, w)
				for i := range workers {
					workers[i], servers[i] = newWorkerServer(t, testTable(n, 7))
				}
				// No hedging: every op goes to its shard's primary.
				coord := newCoordinator(t, CoordinatorOptions{Shards: k * w, HedgeAfter: time.Minute}, servers...)
				req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3, Seed: 5, Explain: true}
				got, err := coord.Count(context.Background(), &req)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, "scatter/gather", got, freshRun(t, local, req, k*w))
				for i, worker := range workers {
					if built := executorBuilds(worker.Tracer().Traces(0)...); built != k {
						t.Errorf("w%d built %d executors, want %d", i, built, k)
					}
					if ops := coord.shardOps.With(fmt.Sprintf("w%d", i)).Value(); ops == 0 {
						t.Errorf("w%d was sent no shard op", i)
					}
				}
			})
		}
	}
}

// TestInterleavedLayoutsKeepTheirLabels: clients that send one coordinator
// different shard counts — or two coordinators with different -shards over
// the same workers — interleave layouts on every worker. Each layout keeps
// its own executors and catalog entries, so its second pass over the same
// request buys no label, whatever the other layout did in between.
func TestInterleavedLayoutsKeepTheirLabels(t *testing.T) {
	const n = 120
	_, srvA := newWorkerServer(t, testTable(n, 7))
	_, srvB := newWorkerServer(t, testTable(n, 7))
	local := newTestService(t, n, Options{})
	coord := newCoordinator(t, CoordinatorOptions{}, srvA, srvB)

	for pass := 1; pass <= 3; pass++ {
		for _, shards := range []int{2, 3} {
			req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.25, Seed: 3, Shards: shards}
			got, err := coord.Count(context.Background(), &req)
			if err != nil {
				t.Fatal(err)
			}
			ref := freshRun(t, local, req, shards)
			sameAnswer(t, fmt.Sprintf("pass %d, %d shards", pass, shards), got, ref)
			switch {
			case pass == 1 && got.Evals != ref.Evals:
				t.Errorf("pass 1, %d shards: %d fresh evaluations, a cold run %d", shards, got.Evals, ref.Evals)
			case pass > 1 && got.Evals != 0:
				t.Errorf("pass %d, %d shards: %d fresh evaluations, want 0 — the other layout evicted this one's labels", pass, shards, got.Evals)
			}
		}
	}
}
