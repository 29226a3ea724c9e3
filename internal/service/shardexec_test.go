package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// These tests hold a worker's shard executor to what it is: the shard, not
// one seed's run of it. One executor per (query, parameters, shard) serves
// every seed and budget, keeps the population, the checked predicate and
// every label across counts, and answers byte-identically to a fresh
// in-process WithShards run of each seed.

// sameAnswer compares everything of two answers but the evaluation bill. (A
// grouped answer's intervals are its rows': on every serving path the total
// carries none.)
func sameAnswer(t *testing.T, what string, got, ref *CountResult) {
	t.Helper()
	if got.Estimate != ref.Estimate || got.Objects != ref.Objects || got.Budget != ref.Budget || got.Fingerprint != ref.Fingerprint ||
		got.CILo != ref.CILo || got.CIHi != ref.CIHi || got.HasCI != ref.HasCI {
		t.Fatalf("%s diverged: %v [%v,%v] budget %d vs %v [%v,%v] budget %d", what,
			got.Estimate, got.CILo, got.CIHi, got.Budget, ref.Estimate, ref.CILo, ref.CIHi, ref.Budget)
	}
	if len(got.Groups) != len(ref.Groups) {
		t.Fatalf("%s: %d groups, want %d", what, len(got.Groups), len(ref.Groups))
	}
	for i, rg := range ref.Groups {
		gg := got.Groups[i]
		if strings.Join(gg.Key, "|") != strings.Join(rg.Key, "|") || gg.Estimate != rg.Estimate || gg.HasCI != rg.HasCI ||
			gg.CILo != rg.CILo || gg.CIHi != rg.CIHi || gg.Objects != rg.Objects || gg.Sampled != rg.Sampled {
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
// the worker keeps one executor per (query, method) — not one per count —
// and after each executor's first op every op is a hit.
func TestShardExecServesEverySeed(t *testing.T) {
	const n, seeds = 150, 6
	worker, srv := newWorkerServer(t, testTable(n, 7), groupedTestTable(n, 7))
	reg := NewRegistry()
	reg.Register(testTable(n, 7))
	reg.Register(groupedTestTable(n, 7))
	local := New(reg, Options{})
	coord := newCoordinator(t, CoordinatorOptions{Shards: 1}, srv)

	classes := []CountRequest{
		{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3},
		{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "srs", Budget: 0.2},
		{SQL: groupedSkybandQuery, Params: map[string]any{"k": float64(12)}, Method: "lss", Budget: 0.3},
	}
	var spent, fresh int64
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
		}
	}
	if spent >= fresh {
		t.Errorf("%d seeds spent %d evaluations through one executor, fresh runs %d: no label was shared", seeds, spent, fresh)
	}
	if got := worker.execs.len(); got != len(classes) {
		t.Errorf("worker holds %d executors after %d counts, want %d", got, seeds*len(classes), len(classes))
	}
	if miss := worker.m.shardExec.With("miss").Value(); miss != int64(len(classes)) {
		t.Errorf("%d executor misses, want one per executor (%d)", miss, len(classes))
	}
	if hit := worker.m.shardExec.With("hit").Value(); hit < int64(seeds*len(classes)) {
		t.Errorf("only %d executor hits over %d counts", hit, seeds*len(classes))
	}
}

// TestShardExecConcurrentSeeds: ops of different seeds run on one executor
// at once (run under -race) and every seed still gets its own byte-
// identical answer.
func TestShardExecConcurrentSeeds(t *testing.T) {
	const n, seeds = 150, 8
	worker, srv := newWorkerServer(t, testTable(n, 7))
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
	if got := worker.execs.len(); got != 2 {
		t.Errorf("worker holds %d executors, want one per shard (2)", got)
	}
}

// TestShardExecBoundsWorkerState: what a worker retains is O(population)
// per (query, shard), not O(counts). After a first count that labels the
// whole population, fresh seeds and budgets change neither the executor
// population nor the catalog's entry count nor a byte of its accounting;
// an lss plan that buys its labels count by count stops growing once the
// population is labeled.
func TestShardExecBoundsWorkerState(t *testing.T) {
	const n = 150
	worker, srv := newWorkerServer(t, testTable(n, 7))
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2}, srv)
	count := func(method string, budget float64, seed uint64) {
		t.Helper()
		req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: method, Budget: budget, Seed: seed}
		if _, err := coord.Count(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
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
	if got := worker.execs.len(); got != 2 {
		t.Errorf("worker holds %d executors after 13 counts, want one per shard (2)", got)
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
	if got := worker.execs.len(); got != 4 {
		t.Errorf("worker holds %d executors, want one per (method, shard) (4)", got)
	}
}

// predicateBuilds counts a stitched trace's predicate.build spans: those
// that paid the interpreter's cross-check, and those an executor vouched
// for. Any other validated_by is an error.
func predicateBuilds(t *testing.T, trace *obs.SpanData) (checked, vouched int) {
	t.Helper()
	forEachSpan(trace, func(d *obs.SpanData) {
		if d.Name != "predicate.build" {
			return
		}
		switch d.Attrs["validated_by"] {
		case nil:
			checked++
		case "executor":
			vouched++
		default:
			t.Errorf("predicate.build validated_by = %v", d.Attrs["validated_by"])
		}
	})
	return checked, vouched
}

// TestShardExecChecksPerProgramAndSnapshot: the interpreter cross-check is
// paid once for every distinct (program, parameters, snapshot) and never
// again — a second seed rides on the executor's verdict and labels, while a
// changed Q3 parameter or a new dataset version gets its own executor, its
// own check and its own label space.
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
	if checked, _ := predicateBuilds(t, first.Trace); checked != 1 {
		t.Fatalf("first count paid %d cross-checks, want 1", checked)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		res := count(10, seed)
		if checked, _ := predicateBuilds(t, res.Trace); checked != 0 {
			t.Errorf("seed %d paid the cross-check again (%d unvalidated builds)", seed, checked)
		}
		if res.Evals >= first.Evals {
			t.Errorf("seed %d spent %d evaluations, the first count %d: no label was shared", seed, res.Evals, first.Evals)
		}
	}

	other := count(12, 1) // same seed, another Q3 parameter: another predicate
	if checked, _ := predicateBuilds(t, other.Trace); checked != 1 {
		t.Errorf("a changed parameter paid %d cross-checks, want its own 1", checked)
	}
	if other.Evals != first.Evals {
		t.Errorf("a changed parameter spent %d evaluations, want the full %d: labels of another predicate leaked", other.Evals, first.Evals)
	}
	if got := worker.execs.len(); got != 2 {
		t.Errorf("worker holds %d executors, want one per parameter binding (2)", got)
	}

	worker.RegisterTable(testTable(n, 8)) // a new dataset version
	if got := worker.execs.len(); got != 0 {
		t.Errorf("%d executors survived their snapshot", got)
	}
	moved := count(10, 1)
	if checked, _ := predicateBuilds(t, moved.Trace); checked != 1 {
		t.Errorf("a new dataset version paid %d cross-checks, want its own 1", checked)
	}
	if moved.Evals != first.Evals {
		t.Errorf("a new dataset version spent %d evaluations, want the full %d", moved.Evals, first.Evals)
	}
}

// TestCoordinatorPlacesPrimariesEvenly: with S = kW shards every worker is
// primary for exactly k of them — so it prepares exactly k executors and
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
				req := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": float64(10)}, Method: "lss", Budget: 0.3, Seed: 5}
				got, err := coord.Count(context.Background(), &req)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, "scatter/gather", got, freshRun(t, local, req, k*w))
				for i, worker := range workers {
					if execs := worker.execs.len(); execs != k {
						t.Errorf("w%d prepared %d executors, want %d", i, execs, k)
					}
					if ops := coord.shardOps.With(fmt.Sprintf("w%d", i)).Value(); ops == 0 {
						t.Errorf("w%d was sent no shard op", i)
					}
				}
			})
		}
	}
}
