package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/predicate"
	"repro/internal/xrand"
)

// groupedInstance builds a synthetic grouped problem: N objects in K
// size-skewed groups, feature x, label x > cut with per-group cuts so group
// proportions differ.
func groupedInstance(N, K int, seed uint64) (*ObjectSet, []int, []int) {
	r := xrand.New(seed)
	features := make([][]float64, N)
	groupOf := make([]int, N)
	labels := make([]bool, N)
	truth := make([]int, K)
	for i := 0; i < N; i++ {
		x := r.Float64()
		// Skewed group sizes: group g gets ~2x the mass of group g+1.
		g := 0
		u := r.Float64()
		mass := 0.5
		for g < K-1 && u > mass {
			u -= mass
			mass /= 2
			g++
		}
		features[i] = []float64{x}
		groupOf[i] = g
		cut := 0.3 + 0.4*float64(g)/float64(K)
		labels[i] = x > cut
		if labels[i] {
			truth[g]++
		}
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		panic(err)
	}
	return obj, groupOf, truth
}

func groupSizes(groupOf []int, K int) []int {
	sizes := make([]int, K)
	for _, g := range groupOf {
		sizes[g]++
	}
	return sizes
}

func TestGroupedOracleExact(t *testing.T) {
	obj, groupOf, truth := groupedInstance(500, 4, 1)
	res, err := GroupedOracle{}.EstimateGroups(context.Background(), obj, groupOf, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, gc := range res.Groups {
		if !gc.Exact || gc.Estimate != float64(truth[g]) {
			t.Fatalf("group %d: got %+v, want exact %d", g, gc, truth[g])
		}
		if gc.CI.Lo != gc.Estimate || gc.CI.Hi != gc.Estimate {
			t.Fatalf("group %d: degenerate CI expected, got %v", g, gc.CI)
		}
	}
	if res.Evals != int64(obj.N()) {
		t.Fatalf("oracle evals = %d, want %d", res.Evals, obj.N())
	}
}

func TestGroupedSRSFullBudgetIsExact(t *testing.T) {
	obj, groupOf, truth := groupedInstance(400, 3, 2)
	m := &GroupedSRS{}
	res, err := m.EstimateGroups(context.Background(), obj, groupOf, 3, obj.N(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for g, gc := range res.Groups {
		if !gc.Exact || gc.Estimate != float64(truth[g]) {
			t.Fatalf("group %d: got %+v, want exact %d", g, gc, truth[g])
		}
	}
	if res.Evals != int64(obj.N()) {
		t.Fatalf("evals = %d, want %d (memoized labels must not re-evaluate)", res.Evals, obj.N())
	}
}

func TestGroupedSRSSharesEvals(t *testing.T) {
	const N, K, budget = 4000, 6, 400
	obj, groupOf, _ := groupedInstance(N, K, 3)
	m := &GroupedSRS{}
	res, err := m.EstimateGroups(context.Background(), obj, groupOf, K, budget, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// The shared sample costs exactly budget evaluations; rare-group
	// top-ups add at most MinPerGroup per group on top.
	if res.Evals < int64(budget) || res.Evals > int64(budget+K*MinPerGroup) {
		t.Fatalf("evals = %d, want within [%d, %d]", res.Evals, budget, budget+K*MinPerGroup)
	}
	sizes := groupSizes(groupOf, K)
	for g, gc := range res.Groups {
		want := MinPerGroup
		if want > sizes[g] {
			want = sizes[g]
		}
		if gc.Sampled < want {
			t.Fatalf("group %d sampled %d < floor %d", g, gc.Sampled, want)
		}
		if gc.N != sizes[g] {
			t.Fatalf("group %d: N = %d, want %d", g, gc.N, sizes[g])
		}
	}
}

func TestGroupedSRSCoverage(t *testing.T) {
	// Across seeds, the 95% CI should cover the true per-group count most
	// of the time. This is a smoke-level calibration check, not a precise
	// coverage experiment.
	const N, K, budget, trials = 3000, 4, 600, 20
	obj, groupOf, truth := groupedInstance(N, K, 4)
	covered, total := 0, 0
	for trial := 0; trial < trials; trial++ {
		m := &GroupedSRS{}
		res, err := m.EstimateGroups(context.Background(), obj, groupOf, K, budget, xrand.New(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		for g, gc := range res.Groups {
			total++
			if gc.CI.Lo <= float64(truth[g]) && float64(truth[g]) <= gc.CI.Hi {
				covered++
			}
		}
	}
	if frac := float64(covered) / float64(total); frac < 0.80 {
		t.Fatalf("CI coverage %.2f < 0.80 (%d/%d)", frac, covered, total)
	}
}

func TestGroupedLSSSharesLearnPhase(t *testing.T) {
	const N, K, budget = 3000, 5, 300
	obj, groupOf, truth := groupedInstance(N, K, 5)
	m := &GroupedLSS{NewClassifier: ForestClassifier(1)}
	res, err := m.EstimateGroups(context.Background(), obj, groupOf, K, budget, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals < int64(budget) || res.Evals > int64(budget+K*MinPerGroup) {
		t.Fatalf("evals = %d, want within [%d, %d]", res.Evals, budget, budget+K*MinPerGroup)
	}
	totalTruth, totalEst := 0.0, 0.0
	for g, gc := range res.Groups {
		totalTruth += float64(truth[g])
		totalEst += gc.Estimate
		if !gc.HasCI {
			t.Fatalf("group %d: no CI", g)
		}
		if gc.Estimate < 0 || gc.Estimate > float64(gc.N) {
			t.Fatalf("group %d: estimate %v outside [0, %d]", g, gc.Estimate, gc.N)
		}
	}
	if rel := math.Abs(totalEst-totalTruth) / totalTruth; rel > 0.5 {
		t.Fatalf("total estimate %v vs truth %v (rel %.2f)", totalEst, totalTruth, rel)
	}
}

func TestGroupedLSSFullBudgetIsExact(t *testing.T) {
	obj, groupOf, truth := groupedInstance(400, 3, 6)
	m := &GroupedLSS{NewClassifier: ForestClassifier(1)}
	res, err := m.EstimateGroups(context.Background(), obj, groupOf, 3, obj.N(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for g, gc := range res.Groups {
		if !gc.Exact || gc.Estimate != float64(truth[g]) {
			t.Fatalf("group %d: got %+v, want exact %d", g, gc, truth[g])
		}
	}
	if res.Evals != int64(obj.N()) {
		t.Fatalf("evals = %d, want %d", res.Evals, obj.N())
	}
}

func TestGroupedDeterministic(t *testing.T) {
	obj, groupOf, _ := groupedInstance(2000, 4, 8)
	for _, m := range []GroupedMethod{
		&GroupedSRS{},
		&GroupedLSS{NewClassifier: ForestClassifier(1)},
	} {
		a, err := m.EstimateGroups(context.Background(), obj, groupOf, 4, 200, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.EstimateGroups(context.Background(), obj, groupOf, 4, 200, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", a.Groups) != fmt.Sprintf("%#v", b.Groups) {
			t.Fatalf("%s: same seed produced different group estimates", m.Name())
		}
	}
}

func TestGroupedRareGroupFallback(t *testing.T) {
	// One group with 5 members among 2000 objects: a 100-draw shared
	// sample will usually miss it, so the fallback must kick in.
	const N = 2000
	features := make([][]float64, N)
	groupOf := make([]int, N)
	labels := make([]bool, N)
	for i := 0; i < N; i++ {
		features[i] = []float64{float64(i % 7)}
		if i < 5 {
			groupOf[i] = 1
			labels[i] = true
		}
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []GroupedMethod{
		&GroupedSRS{},
		&GroupedLSS{NewClassifier: ForestClassifier(1)},
	} {
		res, err := m.EstimateGroups(context.Background(), obj, groupOf, 2, 100, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		rare := res.Groups[1]
		if !rare.Exact || rare.Estimate != 5 {
			t.Fatalf("%s: rare group got %+v, want exact count 5 via fallback", m.Name(), rare)
		}
	}
}

// TestGroupedLSSIntervalInvariants sweeps seeds over a small skewed
// instance — the regime where zero-variance point estimates can overshoot
// a group's feasible range — and pins the interval invariants: Lo ≤ Hi,
// Lo ≤ Estimate ≤ Hi, and everything within [0, N_g]. A regression guard
// for the inverted-CI bug where the feasibility clamp pushed Lo above Hi.
func TestGroupedLSSIntervalInvariants(t *testing.T) {
	const N, K, budget = 54, 2, 30
	obj, groupOf, _ := groupedInstance(N, K, 12)
	for seed := uint64(1); seed <= 60; seed++ {
		m := &GroupedLSS{NewClassifier: ForestClassifier(1)}
		res, err := m.EstimateGroups(context.Background(), obj, groupOf, K, budget, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for g, gc := range res.Groups {
			if gc.CI.Lo > gc.CI.Hi {
				t.Fatalf("seed %d group %d: inverted CI [%v, %v]", seed, g, gc.CI.Lo, gc.CI.Hi)
			}
			if gc.Estimate < gc.CI.Lo || gc.Estimate > gc.CI.Hi {
				t.Fatalf("seed %d group %d: estimate %v outside CI [%v, %v]", seed, g, gc.Estimate, gc.CI.Lo, gc.CI.Hi)
			}
			if gc.CI.Lo < 0 || gc.CI.Hi > float64(gc.N) {
				t.Fatalf("seed %d group %d: CI [%v, %v] outside [0, %d]", seed, g, gc.CI.Lo, gc.CI.Hi, gc.N)
			}
		}
	}
}

func TestGroupedCtxCancel(t *testing.T) {
	obj, groupOf, _ := groupedInstance(1000, 3, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []GroupedMethod{
		&GroupedSRS{},
		&GroupedLSS{NewClassifier: ForestClassifier(1)},
		GroupedOracle{},
	} {
		if _, err := m.EstimateGroups(ctx, obj, groupOf, 3, 100, xrand.New(1)); err == nil {
			t.Fatalf("%s: canceled ctx did not abort", m.Name())
		}
	}
}

func TestGroupedValidation(t *testing.T) {
	obj, groupOf, _ := groupedInstance(100, 2, 11)
	m := &GroupedSRS{}
	if _, err := m.EstimateGroups(context.Background(), obj, groupOf, 0, 10, xrand.New(1)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := m.EstimateGroups(context.Background(), obj, groupOf[:50], 2, 10, xrand.New(1)); err == nil {
		t.Fatal("short groupOf accepted")
	}
	bad := append([]int(nil), groupOf...)
	bad[3] = 9
	if _, err := m.EstimateGroups(context.Background(), obj, bad, 2, 10, xrand.New(1)); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	if _, err := m.EstimateGroups(context.Background(), obj, groupOf, 2, obj.N()+1, xrand.New(1)); err == nil {
		t.Fatal("over-budget accepted")
	}
}
