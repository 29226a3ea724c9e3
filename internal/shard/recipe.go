package shard

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/estimate"
)

// This file is the arithmetic of the hash-plan recipe, written once: Drive
// (plain and grouped, at any worker count) and lsample's LiveQuery.Refresh
// both call these steps, so a change to how the learn sample is sized, the
// strata are cut, or a stratum is sampled lands in every served path at
// once — or in none.

// ErrBudgetTooSmall marks a budget that cannot fund both an lss learn
// sample and an estimation sample; callers report it as a request error.
var ErrBudgetTooSmall = errors.New("shard: budget too small")

// LearnSize is the lss learn-sample size at the given budget — core's rule
// at its default fraction: a quarter of the budget, at least 2, leaving at
// least 2 evaluations for the estimation sample.
func LearnSize(budget int) (int, error) {
	k := core.LearnSize(0, budget, 2)
	if k < 2 {
		return 0, fmt.Errorf("%w: %d evaluations cannot fund an lss estimate", ErrBudgetTooSmall, budget)
	}
	return k, nil
}

// EqualCountCuts returns the H-1 boundaries that split the (non-empty)
// score multiset into H equal-count strata. It sorts scores in place.
func EqualCountCuts(scores []float64, H int) []float64 {
	sort.Float64s(scores)
	n := len(scores)
	cuts := make([]float64, 0, H-1)
	for j := 1; j < H; j++ {
		pos := j * n / H
		if pos > 0 {
			pos--
		}
		cuts = append(cuts, scores[pos])
	}
	return cuts
}

// StratumOf places a score into one of the len(cuts)+1 strata.
func StratumOf(cuts []float64, score float64) int {
	return sort.SearchFloat64s(cuts, score)
}

// SampleStrata spends budget across the strata (members[h] lists stratum
// h's keys, and the strata are disjoint): proportional allocation with a
// floor of 2, each stratum's hash bottom-k under tagOf(h), one label call
// for every stratum's selection together — no selection depends on another
// stratum's labels, and where a call is a scatter it is one round, not H —
// and the resulting tallies. visit, when non-nil, sees every sampled key
// with its stratum and label (grouped plans attribute them to groups).
func SampleStrata(members [][]int64, budget int, seed uint64, tagOf func(h int) uint64,
	label func(sel []int64) ([]bool, error), visit func(h int, key int64, positive bool)) ([]estimate.StratumSample, error) {

	sizes := make([]int, len(members))
	for h, m := range members {
		sizes[h] = len(m)
	}
	alloc := estimate.ProportionalAllocation(sizes, budget, 2)
	sels := make([][]int64, len(members))
	var all []int64
	for h, m := range members {
		sels[h] = BottomK(m, alloc[h], seed, tagOf(h))
		all = append(all, sels[h]...)
	}
	rest, err := label(all)
	if err != nil {
		return nil, err
	}
	strata := make([]estimate.StratumSample, len(members))
	for h, sel := range sels {
		labels := rest[:len(sel)]
		rest = rest[len(sel):]
		if visit != nil {
			for j, k := range sel {
				visit(h, k, labels[j])
			}
		}
		strata[h] = estimate.StratumSample{N: sizes[h], Sampled: len(sel), Positives: estimate.Positives(labels)}
	}
	return strata, nil
}
