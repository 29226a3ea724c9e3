// Package active implements the uncertainty-sampling augmentation of §3.2:
// spend part of the labeling budget on the objects the current classifier
// is least sure about (smallest |g(o) − 0.5|), then retrain. The paper
// recommends a single augmentation/retraining step in practice.
package active

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/learn"
	"repro/internal/xrand"
)

// PoolCap bounds how many unlabeled objects are scored per selection round;
// the paper draws "a large enough number" instead of scoring all of O \ S0.
const PoolCap = 10000

// SelectUncertain returns the addN unlabeled objects with scores closest to
// the 0.5 toss-up, scoring at most PoolCap random candidates.
func SelectUncertain(clf learn.Classifier, features [][]float64,
	labeled map[int]bool, addN int, r *xrand.Rand) []int {

	var pool []int
	for i := range features {
		if !labeled[i] {
			pool = append(pool, i)
		}
	}
	if len(pool) > PoolCap {
		// Random subset of the unlabeled objects.
		perm := r.Perm(len(pool))[:PoolCap]
		sub := make([]int, PoolCap)
		for j, p := range perm {
			sub[j] = pool[p]
		}
		pool = sub
	}
	type scored struct {
		idx int
		dev float64
	}
	cands := make([]scored, len(pool))
	for j, i := range pool {
		cands[j] = scored{i, math.Abs(clf.Score(features[i]) - 0.5)}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dev != cands[b].dev {
			return cands[a].dev < cands[b].dev
		}
		return cands[a].idx < cands[b].idx
	})
	if addN > len(cands) {
		addN = len(cands)
	}
	out := make([]int, addN)
	for j := 0; j < addN; j++ {
		out[j] = cands[j].idx
	}
	return out
}

// Config drives an uncertainty-sampling training loop.
type Config struct {
	Factory learn.Factory
	Rounds  int // augmentation/retraining rounds; the paper recommends 1
}

// Train labels initialIdx, fits a classifier, then runs cfg.Rounds
// augmentation steps of augmentPer objects each. It returns the final
// classifier plus all labeled indices and their labels (the training set S
// = S0 ∪ S1 ∪ …). label labels a set of distinct objects; each step's set
// is chosen before label sees it, and label's error (a cancellation, say)
// is returned as it is.
func Train(cfg Config, features [][]float64, label func([]int) ([]bool, error),
	initialIdx []int, augmentPer int, r *xrand.Rand) (learn.Classifier, []int, []bool, error) {

	if cfg.Factory == nil {
		return nil, nil, nil, fmt.Errorf("active: nil classifier factory")
	}
	if len(initialIdx) == 0 {
		return nil, nil, nil, fmt.Errorf("active: empty initial sample")
	}
	labeledSet := make(map[int]bool, len(initialIdx))
	var idx []int
	var labels []bool
	addLabeled := func(objs []int) error {
		var fresh []int
		for _, i := range objs {
			if !labeledSet[i] {
				labeledSet[i] = true
				fresh = append(fresh, i)
			}
		}
		got, err := label(fresh)
		if err != nil {
			return err
		}
		idx, labels = append(idx, fresh...), append(labels, got...)
		return nil
	}
	if err := addLabeled(initialIdx); err != nil {
		return nil, nil, nil, err
	}

	fit := func() (learn.Classifier, error) {
		X := make([][]float64, len(idx))
		for j, i := range idx {
			X[j] = features[i]
		}
		clf := cfg.Factory()
		if err := clf.Fit(X, labels); err != nil {
			return nil, err
		}
		return clf, nil
	}
	clf, err := fit()
	if err != nil {
		return nil, nil, nil, err
	}
	for round := 0; round < cfg.Rounds && augmentPer > 0; round++ {
		sel := SelectUncertain(clf, features, labeledSet, augmentPer, r)
		if len(sel) == 0 {
			break
		}
		if err := addLabeled(sel); err != nil {
			return nil, nil, nil, err
		}
		if clf, err = fit(); err != nil {
			return nil, nil, nil, err
		}
	}
	return clf, idx, labels, nil
}
