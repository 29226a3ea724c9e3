package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/active"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/xrand"
)

// learnOptions configures the shared first phase of the learned methods
// (§4): draw and label SL, optionally augment by uncertainty sampling, and
// train a classifier.
type learnOptions struct {
	newClf      NewClassifierFunc
	augment     bool
	augmentFrac float64 // fraction of the learn budget spent on augmentation
	rounds      int     // augmentation rounds (default 1, per §3.2)
	poolCap     int
}

func (o learnOptions) normalized() learnOptions {
	if o.augmentFrac <= 0 || o.augmentFrac >= 1 {
		o.augmentFrac = 0.1
	}
	if o.rounds <= 0 {
		o.rounds = 1
	}
	return o
}

// runLearnPhase labels nLearn objects and trains a classifier on them.
// It returns the classifier, the labeled indices SL, and their labels.
// Cancellation of ctx is checked before every label.
func runLearnPhase(ctx context.Context, obj *ObjectSet, pred predicate.Predicate, nLearn int,
	opt learnOptions, r *xrand.Rand) (learn.Classifier, []int, []bool, error) {

	if opt.newClf == nil {
		return nil, nil, nil, fmt.Errorf("core: nil classifier constructor")
	}
	if nLearn < 2 {
		return nil, nil, nil, fmt.Errorf("core: learn budget %d too small", nLearn)
	}
	opt = opt.normalized()
	factory := func() learn.Classifier { return opt.newClf(r.Uint64()) }

	if opt.augment {
		nAug := int(math.Round(opt.augmentFrac * float64(nLearn)))
		if nAug >= nLearn {
			nAug = nLearn / 2
		}
		perRound := nAug / opt.rounds
		initial := nLearn - perRound*opt.rounds
		if initial < 2 {
			initial = 2
		}
		initIdx := sample.SRS(r, obj.N(), initial)
		clf, idx, labels, err := active.Train(ctx, active.Config{
			Factory: factory,
			Rounds:  opt.rounds,
			PoolCap: opt.poolCap,
		}, obj.Features, pred, initIdx, perRound, r)
		if err != nil {
			return nil, nil, nil, err
		}
		return clf, idx, labels, nil
	}

	idx := sample.SRS(r, obj.N(), nLearn)
	labels, err := predicate.Label(pred, idx, canceled(ctx))
	if err != nil {
		return nil, nil, nil, err
	}
	X := make([][]float64, len(idx))
	for j, i := range idx {
		X[j] = obj.Features[i]
	}
	clf := factory()
	if err := clf.Fit(X, labels); err != nil {
		return nil, nil, nil, err
	}
	return clf, idx, labels, nil
}

// restOf returns the indices of the objects outside the labeled set, in
// index order, and their feature rows. Membership uses a []bool bitmap
// (indices are dense in [0, N)).
func restOf(obj *ObjectSet, labeled []int) (restIdx []int, restX [][]float64) {
	inSL := make([]bool, obj.N())
	for _, i := range labeled {
		inSL[i] = true
	}
	restIdx = make([]int, 0, obj.N()-len(labeled))
	for i := 0; i < obj.N(); i++ {
		if !inSL[i] {
			restIdx = append(restIdx, i)
		}
	}
	restX = make([][]float64, len(restIdx))
	for j, i := range restIdx {
		restX[j] = obj.Features[i]
	}
	return restIdx, restX
}

// scoreRest scores every object outside the labeled set and returns the
// remaining object indices with their scores. Scoring goes through the
// classifier's batch path when it has one — for the default random forest
// that means one cache-friendly, parallel pass instead of N interface
// calls.
func scoreRest(obj *ObjectSet, clf learn.Classifier, labeled []int) (restIdx []int, scores []float64) {
	restIdx, restX := restOf(obj, labeled)
	return restIdx, learn.ScoreAll(clf, restX)
}

// byScoreThenIndex sorts restIdx and scores together, ascending by score
// with index tie-breaking. The (score, index) key is a strict total order,
// so the unstable sort.Sort is fully deterministic.
type byScoreThenIndex struct {
	idx    []int
	scores []float64
}

func (s byScoreThenIndex) Len() int { return len(s.idx) }

func (s byScoreThenIndex) Less(a, b int) bool {
	if s.scores[a] != s.scores[b] {
		return s.scores[a] < s.scores[b]
	}
	return s.idx[a] < s.idx[b]
}

func (s byScoreThenIndex) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.scores[a], s.scores[b] = s.scores[b], s.scores[a]
}

// orderByScore sorts rest indices (and scores) ascending by score, with
// index tie-breaking for determinism. Sorting the two slices in place
// through a concrete sort.Interface avoids the permutation buffer, the two
// scratch slices, and the per-comparison closure dispatch of the previous
// sort.SliceStable implementation.
func orderByScore(restIdx []int, scores []float64) {
	sort.Sort(byScoreThenIndex{idx: restIdx, scores: scores})
}
