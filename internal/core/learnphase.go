package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

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

// fitTimed adds the time spent inside Fit to *dur — the classifier's
// counterpart of predicate.Timed, for a phase whose fits (one, or one per
// active-learning round) happen behind a factory.
type fitTimed struct {
	learn.Classifier
	dur *time.Duration
}

func (c fitTimed) Fit(X [][]float64, y []bool) error {
	t0 := time.Now()
	err := c.Classifier.Fit(X, y)
	*c.dur += time.Since(t0)
	return err
}

// runLearnPhase labels nLearn objects and trains a classifier on them.
// It returns the classifier, the labeled indices SL, their labels, and the
// time spent inside Classifier.Fit. Cancellation of ctx is checked before
// every label.
func runLearnPhase(ctx context.Context, obj *ObjectSet, pred predicate.Predicate, nLearn int,
	opt learnOptions, r *xrand.Rand) (learn.Classifier, []int, []bool, time.Duration, error) {

	if opt.newClf == nil {
		return nil, nil, nil, 0, fmt.Errorf("core: nil classifier constructor")
	}
	if nLearn < 2 {
		return nil, nil, nil, 0, fmt.Errorf("core: learn budget %d too small", nLearn)
	}
	opt = opt.normalized()
	var fit time.Duration
	factory := func() learn.Classifier { return fitTimed{opt.newClf(r.Uint64()), &fit} }

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
			return nil, nil, nil, 0, err
		}
		return clf.(fitTimed).Classifier, idx, labels, fit, nil
	}

	idx := sample.SRS(r, obj.N(), nLearn)
	labels, err := predicate.Label(pred, idx, canceled(ctx))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	X := make([][]float64, len(idx))
	for j, i := range idx {
		X[j] = obj.Features[i]
	}
	clf := factory()
	if err := clf.Fit(X, labels); err != nil {
		return nil, nil, nil, 0, err
	}
	return clf.(fitTimed).Classifier, idx, labels, fit, nil
}

// learnInfo sizes a finished learn phase for Result.Learn. Call it after
// the classifier has scored: the scoring path is that of its latest batch.
func learnInfo(clf learn.Classifier, trainRows, scored int) LearnInfo {
	trees, nodes := learn.ForestSize(clf)
	return LearnInfo{TrainRows: trainRows, Scored: scored, Trees: trees, Nodes: nodes, Score: learn.ForestScorePath(clf)}
}

// scoreRest scores the objects and returns those outside the labeled set,
// in index order, with their scores. Scoring goes through the
// classifier's batch path when it has one — for the default random forest
// one pass over obj.Features as they are, so every object is scored and
// the labeled ones' scores dropped: compacting in place (restIdx[j] >= j)
// costs nothing, where gathering the unlabeled rows first copied a slice
// header per object. dur is the time the pass took: the learn phase's
// per-object cost (Timing.Score).
func scoreRest(obj *ObjectSet, clf learn.Classifier, labeled []int) (restIdx []int, scores []float64, dur time.Duration) {
	t0 := time.Now()
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
	scores = learn.ScoreAll(clf, obj.Features)
	for j, i := range restIdx {
		scores[j] = scores[i]
	}
	return restIdx, scores[:len(restIdx)], time.Since(t0)
}

// orderByScore sorts rest indices (and scores) ascending by score, with
// index tie-breaking: (score, index) is a strict total order, so the
// unstable sort is fully deterministic. The two slices are packed into one
// for the sort — one comparison reads one cache line and one swap moves one
// element, where sorting the pair in place through sort.Interface paid two
// of each plus an interface call.
func orderByScore(restIdx []int, scores []float64) {
	type scored struct {
		score float64
		idx   int
	}
	packed := make([]scored, len(restIdx))
	for i, idx := range restIdx {
		packed[i] = scored{scores[i], idx}
	}
	slices.SortFunc(packed, func(a, b scored) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i, p := range packed {
		restIdx[i], scores[i] = p.idx, p.score
	}
}
