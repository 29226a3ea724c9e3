package core

import (
	"context"
	"time"

	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/quantify"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// QLCC is the Classify-and-Count baseline (§3.2): spend the whole budget on
// a labeled training sample, train a classifier, and count its positive
// predictions over the unlabeled objects. No confidence interval.
type QLCC struct {
	NewClassifier NewClassifierFunc
	Augment       bool
	AugmentFrac   float64
	Rounds        int
	PoolCap       int
}

// Name implements Method.
func (m *QLCC) Name() string { return "qlcc" }

// Estimate implements Method.
func (m *QLCC) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	newClf := m.NewClassifier
	if newClf == nil {
		newClf = DefaultForest
	}
	t0 := time.Now()
	clf, SL, labels, fitDur, err := runLearnPhase(ctx, obj, tp, budget, learnOptions{
		newClf:      newClf,
		augment:     m.Augment,
		augmentFrac: m.AugmentFrac,
		rounds:      m.Rounds,
		poolCap:     m.PoolCap,
	}, r)
	if err != nil {
		return nil, err
	}
	learnDur := time.Since(t0)

	t1 := time.Now()
	_, scores, _ := scoreRest(obj, clf, SL)
	res := quantify.ClassifyAndCount(countPositives(labels), scores)
	return &Result{
		Method:   m.Name(),
		Estimate: res.Count,
		CI:       stats.Interval{},
		HasCI:    false,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Learn: learnDur, Fit: fitDur, Sample: time.Since(t1), Predicate: tp.Dur},
		Learn:    learnInfo(clf, len(SL), 0),
	}, nil
}

// QLAC is the Adjusted Count baseline (§3.2): QLCC corrected by
// cross-validated true/false positive rates (eq. 2). No confidence
// interval; occasionally produces extreme estimates when t̂pr ≈ f̂pr.
type QLAC struct {
	NewClassifier NewClassifierFunc
	Folds         int // cross-validation folds; 0 means 5
	Augment       bool
	AugmentFrac   float64
	Rounds        int
	PoolCap       int
}

// Name implements Method.
func (m *QLAC) Name() string { return "qlac" }

func (m *QLAC) folds() int {
	if m.Folds < 2 {
		return 5
	}
	return m.Folds
}

// Estimate implements Method.
func (m *QLAC) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	newClf := m.NewClassifier
	if newClf == nil {
		newClf = DefaultForest
	}
	t0 := time.Now()
	clf, SL, labels, fitDur, err := runLearnPhase(ctx, obj, tp, budget, learnOptions{
		newClf:      newClf,
		augment:     m.Augment,
		augmentFrac: m.AugmentFrac,
		rounds:      m.Rounds,
		poolCap:     m.PoolCap,
	}, r)
	if err != nil {
		return nil, err
	}
	learnDur := time.Since(t0)

	t1 := time.Now()
	_, scores, _ := scoreRest(obj, clf, SL)
	trainX := make([][]float64, len(SL))
	for j, i := range SL {
		trainX[j] = obj.Features[i]
	}
	factory := func() learn.Classifier { return newClf(r.Uint64()) }
	res, err := quantify.AdjustedCount(factory, trainX, labels, scores, m.folds(), r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:   m.Name(),
		Estimate: res.Count,
		CI:       stats.Interval{},
		HasCI:    false,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Learn: learnDur, Fit: fitDur, Sample: time.Since(t1), Predicate: tp.Dur},
		Learn:    learnInfo(clf, len(SL), 0),
	}, nil
}
