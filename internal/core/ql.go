package core

import (
	"context"
	"time"

	"repro/internal/learn"
	"repro/internal/quantify"
	"repro/internal/xrand"
)

// QLCC is the Classify-and-Count baseline (§3.2): spend the whole budget on
// a labeled training sample, train a classifier, and count its positive
// predictions over the unlabeled objects. No confidence interval.
type QLCC struct {
	NewClassifier NewClassifierFunc
	Augment       bool // label augmentFrac of the budget by uncertainty sampling
}

// Name implements Method.
func (m *QLCC) Name() string { return "qlcc" }

// Estimate implements Method.
func (m *QLCC) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	return quantified(ctx, obj, budget, r, m.Name(), m.NewClassifier, m.Augment,
		func(l *learned) (quantify.Result, error) { return quantify.ClassifyAndCount(l.pos, l.scores), nil })
}

// QLAC is the Adjusted Count baseline (§3.2): QLCC corrected by true/false
// positive rates cross-validated over acFolds folds (eq. 2). No confidence
// interval; occasionally produces extreme estimates when t̂pr ≈ f̂pr.
type QLAC struct {
	NewClassifier NewClassifierFunc
	Augment       bool // label augmentFrac of the budget by uncertainty sampling
}

// Name implements Method.
func (m *QLAC) Name() string { return "qlac" }

// Estimate implements Method.
func (m *QLAC) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	return quantified(ctx, obj, budget, r, m.Name(), m.NewClassifier, m.Augment,
		func(l *learned) (quantify.Result, error) {
			trainX := make([][]float64, len(l.SL))
			for j, i := range l.SL {
				trainX[j] = obj.Features[i]
			}
			factory := func() learn.Classifier { return l.newClf(r.Uint64()) }
			return quantify.AdjustedCount(factory, trainX, l.labels, l.scores, acFolds, r)
		})
}

// quantified is the body of both §3.2 baselines: the whole budget is the
// learn sample, and count reads the estimate off the scores of the rest.
// That scoring pass is the count itself, so it is booked to the Sample phase
// rather than the learn phase, whose report says it scored nothing.
func quantified(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand, name string,
	newClf NewClassifierFunc, augment bool, count func(*learned) (quantify.Result, error)) (*Result, error) {

	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)
	l, err := f.learn(newClf, budget, augment, r)
	if err != nil {
		return nil, err
	}
	defer l.release()
	t0 := time.Now()
	res, err := count(&l)
	if err != nil {
		return nil, err
	}
	timing := Timing{Learn: l.timing.Learn - l.timing.Score, Fit: l.timing.Fit, Sample: l.timing.Score + time.Since(t0)}
	info := l.info
	info.Scored = 0
	return f.result(name, Result{Estimate: res.Count, Timing: timing, Learn: info}), nil
}
