package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/active"
	"repro/internal/learn"
	"repro/internal/sample"
	"repro/internal/xrand"
)

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

// learned is what the learn step hands a method: the fitted classifier g,
// the learn sample SL with its labels and positive count, the objects
// outside SL (in index order until order is called) with their scores, and
// the phase's report.
type learned struct {
	newClf  NewClassifierFunc // the constructor g came from, resolved
	SL      []int
	labels  []bool
	pos     int
	restIdx []int
	scores  []float64
	timing  Timing // Learn, Fit, Score
	info    LearnInfo
}

// learn is the shared first phase of the learned methods (§4, and §3.2's
// quantifiers): label n objects — all of them drawn at random, or with
// augment an augmentFrac share chosen by uncertainty sampling over rounds
// retrainings (§3.2; 0 means 1) — fit a classifier from newClf (nil means
// DefaultForest) and score every object outside the sample. Cancellation is
// checked before every label.
func (f frame) learn(newClf NewClassifierFunc, n int, augment bool, rounds int, r *xrand.Rand) (l learned, err error) {
	if newClf == nil {
		newClf = DefaultForest
	}
	if n < 2 {
		return l, fmt.Errorf("core: learn budget %d too small", n)
	}
	t0 := time.Now()
	var fit time.Duration
	factory := func() learn.Classifier { return fitTimed{newClf(r.Uint64()), &fit} }
	var clf learn.Classifier
	if augment {
		if rounds <= 0 {
			rounds = 1
		}
		nAug := int(math.Round(augmentFrac * float64(n)))
		if nAug >= n {
			nAug = n / 2
		}
		perRound := nAug / rounds
		initial := n - perRound*rounds
		if initial < 2 {
			initial = 2
		}
		initIdx := sample.SRS(r, f.obj.N(), initial)
		clf, l.SL, l.labels, err = active.Train(f.ctx, active.Config{Factory: factory, Rounds: rounds},
			f.obj.Features, f.pred, initIdx, perRound, r)
		if err != nil {
			return l, err
		}
		clf = clf.(fitTimed).Classifier
	} else {
		l.SL = sample.SRS(r, f.obj.N(), n)
		if l.labels, err = f.label(l.SL); err != nil {
			return l, err
		}
		X := make([][]float64, len(l.SL))
		for j, i := range l.SL {
			X[j] = f.obj.Features[i]
		}
		timed := factory()
		if err = timed.Fit(X, l.labels); err != nil {
			return l, err
		}
		clf = timed.(fitTimed).Classifier
	}
	l.newClf, l.pos = newClf, countPositives(l.labels)
	l.restIdx, l.scores, l.timing.Score = scoreRest(f.obj, clf, l.SL)
	l.timing.Learn, l.timing.Fit = time.Since(t0), fit
	// Sized after scoring: the scoring path is that of the latest batch.
	trees, nodes := learn.ForestSize(clf)
	l.info = LearnInfo{TrainRows: len(l.SL), Scored: len(l.restIdx), Trees: trees, Nodes: nodes, Score: learn.ForestScorePath(clf)}
	return l, nil
}

// order sorts the rest ascending by score — LSS's and the grouped plan's
// strata are runs of that order — and books the sort to the learn phase.
func (l *learned) order() {
	t0 := time.Now()
	orderByScore(l.restIdx, l.scores)
	l.timing.Learn += time.Since(t0)
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
