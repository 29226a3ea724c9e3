package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/active"
	"repro/internal/estimate"
	"repro/internal/learn"
	"repro/internal/par"
	"repro/internal/sample"
	"repro/internal/xrand"
)

// fitTimed adds the time spent inside Fit to *dur — the classifier's
// counterpart of the time frame.label books to q — for a phase whose fits
// (one, or one per active-learning round) happen behind a factory.
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
// the phase's report. restIdx and scores live in buf, which the method
// hands back with release when it returns: nothing it keeps may alias them.
type learned struct {
	newClf  NewClassifierFunc // the constructor g came from, resolved
	SL      []int
	labels  []bool
	pos     int
	restIdx []int
	scores  []float64
	buf     *restBuffers
	timing  Timing // Learn, Fit, Score
	info    LearnInfo
}

// restBuffers is the scratch of scoreRest: the learn sample's membership
// bitmap, the rest's indices and every object's score.
type restBuffers struct {
	inSL   []bool
	rest   []int
	scores []float64
}

var restScratch = par.NewFreeList((*restBuffers).bytes)

func (b *restBuffers) bytes() int { return cap(b.inSL) + 8*(cap(b.rest)+cap(b.scores)) }

// release hands l's rest and scores back to restScratch.
func (l *learned) release() {
	restScratch.Put(l.buf)
	l.buf, l.restIdx, l.scores = nil, nil, nil
}

// learn is the shared first phase of the learned methods (§4, and §3.2's
// quantifiers): label n objects — all of them drawn at random, or with
// augment an augmentFrac share chosen by uncertainty sampling after one
// retraining (§3.2) — fit a classifier from newClf (nil means
// DefaultForest) and score every object outside the sample. Cancellation is
// checked before every label.
func (f *frame) learn(newClf NewClassifierFunc, n int, augment bool, r *xrand.Rand) (l learned, err error) {
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
		nAug := int(math.Round(augmentFrac * float64(n)))
		if nAug >= n {
			nAug = n / 2
		}
		initial := max(n-nAug, 2)
		initIdx := sample.SRS(r, f.obj.N(), initial)
		clf, l.SL, l.labels, err = active.Train(active.Config{Factory: factory, Rounds: 1},
			f.obj.Features, f.label, initIdx, nAug, r)
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
	l.newClf, l.pos = newClf, estimate.Positives(l.labels)
	l.buf = restScratch.Get()
	l.restIdx, l.scores, l.timing.Score = scoreRest(f.obj, clf, l.SL, l.buf)
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
// in index order, with their scores, both on buf's arrays. Scoring goes
// through the classifier's batch path when it has one — for the default
// random forest one pass over obj.Features as they are, so every object is
// scored and the labeled ones' scores dropped: compacting in place
// (restIdx[j] >= j) costs nothing, where gathering the unlabeled rows first
// copied a slice header per object. dur is the time the pass took: the
// learn phase's per-object cost (Timing.Score).
func scoreRest(obj *ObjectSet, clf learn.Classifier, labeled []int, buf *restBuffers) (restIdx []int, scores []float64, dur time.Duration) {
	t0 := time.Now()
	N := obj.N()
	inSL := slices.Grow(buf.inSL[:0], N)[:N]
	clear(inSL)
	for _, i := range labeled {
		inSL[i] = true
	}
	restIdx = slices.Grow(buf.rest[:0], N)
	for i := 0; i < N; i++ {
		if !inSL[i] {
			restIdx = append(restIdx, i)
		}
	}
	scores = learn.ScoreInto(clf, obj.Features, slices.Grow(buf.scores[:0], N))
	for j, i := range restIdx {
		scores[j] = scores[i]
	}
	buf.inSL, buf.rest, buf.scores = inSL, restIdx, scores
	return restIdx, scores[:len(restIdx)], time.Since(t0)
}

// orderByScore sorts rest indices (and scores) ascending by score, ties by
// index; -0 and +0 tie, every NaN sorts after every number, and each score
// keeps its bits. It is a stable least-significant-digit radix sort over
// scoreKey, 11 bits a pass, and a digit every key shares costs no pass.
// When restIdx is not ascending the same passes first order it by index.
// Both buffers come from sortScratch, so a sort that finds a large enough
// set there allocates nothing.
func orderByScore(restIdx []int, scores []float64) {
	if len(restIdx) < 2 {
		return
	}
	buf := sortScratch.Get()
	defer sortScratch.Put(buf)
	if cap(buf.a) < len(restIdx) {
		buf.a, buf.b = make([]keyed, len(restIdx)), make([]keyed, len(restIdx))
	}
	a, b := buf.a[:len(restIdx)], buf.b[:len(restIdx)]
	for i, idx := range restIdx {
		a[i] = keyed{uint64(idx) ^ 1<<63, idx, scores[i]} // signed order
	}
	if !slices.IsSorted(restIdx) {
		a, b = radixSort(a, b)
	}
	for i := range a {
		a[i].key = scoreKey(a[i].score)
	}
	a, _ = radixSort(a, b)
	for i, e := range a {
		restIdx[i], scores[i] = e.idx, e.score
	}
}

// keyed is one object in the score sort: the key of the current pass set,
// and what the sort moves.
type keyed struct {
	key   uint64
	idx   int
	score float64
}

type sortBuffers struct{ a, b []keyed }

var sortScratch = par.NewFreeList((*sortBuffers).bytes)

func (b *sortBuffers) bytes() int { return 24 * (cap(b.a) + cap(b.b)) }

// scoreKey maps a score to a key whose unsigned order is the scores'
// order: -0 and +0 share the key of 0, and every NaN has the largest.
func scoreKey(s float64) uint64 {
	switch {
	case s != s:
		return math.MaxUint64
	case s == 0:
		return 1 << 63
	}
	b := math.Float64bits(s)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort stably sorts a by key with b as the other buffer and returns
// the sorted buffer first.
func radixSort(a, b []keyed) ([]keyed, []keyed) {
	const bits, digits = 11, (64 + 10) / 11
	var count [digits][1 << bits]uint32
	for _, e := range a {
		k := e.key
		count[0][k&(1<<bits-1)]++
		count[1][k>>bits&(1<<bits-1)]++
		count[2][k>>(2*bits)&(1<<bits-1)]++
		count[3][k>>(3*bits)&(1<<bits-1)]++
		count[4][k>>(4*bits)&(1<<bits-1)]++
		count[5][k>>(5*bits)]++
	}
	for d := range count {
		c, shift := &count[d], uint(d*bits)
		if c[a[0].key>>shift&(1<<bits-1)] == uint32(len(a)) {
			continue
		}
		sum := uint32(0)
		for v, n := range c {
			c[v], sum = sum, sum+n
		}
		for _, e := range a {
			v := e.key >> shift & (1<<bits - 1)
			b[c[v]] = e
			c[v]++
		}
		a, b = b, a
	}
	return a, b
}
