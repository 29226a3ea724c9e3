package core

import (
	"testing"

	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/xrand"
)

// benchObjects builds an N-object instance with a trained default forest,
// mirroring the state scoreRest sees inside every learned method.
func benchObjects(b *testing.B, n int) (*ObjectSet, learn.Classifier, []int) {
	b.Helper()
	r := xrand.New(9)
	features := make([][]float64, n)
	labels := make([]bool, n)
	for i := range features {
		x, y := r.NormFloat64(), r.NormFloat64()
		features[i] = []float64{x, y}
		labels[i] = x*x+y*y < 1.5
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		b.Fatal(err)
	}
	nLearn := 200
	SL := make([]int, nLearn)
	X := make([][]float64, nLearn)
	y := make([]bool, nLearn)
	for j := 0; j < nLearn; j++ {
		i := r.IntN(n)
		SL[j] = i
		X[j] = features[i]
		y[j] = labels[i]
	}
	clf := learn.NewRandomForest(100, 5)
	if err := clf.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return obj, clf, SL
}

// BenchmarkScoreRest measures the shared learn-phase scoring pass (batch
// path for the forest, []bool membership bitmap) on buffers a count would
// take back off restScratch.
func BenchmarkScoreRest(b *testing.B) {
	obj, clf, SL := benchObjects(b, 20000)
	buf := new(restBuffers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = scoreRest(obj, clf, SL, buf)
	}
}

// BenchmarkOrderByScore measures the score-order sort on a scored rest set.
func BenchmarkOrderByScore(b *testing.B) {
	obj, clf, SL := benchObjects(b, 20000)
	restIdx, scores, _ := scoreRest(obj, clf, SL, new(restBuffers))
	idxCopy := make([]int, len(restIdx))
	scoreCopy := make([]float64, len(scores))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(idxCopy, restIdx)
		copy(scoreCopy, scores)
		orderByScore(idxCopy, scoreCopy)
	}
}
