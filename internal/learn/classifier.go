// Package learn provides the classification substrate the paper takes from
// scikit-learn (§5): k-nearest-neighbors, CART decision trees, bagged random
// forests, a small multi-layer perceptron, and the random "dummy" classifier used as the worst case in §5.4.4 — all
// implemented from scratch on the standard library.
//
// Classifiers implement the scoring function g: O → [0, 1] of §3.2: Score
// returns the confidence that q(o) = 1 (1 = confidently positive, 0 =
// confidently negative, 0.5 = toss-up). Predictions threshold the score at
// 0.5.
package learn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Classifier is a trainable scorer. Fit replaces any previous state.
type Classifier interface {
	// Name identifies the algorithm (for experiment reports).
	Name() string
	// Fit trains on feature rows X with binary labels y.
	Fit(X [][]float64, y []bool) error
	// Score returns g(x) ∈ [0, 1], the confidence that the label is 1.
	Score(x []float64) float64
}

// BatchScorer is implemented by classifiers that can score many rows at
// once, amortizing per-call dispatch and enabling cache-friendly layouts
// and internal parallelism. ScoreBatch writes one score per row into out
// (len(out) ≥ len(X)), bit-equal to calling Score on that row.
type BatchScorer interface {
	ScoreBatch(X [][]float64, out []float64)
}

// ScoreAll scores every row of X into a new slice (ScoreInto).
func ScoreAll(c Classifier, X [][]float64) []float64 {
	return ScoreInto(c, X, make([]float64, len(X)))
}

// ScoreInto scores every row of X into out[:len(X)] and returns that
// slice, using the classifier's batch path when it has one and falling
// back to per-row Score calls otherwise.
func ScoreInto(c Classifier, X [][]float64, out []float64) []float64 {
	out = out[:len(X)]
	if bs, ok := c.(BatchScorer); ok {
		bs.ScoreBatch(X, out)
		return out
	}
	for i, x := range X {
		out[i] = c.Score(x)
	}
	return out
}

// Predict thresholds a classifier score at 0.5.
func Predict(c Classifier, x []float64) bool { return c.Score(x) >= 0.5 }

// Factory builds fresh classifier instances, needed wherever independent
// retraining happens (cross-validation, per-trial experiments).
type Factory func() Classifier

func validateFit(X [][]float64, y []bool) error {
	if len(X) == 0 {
		return fmt.Errorf("learn: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("learn: %d rows but %d labels", len(X), len(y))
	}
	d := len(X[0])
	if d == 0 {
		return fmt.Errorf("learn: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("learn: row %d has %d features, want %d", i, len(row), d)
		}
	}
	return nil
}

// Scaler standardizes features to zero mean and unit variance; constant
// features pass through unchanged. The zero value is unfitted.
type Scaler struct {
	mean, std []float64
}

// Fit computes per-feature statistics.
func (s *Scaler) Fit(X [][]float64) {
	if len(X) == 0 {
		return
	}
	d := len(X[0])
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.mean[j]
			s.std[j] += dv * dv
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
}

// Transform standardizes one row (allocating a new slice).
func (s *Scaler) Transform(x []float64) []float64 {
	if s.mean == nil {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// TransformAll standardizes a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Metrics summarizes binary classification quality on a labeled set.
type Metrics struct {
	Accuracy float64
	TPR      float64 // true positive rate (recall)
	FPR      float64 // false positive rate
	AUC      float64 // area under the ROC curve
	TP, FP   int
	TN, FN   int
}

// EvaluateScores computes Metrics from precomputed scores.
func EvaluateScores(scores []float64, y []bool) Metrics {
	var m Metrics
	for i, s := range scores {
		pred := s >= 0.5
		switch {
		case pred && y[i]:
			m.TP++
		case pred && !y[i]:
			m.FP++
		case !pred && y[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	total := m.TP + m.FP + m.TN + m.FN
	if total > 0 {
		m.Accuracy = float64(m.TP+m.TN) / float64(total)
	}
	if m.TP+m.FN > 0 {
		m.TPR = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.FP+m.TN > 0 {
		m.FPR = float64(m.FP) / float64(m.FP+m.TN)
	}
	m.AUC = auc(scores, y)
	return m
}

// auc computes the ROC AUC via the rank-sum (Mann-Whitney) statistic with
// midrank tie handling.
func auc(scores []float64, y []bool) float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2 // average 1-based rank
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	var rankSum float64
	nPos, nNeg := 0, 0
	for i, lbl := range y {
		if lbl {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// KFoldRates estimates the true and false positive rates of the classifier
// family by k-fold cross-validation on (X, y) — the t̂pr/f̂pr inputs of the
// Adjusted Count estimator (§3.2). Folds are assigned by a random
// permutation drawn from r.
func KFoldRates(factory Factory, X [][]float64, y []bool, k int, r *xrand.Rand) (tpr, fpr float64, err error) {
	n := len(X)
	if n < 2 {
		return 0, 0, fmt.Errorf("learn: need at least 2 samples for cross-validation")
	}
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	tp, fn, fp, tn := 0, 0, 0, 0
	for fold := 0; fold < k; fold++ {
		lo := fold * n / k
		hi := (fold + 1) * n / k
		var trX [][]float64
		var trY []bool
		var teIdx []int
		for i, p := range perm {
			if i >= lo && i < hi {
				teIdx = append(teIdx, p)
			} else {
				trX = append(trX, X[p])
				trY = append(trY, y[p])
			}
		}
		if len(trX) == 0 || len(teIdx) == 0 {
			continue
		}
		c := factory()
		if err := c.Fit(trX, trY); err != nil {
			return 0, 0, err
		}
		for _, i := range teIdx {
			pred := Predict(c, X[i])
			switch {
			case pred && y[i]:
				tp++
			case !pred && y[i]:
				fn++
			case pred && !y[i]:
				fp++
			default:
				tn++
			}
		}
	}
	if tp+fn > 0 {
		tpr = float64(tp) / float64(tp+fn)
	}
	if fp+tn > 0 {
		fpr = float64(fp) / float64(fp+tn)
	}
	return tpr, fpr, nil
}
