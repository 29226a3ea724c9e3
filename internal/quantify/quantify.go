// Package quantify implements the quantification-learning baselines of
// §3.2: Classify-and-Count (QLCC) and Adjusted Count (QLAC). Both return a
// count estimate without a confidence interval — the accuracy depends
// entirely on the learned classifier, which is the weakness the paper's
// learn-to-sample methods repair.
package quantify

import (
	"fmt"

	"repro/internal/learn"
	"repro/internal/xrand"
)

// Result is a quantification-learning estimate of C(O, q).
type Result struct {
	Count    float64 // estimated total count (train positives + test estimate)
	TrainPos int     // C_S: exact positives among labeled training objects
	Observed int     // C_obs: classifier-predicted positives on test objects
	Adjusted float64 // adjusted test-count (AC only; CC copies Observed)
	TPR, FPR float64 // cross-validated rate estimates (AC only)
}

// ClassifyAndCount is QLCC: count the classifier's positive predictions over
// the test objects and add the known training positives. scores holds the
// classifier's score of each test object — the caller scores them once,
// through the batch path where there is one (a BatchScorer returns exactly
// Score(x) per row, so the count is the one learn.Predict would give object
// by object).
func ClassifyAndCount(trainPos int, scores []float64) Result {
	obs := 0
	for _, s := range scores {
		if s >= 0.5 {
			obs++
		}
	}
	return Result{
		Count:    float64(trainPos + obs),
		TrainPos: trainPos,
		Observed: obs,
		Adjusted: float64(obs),
	}
}

// AdjustedCount is QLAC: adjust the observed count using true/false
// positive rates estimated by k-fold cross-validation on the training set
// (eq. 2):
//
//	C_adj = (C_obs − f̂pr·|test|) / (t̂pr − f̂pr)
//
// When the rate gap |t̂pr − f̂pr| is numerically negligible the adjustment
// is undefined; we fall back to the observed count (classify-and-count),
// which matches the recommended practice. The adjusted count is clamped to
// [0, |test|] — the estimate is a count of test objects. scores holds the
// trained classifier's score of each test object, as for ClassifyAndCount.
func AdjustedCount(factory learn.Factory, trainX [][]float64, trainY []bool, scores []float64,
	folds int, r *xrand.Rand) (Result, error) {

	if len(trainX) != len(trainY) {
		return Result{}, fmt.Errorf("quantify: %d training rows, %d labels", len(trainX), len(trainY))
	}
	trainPos := 0
	for _, b := range trainY {
		if b {
			trainPos++
		}
	}
	res := ClassifyAndCount(trainPos, scores)

	tpr, fpr, err := learn.KFoldRates(factory, trainX, trainY, folds, r)
	if err != nil {
		return Result{}, fmt.Errorf("quantify: estimating rates: %w", err)
	}
	res.TPR, res.FPR = tpr, fpr

	const minGap = 1e-9
	gap := tpr - fpr
	adj := float64(res.Observed)
	if gap > minGap || gap < -minGap {
		adj = (float64(res.Observed) - fpr*float64(len(scores))) / gap
	}
	if adj < 0 {
		adj = 0
	}
	if max := float64(len(scores)); adj > max {
		adj = max
	}
	res.Adjusted = adj
	res.Count = float64(trainPos) + adj
	return res, nil
}
