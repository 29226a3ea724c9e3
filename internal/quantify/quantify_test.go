package quantify

import (
	"math"
	"testing"

	"repro/internal/learn"
	"repro/internal/xrand"
)

// thresholdData labels x > 0 positive in one dimension.
func thresholdData(r *xrand.Rand, n int) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		v := r.Float64()*2 - 1
		X[i] = []float64{v}
		y[i] = v > 0
	}
	return X, y
}

// fixedClassifier scores by a fixed function (no training effect).
type fixedClassifier struct{ f func([]float64) float64 }

func (c *fixedClassifier) Name() string                      { return "fixed" }
func (c *fixedClassifier) Fit(X [][]float64, y []bool) error { return nil }
func (c *fixedClassifier) Score(x []float64) float64         { return c.f(x) }

func TestClassifyAndCountPerfect(t *testing.T) {
	r := xrand.New(1)
	testX, testY := thresholdData(r, 1000)
	clf := &fixedClassifier{f: func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	}}
	res := ClassifyAndCount(7, learn.ScoreAll(clf, testX))
	want := 0
	for _, b := range testY {
		if b {
			want++
		}
	}
	if res.Observed != want {
		t.Fatalf("Observed = %d, want %d", res.Observed, want)
	}
	if res.Count != float64(7+want) {
		t.Fatalf("Count = %v", res.Count)
	}
	if res.TrainPos != 7 {
		t.Fatalf("TrainPos = %d", res.TrainPos)
	}
}

func TestClassifyAndCountBiased(t *testing.T) {
	// A classifier that always says positive overcounts to |test|: the
	// failure mode QLAC repairs.
	r := xrand.New(2)
	testX, _ := thresholdData(r, 500)
	clf := &fixedClassifier{f: func([]float64) float64 { return 0.9 }}
	res := ClassifyAndCount(0, learn.ScoreAll(clf, testX))
	if res.Observed != 500 {
		t.Fatalf("Observed = %d", res.Observed)
	}
}

func TestAdjustedCountRecovers(t *testing.T) {
	// Train a real classifier on a noisy threshold task; AC should land
	// near the truth even when raw CC is biased.
	r := xrand.New(3)
	n := 400
	trainX := make([][]float64, n)
	trainY := make([]bool, n)
	for i := 0; i < n; i++ {
		v := r.Float64()*2 - 1
		trainX[i] = []float64{v}
		trainY[i] = v > 0.2 // 40% positive
		if r.Bool(0.1) {
			trainY[i] = !trainY[i]
		}
	}
	testX := make([][]float64, 2000)
	testTruth := 0
	for i := range testX {
		v := r.Float64()*2 - 1
		testX[i] = []float64{v}
		if v > 0.2 {
			testTruth++
		}
	}
	factory := func() learn.Classifier { return learn.NewKNN(7) }
	clf := factory()
	if err := clf.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	res, err := AdjustedCount(factory, trainX, trainY, learn.ScoreAll(clf, testX), 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.TPR <= res.FPR {
		t.Fatalf("tpr %v should exceed fpr %v", res.TPR, res.FPR)
	}
	relErr := math.Abs(res.Adjusted-float64(testTruth)) / float64(testTruth)
	if relErr > 0.2 {
		t.Fatalf("adjusted %v vs truth %d (rel err %v)", res.Adjusted, testTruth, relErr)
	}
}

func TestAdjustedCountClamped(t *testing.T) {
	// Degenerate rates must not produce values outside [0, |test|].
	r := xrand.New(4)
	trainX, trainY := thresholdData(r, 100)
	testX, _ := thresholdData(r, 100)
	clf := &fixedClassifier{f: func([]float64) float64 { return 0.9 }}
	factory := func() learn.Classifier { return &fixedClassifier{f: func([]float64) float64 { return 0.9 }} }
	res, err := AdjustedCount(factory, trainX, trainY, learn.ScoreAll(clf, testX), 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjusted < 0 || res.Adjusted > 100 {
		t.Fatalf("Adjusted = %v out of [0, 100]", res.Adjusted)
	}
	// Constant classifier: tpr == fpr == 1 → gap 0 → fallback to observed.
	if res.Adjusted != float64(res.Observed) {
		t.Fatalf("zero-gap fallback: adjusted %v, observed %d", res.Adjusted, res.Observed)
	}
}

func TestAdjustedCountErrors(t *testing.T) {
	r := xrand.New(5)
	clf := &fixedClassifier{f: func([]float64) float64 { return 0.5 }}
	factory := func() learn.Classifier { return clf }
	if _, err := AdjustedCount(factory, [][]float64{{1}}, []bool{true, false}, nil, 3, r); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := AdjustedCount(factory, [][]float64{{1}}, []bool{true}, nil, 3, r); err == nil {
		t.Fatal("tiny training set should error")
	}
}
