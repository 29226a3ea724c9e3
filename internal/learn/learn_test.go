package learn

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// circleData labels points inside a radius-r circle positive — a smooth
// nonlinear boundary every competent classifier should learn.
func circleData(r *xrand.Rand, n int, radius float64) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x1 := r.Float64()*4 - 2
		x2 := r.Float64()*4 - 2
		X[i] = []float64{x1, x2}
		y[i] = x1*x1+x2*x2 <= radius*radius
	}
	return X, y
}

func trainEval(t *testing.T, c Classifier, trainN, testN int) Metrics {
	t.Helper()
	r := xrand.New(42)
	X, y := circleData(r, trainN, 1.2)
	if err := c.Fit(X, y); err != nil {
		t.Fatalf("%s Fit: %v", c.Name(), err)
	}
	Xt, yt := circleData(r, testN, 1.2)
	return evaluate(c, Xt, yt)
}

// evaluate computes Metrics of c over a labeled set.
func evaluate(c Classifier, X [][]float64, y []bool) Metrics {
	scores := make([]float64, len(X))
	for i, x := range X {
		scores[i] = c.Score(x)
	}
	return EvaluateScores(scores, y)
}

func TestKNNLearnsCircle(t *testing.T) {
	m := trainEval(t, NewKNN(5), 800, 400)
	if m.Accuracy < 0.9 {
		t.Fatalf("kNN accuracy = %v, want ≥ 0.9", m.Accuracy)
	}
	if m.AUC < 0.9 {
		t.Fatalf("kNN AUC = %v", m.AUC)
	}
}

func TestDecisionTreeLearnsCircle(t *testing.T) {
	m := trainEval(t, NewDecisionTree(8), 800, 400)
	if m.Accuracy < 0.85 {
		t.Fatalf("tree accuracy = %v, want ≥ 0.85", m.Accuracy)
	}
}

func TestRandomForestLearnsCircle(t *testing.T) {
	m := trainEval(t, NewRandomForest(30, 7), 800, 400)
	if m.Accuracy < 0.9 {
		t.Fatalf("forest accuracy = %v, want ≥ 0.9", m.Accuracy)
	}
}

func TestMLPLearnsCircle(t *testing.T) {
	m := trainEval(t, NewMLP(7), 800, 400)
	// A (5,2) sigmoid net is weak but must clearly beat chance on a circle.
	if m.Accuracy < 0.75 {
		t.Fatalf("MLP accuracy = %v, want ≥ 0.75", m.Accuracy)
	}
}

func TestDummyIsChance(t *testing.T) {
	r := xrand.New(2)
	X, y := circleData(r, 500, 1.2)
	c := NewDummy(5)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	m := evaluate(c, X, y)
	if m.AUC < 0.4 || m.AUC > 0.6 {
		t.Fatalf("dummy AUC = %v, want ≈ 0.5", m.AUC)
	}
	// Scores must be deterministic per input.
	if c.Score(X[0]) != c.Score(X[0]) {
		t.Fatal("dummy score not deterministic")
	}
	// And roughly uniform.
	var lo, hi int
	for _, x := range X {
		s := c.Score(x)
		if s < 0 || s >= 1 {
			t.Fatalf("dummy score %v out of [0,1)", s)
		}
		if s < 0.5 {
			lo++
		} else {
			hi++
		}
	}
	if lo < len(X)/4 || hi < len(X)/4 {
		t.Fatalf("dummy scores skewed: %d low vs %d high", lo, hi)
	}
}

func TestClassifierRanking(t *testing.T) {
	// The paper's quality ordering on a nonlinear task: forest and kNN
	// must beat the dummy decisively; MLP in between.
	accs := map[string]float64{}
	for _, c := range []Classifier{NewKNN(5), NewRandomForest(30, 3), NewMLP(3), NewDummy(3)} {
		m := trainEval(t, c, 600, 300)
		accs[c.Name()] = m.Accuracy
	}
	if accs["forest"] <= accs["random"]+0.2 || accs["knn"] <= accs["random"]+0.2 {
		t.Fatalf("quality ordering broken: %v", accs)
	}
}

func TestScoresInUnitInterval(t *testing.T) {
	r := xrand.New(3)
	X, y := circleData(r, 300, 1.2)
	for _, c := range []Classifier{NewKNN(3), NewDecisionTree(6), NewRandomForest(10, 1), NewMLP(1), NewDummy(1)} {
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := 0; i < 100; i++ {
			s := c.Score(X[i])
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s score = %v", c.Name(), s)
			}
		}
	}
}

func TestFitValidation(t *testing.T) {
	for _, c := range []Classifier{NewKNN(3), NewDecisionTree(6), NewRandomForest(5, 1), NewMLP(1), NewDummy(1)} {
		if err := c.Fit(nil, nil); err == nil {
			t.Fatalf("%s: empty fit should error", c.Name())
		}
		if err := c.Fit([][]float64{{1}}, []bool{true, false}); err == nil {
			t.Fatalf("%s: length mismatch should error", c.Name())
		}
		if err := c.Fit([][]float64{{1, 2}, {3}}, []bool{true, false}); err == nil {
			t.Fatalf("%s: ragged features should error", c.Name())
		}
	}
}

func TestUnfittedScoreIsToss(t *testing.T) {
	for _, c := range []Classifier{NewKNN(3), NewDecisionTree(6), NewRandomForest(5, 1), NewMLP(1)} {
		if s := c.Score([]float64{1, 2}); s != 0.5 {
			t.Fatalf("%s unfitted score = %v, want 0.5", c.Name(), s)
		}
	}
}

func TestSingleClassTraining(t *testing.T) {
	// All-positive training data must not crash and should score high.
	X := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	y := []bool{true, true, true, true}
	for _, c := range []Classifier{NewKNN(2), NewDecisionTree(4), NewRandomForest(5, 1)} {
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if s := c.Score([]float64{1.5, 1.5}); s < 0.9 {
			t.Fatalf("%s: single-class score = %v", c.Name(), s)
		}
	}
}

func TestScaler(t *testing.T) {
	var s Scaler
	X := [][]float64{{1, 10, 5}, {3, 10, 7}, {5, 10, 9}}
	s.Fit(X)
	out := s.Transform([]float64{3, 10, 7})
	for j, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("mean row should map to 0, got %v at %d", v, j)
		}
	}
	// Constant column must not divide by zero.
	out = s.Transform([]float64{1, 11, 5})
	if math.IsNaN(out[1]) || math.IsInf(out[1], 0) {
		t.Fatalf("constant column transform = %v", out[1])
	}
	// Unfitted scaler passes through.
	var u Scaler
	got := u.Transform([]float64{4, 2})
	if got[0] != 4 || got[1] != 2 {
		t.Fatal("unfitted scaler should pass through")
	}
}

func TestAUCKnownCases(t *testing.T) {
	// Perfect ranking.
	if a := auc([]float64{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false}); a != 1 {
		t.Fatalf("perfect AUC = %v", a)
	}
	// Inverted ranking.
	if a := auc([]float64{0.1, 0.2, 0.8, 0.9}, []bool{true, true, false, false}); a != 0 {
		t.Fatalf("inverted AUC = %v", a)
	}
	// All ties → 0.5.
	if a := auc([]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, false, true, false}); a != 0.5 {
		t.Fatalf("tied AUC = %v", a)
	}
	// Degenerate single class.
	if a := auc([]float64{0.1, 0.9}, []bool{true, true}); a != 0.5 {
		t.Fatalf("single-class AUC = %v", a)
	}
}

func TestEvaluateScores(t *testing.T) {
	m := EvaluateScores([]float64{0.9, 0.6, 0.4, 0.1}, []bool{true, false, true, false})
	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if m.Accuracy != 0.5 || m.TPR != 0.5 || m.FPR != 0.5 {
		t.Fatalf("rates = %+v", m)
	}
}

func TestKFoldRates(t *testing.T) {
	r := xrand.New(4)
	X, y := circleData(r, 400, 1.2)
	factory := func() Classifier { return NewKNN(5) }
	tpr, fpr, err := KFoldRates(factory, X, y, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if tpr < 0.8 {
		t.Fatalf("cv tpr = %v, want high", tpr)
	}
	if fpr > 0.2 {
		t.Fatalf("cv fpr = %v, want low", fpr)
	}
	if _, _, err := KFoldRates(factory, X[:1], y[:1], 5, r); err == nil {
		t.Fatal("tiny set should error")
	}
}

func TestTreeDepthRespected(t *testing.T) {
	r := xrand.New(5)
	X, y := circleData(r, 500, 1.2)
	tr := NewDecisionTree(3)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var depth func(ni int32) int // the height below node ni
	depth = func(ni int32) int {
		if tr.feature[ni] < 0 {
			return 0
		}
		return 1 + max(depth(tr.left[ni]), depth(tr.right[ni]))
	}
	if d := depth(0); d > 3 {
		t.Fatalf("depth %d exceeds cap 3", d)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	r := xrand.New(6)
	X, y := circleData(r, 300, 1.2)
	a := NewRandomForest(10, 9)
	b := NewRandomForest(10, 9)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Score(X[i]) != b.Score(X[i]) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestPredictThreshold(t *testing.T) {
	c := NewDummy(1)
	x := []float64{1, 2, 3}
	if Predict(c, x) != (c.Score(x) >= 0.5) {
		t.Fatal("Predict threshold broken")
	}
}

func BenchmarkForestFit(b *testing.B) {
	r := xrand.New(7)
	X, y := circleData(r, 1000, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewRandomForest(20, uint64(i))
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestScore(b *testing.B) {
	r := xrand.New(8)
	X, y := circleData(r, 1000, 1.2)
	f := NewRandomForest(100, 1)
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Score(X[i%len(X)])
	}
}

func BenchmarkKNNScore(b *testing.B) {
	r := xrand.New(9)
	X, y := circleData(r, 5000, 1.2)
	c := NewKNN(5)
	if err := c.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Score(X[i%len(X)])
	}
}

func BenchmarkMLPFit(b *testing.B) {
	r := xrand.New(10)
	X, y := circleData(r, 500, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &MLP{Seed: uint64(i), Epochs: 100}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
