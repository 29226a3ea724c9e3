package active

import (
	"context"
	"testing"

	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/xrand"
)

// lineWorld: 1-d objects on a grid, positive above a threshold.
func lineWorld(n int, threshold float64) ([][]float64, predicate.Predicate) {
	features := make([][]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n)
		features[i] = []float64{v}
		labels[i] = v > threshold
	}
	return features, predicate.NewLabels(labels)
}

func TestSelectUncertainPrefersBoundary(t *testing.T) {
	features, pred := lineWorld(1000, 0.6)
	r := xrand.New(1)
	// Train on a coarse random sample.
	idx := make([]int, 0, 50)
	labeled := map[int]bool{}
	for i := 0; i < 50; i++ {
		j := r.IntN(1000)
		if !labeled[j] {
			labeled[j] = true
			idx = append(idx, j)
		}
	}
	X := make([][]float64, len(idx))
	y := make([]bool, len(idx))
	for j, i := range idx {
		X[j] = features[i]
		y[j] = pred.Eval(i)
	}
	clf := learn.NewKNN(5)
	if err := clf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	sel := SelectUncertain(clf, features, labeled, 30, r)
	if len(sel) != 30 {
		t.Fatalf("selected %d", len(sel))
	}
	// Selected objects should cluster near the 0.6 boundary.
	near := 0
	for _, i := range sel {
		if v := features[i][0]; v > 0.4 && v < 0.8 {
			near++
		}
	}
	if near < 20 {
		t.Fatalf("only %d/30 selections near the boundary", near)
	}
	// Never selects already-labeled objects.
	for _, i := range sel {
		if labeled[i] {
			t.Fatalf("selected labeled object %d", i)
		}
	}
}

// countingClf scores every object 0.5 and counts how many it scored.
type countingClf struct{ scored int }

func (c *countingClf) Name() string                  { return "counting" }
func (c *countingClf) Fit([][]float64, []bool) error { return nil }
func (c *countingClf) Score([]float64) float64       { c.scored++; return 0.5 }

func TestSelectUncertainPoolCap(t *testing.T) {
	features, _ := lineWorld(PoolCap+50, 0.5)
	r := xrand.New(2)
	clf := &countingClf{}
	sel := SelectUncertain(clf, features, map[int]bool{}, 10, r)
	if len(sel) != 10 || clf.scored != PoolCap {
		t.Fatalf("selected %d after scoring %d candidates, want 10 of %d", len(sel), clf.scored, PoolCap)
	}
	// Requesting more than available returns everything unlabeled.
	labeled := map[int]bool{}
	for i := 0; i < len(features)-5; i++ {
		labeled[i] = true
	}
	sel = SelectUncertain(clf, features, labeled, 10, r)
	if len(sel) != 5 {
		t.Fatalf("selected %d, want 5", len(sel))
	}
}

func TestTrainImprovesClassifier(t *testing.T) {
	features, pred := lineWorld(2000, 0.37)
	r := xrand.New(3)
	factory := func() learn.Classifier { return learn.NewKNN(5) }

	initial := make([]int, 40)
	for i := range initial {
		initial[i] = r.IntN(2000)
	}
	cfg := Config{Factory: factory, Rounds: 2}
	clf, idx, labels, err := Train(context.Background(), cfg, features, pred, initial, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(labels) {
		t.Fatal("index/label mismatch")
	}
	if len(idx) < 40 {
		t.Fatalf("labeled %d < initial", len(idx))
	}
	// Boundary must be approximately learned.
	errs := 0
	for i := 0; i < 2000; i += 10 {
		if learn.Predict(clf, features[i]) != (features[i][0] > 0.37) {
			errs++
		}
	}
	if errs > 20 {
		t.Fatalf("%d/200 errors after active training", errs)
	}
}

func TestTrainLabelsAreConsistent(t *testing.T) {
	features, pred := lineWorld(500, 0.5)
	r := xrand.New(4)
	factory := func() learn.Classifier { return learn.NewKNN(3) }
	clf, idx, labels, err := Train(context.Background(), Config{Factory: factory, Rounds: 1}, features, pred, []int{1, 100, 200, 300, 499}, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	_ = clf
	for j, i := range idx {
		if labels[j] != (features[i][0] > 0.5) {
			t.Fatalf("label mismatch at %d", i)
		}
	}
	// No duplicate labels.
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("object %d labeled twice", i)
		}
		seen[i] = true
	}
}

func TestTrainErrors(t *testing.T) {
	features, pred := lineWorld(100, 0.5)
	r := xrand.New(5)
	if _, _, _, err := Train(context.Background(), Config{}, features, pred, []int{1}, 5, r); err == nil {
		t.Fatal("nil factory should error")
	}
	factory := func() learn.Classifier { return learn.NewKNN(3) }
	if _, _, _, err := Train(context.Background(), Config{Factory: factory}, features, pred, nil, 5, r); err == nil {
		t.Fatal("empty initial sample should error")
	}
}

func TestTrainCostAccounting(t *testing.T) {
	features, pred := lineWorld(500, 0.5)
	r := xrand.New(6)
	factory := func() learn.Classifier { return learn.NewKNN(3) }
	_, idx, _, err := Train(context.Background(), Config{Factory: factory, Rounds: 1}, features, pred, []int{0, 100, 200, 300, 400}, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Evals() != int64(len(idx)) {
		t.Fatalf("predicate evals %d != labeled %d", pred.Evals(), len(idx))
	}
}
