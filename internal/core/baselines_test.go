package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestGridStrataPartition(t *testing.T) {
	obj, _ := syntheticInstance(1000, 1.0, 40)
	pools, err := gridStrata(obj, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every object appears in exactly one pool.
	seen := make(map[int]bool)
	total := 0
	for _, p := range pools {
		for _, i := range p {
			if seen[i] {
				t.Fatalf("object %d in two strata", i)
			}
			seen[i] = true
		}
		total += len(p)
	}
	if total != obj.N() {
		t.Fatalf("strata cover %d of %d objects", total, obj.N())
	}
	// A 2×2 grid on continuous attributes yields 4 non-empty cells.
	if len(pools) != 4 {
		t.Fatalf("pools = %d, want 4", len(pools))
	}
}

func TestGridStrataBadAttribute(t *testing.T) {
	obj, err := NewObjectSet([][]float64{{1}, {2}, {3}}, labelsPred([]bool{true, false, true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gridStrata(obj, 4); err == nil || err.Error() != "core: surrogate attribute 1 out of range (d=1)" {
		t.Fatalf("one feature column under a two-attribute grid: error %v", err)
	}
}

func TestSSNAllocatesMoreToMixedStrata(t *testing.T) {
	// Population where one grid quadrant is mixed and the rest are pure:
	// Neyman should outperform proportional in spread.
	r := xrand.New(43)
	n := 4000
	features := make([][]float64, n)
	labels := make([]bool, n)
	truth := 0
	for i := 0; i < n; i++ {
		x := r.Float64()
		y := r.Float64()
		features[i] = []float64{x, y}
		// Mixed only when x > 0.5 && y > 0.5; otherwise negative.
		if x > 0.5 && y > 0.5 {
			labels[i] = r.Bool(0.5)
		}
		if labels[i] {
			truth++
		}
	}
	obj, err := NewObjectSet(features, labelsPred(labels))
	if err != nil {
		t.Fatal(err)
	}
	const trials, budget = 80, 800
	collect := func(m Method) []float64 {
		rr := xrand.New(44)
		ests := make([]float64, trials)
		for i := range ests {
			res, err := m.Estimate(context.Background(), obj, budget, rr.Split())
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = res.Estimate
		}
		return ests
	}
	ssn := collect(&SSN{Strata: 4})
	ssp := collect(&SSP{Strata: 4})
	// Neyman concentrates budget on the one mixed quadrant, so its spread
	// must come out below proportional allocation's.
	if stats.StdDev(ssn) >= stats.StdDev(ssp) {
		t.Fatalf("SSN sd %v should beat SSP sd %v on a concentrated predicate",
			stats.StdDev(ssn), stats.StdDev(ssp))
	}
	mean := stats.Mean(ssn)
	if math.Abs(mean-float64(truth)) > 0.2*float64(truth) {
		t.Fatalf("SSN mean %v vs truth %d", mean, truth)
	}
}

// TestLSSConstraintsOverride: when the designer's constraints cannot be met
// — budget 20 at H = 4 leaves a pilot of 5 labels, fewer than 4 strata × 2
// — LSS falls back to the equal-count layout instead of erroring, and the
// fallback still spends no more than the budget.
func TestLSSConstraintsOverride(t *testing.T) {
	obj, _ := syntheticInstance(2000, 1.2, 45)
	m := &LSS{NewClassifier: knnSpec}
	res, err := m.Estimate(context.Background(), obj, 300, xrand.New(46))
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Fallback != "" {
		t.Fatalf("budget 300 design = %+v, want no fallback", res.Design)
	}
	before := obj.Pred.Evals()
	res, err = m.Estimate(context.Background(), obj, 20, xrand.New(47))
	if err != nil {
		t.Fatalf("infeasible constraints should fall back, got %v", err)
	}
	if res.Design.Algo != "fixed-height" || res.Design.Fallback == "" {
		t.Fatalf("budget 20 design = %+v, want the fixed-height fallback", res.Design)
	}
	if spent := obj.Pred.Evals() - before; spent > 20 {
		t.Fatalf("fallback spent %d evaluations on budget 20", spent)
	}
}

func TestOrderByScoreDeterministicTies(t *testing.T) {
	restIdx := []int{5, 3, 9, 1}
	scores := []float64{0.5, 0.5, 0.1, 0.5}
	orderByScore(restIdx, scores)
	if restIdx[0] != 9 {
		t.Fatalf("lowest score should come first: %v", restIdx)
	}
	// Ties broken by object index ascending.
	if restIdx[1] != 1 || restIdx[2] != 3 || restIdx[3] != 5 {
		t.Fatalf("tie-break order wrong: %v", restIdx)
	}
}

func TestLearnPhaseErrors(t *testing.T) {
	obj, _ := syntheticInstance(100, 1.0, 48)
	r := xrand.New(49)
	f := open(context.Background(), obj, false)
	if _, err := f.learn(knnSpec, 1, false, r); err == nil || err.Error() != "core: learn budget 1 too small" {
		t.Fatalf("tiny learn budget: error %v", err)
	}
	// A nil constructor means the default forest.
	if l, err := f.learn(nil, 10, false, r); err != nil || l.info.Trees != 100 {
		t.Fatalf("nil classifier constructor: %+v, error %v", l, err)
	}
}

// labelsPred adapts a label vector without importing predicate in the test.
type labelsAdapter struct {
	labels []bool
	n      int64
}

func labelsPred(labels []bool) *labelsAdapter { return &labelsAdapter{labels: labels} }

func (l *labelsAdapter) Eval(i int) bool {
	l.n++
	return l.labels[i]
}
func (l *labelsAdapter) Evals() int64 { return l.n }
