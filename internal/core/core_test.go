package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// syntheticInstance builds an object set whose positives form a circle in
// feature space — learnable, with a known exact count.
func syntheticInstance(n int, radius float64, seed uint64) (*ObjectSet, int) {
	r := xrand.New(seed)
	features := make([][]float64, n)
	labels := make([]bool, n)
	truth := 0
	for i := 0; i < n; i++ {
		x := r.Float64()*4 - 2
		y := r.Float64()*4 - 2
		features[i] = []float64{x, y}
		labels[i] = x*x+y*y <= radius*radius
		if labels[i] {
			truth++
		}
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		panic(err)
	}
	return obj, truth
}

func knnSpec(seed uint64) learn.Classifier { return learn.NewKNN(5) }

func smallForest(seed uint64) learn.Classifier { return learn.NewRandomForest(20, seed) }

func TestNewObjectSetValidation(t *testing.T) {
	if _, err := NewObjectSet(nil, predicate.NewLabels(nil)); err == nil {
		t.Fatal("empty features should error")
	}
	if _, err := NewObjectSet([][]float64{{1}}, nil); err == nil {
		t.Fatal("nil predicate should error")
	}
	if _, err := NewObjectSet([][]float64{{1, 2}, {3}}, predicate.NewLabels([]bool{true, false})); err == nil {
		t.Fatal("ragged features should error")
	}
}

func TestOracle(t *testing.T) {
	obj, truth := syntheticInstance(500, 1.0, 1)
	res, err := Oracle{}.Estimate(context.Background(), obj, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != float64(truth) {
		t.Fatalf("oracle = %v, truth %d", res.Estimate, truth)
	}
	if res.Evals != 500 {
		t.Fatalf("oracle evals = %d", res.Evals)
	}
	if !res.CI.Contains(float64(truth)) || res.CI.Width() != 0 {
		t.Fatalf("oracle CI = %v", res.CI)
	}
}

func TestBudgetValidation(t *testing.T) {
	obj, _ := syntheticInstance(100, 1.0, 2)
	r := xrand.New(3)
	methods := []Method{&SRS{}, &SSP{}, &SSN{}, &LWS{NewClassifier: knnSpec}, &LSS{NewClassifier: knnSpec}, &QLCC{NewClassifier: knnSpec}, &QLAC{NewClassifier: knnSpec}}
	for _, m := range methods {
		if _, err := m.Estimate(context.Background(), obj, 0, r); err == nil {
			t.Fatalf("%s: zero budget should error", m.Name())
		}
		if _, err := m.Estimate(context.Background(), obj, 101, r); err == nil {
			t.Fatalf("%s: over-budget should error", m.Name())
		}
	}
}

func TestAllMethodsRespectBudget(t *testing.T) {
	obj, _ := syntheticInstance(2000, 1.0, 4)
	r := xrand.New(5)
	budget := 300
	methods := []Method{
		&SRS{},
		&SSP{Strata: 4},
		&SSN{Strata: 4},
		&LWS{NewClassifier: knnSpec},
		&LSS{NewClassifier: knnSpec},
		&LSS{NewClassifier: knnSpec, Layout: LayoutFixedWidth},
		&LSS{NewClassifier: knnSpec, Layout: LayoutEqualCount},
		&LSS{NewClassifier: knnSpec, Alloc: AllocProportional},
		&QLCC{NewClassifier: knnSpec},
		&QLAC{NewClassifier: knnSpec},
		&LWS{NewClassifier: knnSpec, Augment: true},
		&LSS{NewClassifier: knnSpec, Augment: true},
	}
	for _, m := range methods {
		before := obj.Pred.Evals()
		res, err := m.Estimate(context.Background(), obj, budget, r)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		spent := obj.Pred.Evals() - before
		if spent > int64(budget) {
			t.Fatalf("%s spent %d > budget %d", m.Name(), spent, budget)
		}
		if res.Evals != spent {
			t.Fatalf("%s reported %d evals, actual %d", m.Name(), res.Evals, spent)
		}
		if res.Estimate < 0 || res.Estimate > float64(obj.N()) {
			t.Fatalf("%s estimate %v out of range", m.Name(), res.Estimate)
		}
		if math.IsNaN(res.Estimate) {
			t.Fatalf("%s produced NaN", m.Name())
		}
	}
}

// runTrials collects estimates over repeated runs.
func runTrials(t *testing.T, m Method, obj *ObjectSet, budget, trials int, seed uint64) []float64 {
	t.Helper()
	r := xrand.New(seed)
	out := make([]float64, trials)
	for i := 0; i < trials; i++ {
		res, err := m.Estimate(context.Background(), obj, budget, r.Split())
		if err != nil {
			t.Fatalf("%s trial %d: %v", m.Name(), i, err)
		}
		out[i] = res.Estimate
	}
	return out
}

func TestSamplingMethodsUnbiased(t *testing.T) {
	obj, truth := syntheticInstance(3000, 1.2, 6)
	const trials, budget = 60, 300
	for _, m := range []Method{
		&SRS{},
		&SSP{Strata: 4},
		&LWS{NewClassifier: knnSpec},
		&LSS{NewClassifier: knnSpec},
	} {
		ests := runTrials(t, m, obj, budget, trials, 7)
		mean := stats.Mean(ests)
		sd := stats.StdDev(ests)
		if sd == 0 {
			sd = 1
		}
		z := math.Abs(mean-float64(truth)) / (sd / math.Sqrt(trials))
		if z > 4.5 {
			t.Fatalf("%s mean %v vs truth %d (z = %v)", m.Name(), mean, truth, z)
		}
	}
}

func TestLSSBeatsSRS(t *testing.T) {
	// The headline result (Fig 2): with a learnable predicate, LSS should
	// produce clearly tighter estimate distributions than plain SRS.
	obj, _ := syntheticInstance(4000, 1.2, 8)
	const trials, budget = 40, 400
	srs := runTrials(t, &SRS{}, obj, budget, trials, 9)
	lss := runTrials(t, &LSS{NewClassifier: knnSpec}, obj, budget, trials, 9)
	iqrSRS := stats.IQR(srs)
	iqrLSS := stats.IQR(lss)
	if iqrLSS >= iqrSRS {
		t.Fatalf("IQR(LSS)=%v should beat IQR(SRS)=%v", iqrLSS, iqrSRS)
	}
}

func TestLSSRobustToRandomClassifier(t *testing.T) {
	// §5.4.4: LSS with a random classifier must stay unbiased — quality
	// degrades to ordinary stratified sampling, not to garbage.
	obj, truth := syntheticInstance(2000, 1.2, 10)
	dummy := func(seed uint64) learn.Classifier { return learn.NewDummy(seed) }
	ests := runTrials(t, &LSS{NewClassifier: dummy}, obj, 250, 40, 11)
	mean := stats.Mean(ests)
	sd := stats.StdDev(ests)
	z := math.Abs(mean-float64(truth)) / (sd / math.Sqrt(40))
	if z > 4.5 {
		t.Fatalf("LSS+random mean %v vs truth %d (z=%v)", mean, truth, z)
	}
}

func TestCICoverage(t *testing.T) {
	obj, truth := syntheticInstance(3000, 1.2, 12)
	const trials, budget = 60, 300
	for _, m := range []Method{&SRS{}, &LSS{NewClassifier: knnSpec}} {
		r := xrand.New(13)
		hits := 0
		for i := 0; i < trials; i++ {
			res, err := m.Estimate(context.Background(), obj, budget, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			if !res.HasCI {
				t.Fatalf("%s should produce a CI", m.Name())
			}
			if res.CI.Contains(float64(truth)) {
				hits++
			}
		}
		cov := float64(hits) / trials
		if cov < 0.80 {
			t.Fatalf("%s coverage %v too low (want ≈0.95)", m.Name(), cov)
		}
	}
}

func TestQLWithGoodClassifier(t *testing.T) {
	obj, truth := syntheticInstance(3000, 1.2, 14)
	r := xrand.New(15)
	for _, m := range []Method{&QLCC{NewClassifier: knnSpec}, &QLAC{NewClassifier: knnSpec}} {
		res, err := m.Estimate(context.Background(), obj, 600, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if res.HasCI {
			t.Fatalf("%s should not claim a CI", m.Name())
		}
		relErr := math.Abs(res.Estimate-float64(truth)) / float64(truth)
		if relErr > 0.25 {
			t.Fatalf("%s estimate %v vs truth %d (rel err %v)", m.Name(), res.Estimate, truth, relErr)
		}
	}
}

// circleOracle scores exactly like the true predicate — the "accurate and
// confident classifier" of §4.1's analysis.
type circleOracle struct{ r2 float64 }

func (c *circleOracle) Name() string                      { return "oracle-clf" }
func (c *circleOracle) Fit(X [][]float64, y []bool) error { return nil }
func (c *circleOracle) Score(x []float64) float64 {
	if x[0]*x[0]+x[1]*x[1] <= c.r2 {
		return 1
	}
	return 0
}

func TestLWSWithPerfectScores(t *testing.T) {
	// §4.1: with a perfect, confident classifier, every Des Raj running
	// estimate is (nearly) exact, so LWS collapses the variance far below
	// SRS.
	obj, truth := syntheticInstance(2000, 1.2, 16)
	oracle := func(seed uint64) learn.Classifier { return &circleOracle{r2: 1.2 * 1.2} }
	ests := runTrials(t, &LWS{NewClassifier: oracle, TrainFrac: 0.1}, obj, 400, 20, 17)
	sd := stats.StdDev(ests)
	srs := runTrials(t, &SRS{}, obj, 400, 20, 17)
	if sd >= stats.StdDev(srs)/2 {
		t.Fatalf("LWS sd %v should be far below SRS sd %v with an oracle classifier", sd, stats.StdDev(srs))
	}
	mean := stats.Mean(ests)
	if math.Abs(mean-float64(truth)) > 0.1*float64(truth) {
		t.Fatalf("LWS mean %v vs truth %d", mean, truth)
	}
}

func TestTimingBreakdown(t *testing.T) {
	obj, _ := syntheticInstance(2000, 1.2, 18)
	r := xrand.New(19)
	res, err := (&LSS{NewClassifier: smallForest}).Estimate(context.Background(), obj, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.Learn <= 0 || tm.Design <= 0 || tm.Sample <= 0 {
		t.Fatalf("phase timings missing: %+v", tm)
	}
	if tm.Total() < tm.Predicate {
		t.Fatalf("total %v below predicate time %v", tm.Total(), tm.Predicate)
	}
	if tm.Overhead() <= 0 {
		t.Fatalf("overhead = %v", tm.Overhead())
	}
}

func TestLSSStrataCounts(t *testing.T) {
	obj, _ := syntheticInstance(3000, 1.2, 20)
	r := xrand.New(21)
	for _, h := range []int{3, 4, 9} {
		m := &LSS{NewClassifier: knnSpec, Strata: h}
		if _, err := m.Estimate(context.Background(), obj, 400, r.Split()); err != nil {
			t.Fatalf("H=%d: %v", h, err)
		}
	}
}

func TestLSSDesignAlgos(t *testing.T) {
	obj, _ := syntheticInstance(2500, 1.2, 22)
	r := xrand.New(23)
	for _, tc := range []struct {
		algo DesignAlgo
		h    int
	}{
		{DesignDirSol, 3},
		{DesignLogBdr, 3},
		{DesignDynPgm, 4},
		{DesignDynPgmP, 4},
	} {
		m := &LSS{NewClassifier: knnSpec, Strata: tc.h, Algo: tc.algo}
		if _, err := m.Estimate(context.Background(), obj, 400, r.Split()); err != nil {
			t.Fatalf("%v: %v", tc.algo, err)
		}
	}
	// DirSol with wrong H must fail loudly.
	m := &LSS{NewClassifier: knnSpec, Strata: 4, Algo: DesignDirSol}
	if _, err := m.Estimate(context.Background(), obj, 400, r.Split()); err == nil {
		t.Fatal("DirSol with H=4 should error")
	}
}

func TestExtremeSelectivities(t *testing.T) {
	// XS-like (1%) and XXL-like (90%) populations must not break anything.
	for _, radius := range []float64{0.25, 2.4} {
		obj, truth := syntheticInstance(3000, radius, 24)
		r := xrand.New(25)
		for _, m := range []Method{&SRS{Wilson: true}, &LSS{NewClassifier: knnSpec}, &LWS{NewClassifier: knnSpec}} {
			res, err := m.Estimate(context.Background(), obj, 300, r.Split())
			if err != nil {
				t.Fatalf("radius %v %s: %v", radius, m.Name(), err)
			}
			if math.Abs(res.Estimate-float64(truth)) > 0.25*float64(obj.N()) {
				t.Fatalf("radius %v %s: estimate %v vs truth %d", radius, m.Name(), res.Estimate, truth)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if LayoutOptimal.String() != "optimal" || LayoutFixedWidth.String() != "fixed-width" ||
		LayoutEqualCount.String() != "fixed-height" {
		t.Fatal("Layout strings")
	}
	if AllocNeyman.String() != "neyman" || AllocProportional.String() != "proportional" {
		t.Fatal("Allocation strings")
	}
	for _, d := range []DesignAlgo{DesignAuto, DesignDirSol, DesignLogBdr, DesignDynPgm, DesignDynPgmP} {
		if d.String() == "" {
			t.Fatal("DesignAlgo string empty")
		}
	}
	if Layout(99).String() == "" || DesignAlgo(99).String() == "" {
		t.Fatal("unknown enum strings")
	}
}

func TestMethodNames(t *testing.T) {
	names := map[string]Method{
		"srs":    &SRS{},
		"ssp":    &SSP{},
		"ssn":    &SSN{},
		"lws":    &LWS{},
		"lss":    &LSS{},
		"qlcc":   &QLCC{},
		"qlac":   &QLAC{},
		"oracle": Oracle{},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Fatalf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

// benchEstimates runs one count of m per op.
func benchEstimates(b *testing.B, obj *ObjectSet, m Method, budget int, r *xrand.Rand) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Estimate(context.Background(), obj, budget, r.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSSEstimate runs one lss count per op: knn is kNN at budget 500
// over a disc; ledger is the benchmark ledger's udf_learn lss count — the
// default forest on one worker, budget 200 over 10 000 objects with two
// uniform features, positive inside a noise-blurred ellipse.
func BenchmarkLSSEstimate(b *testing.B) {
	b.Run("knn", func(b *testing.B) {
		obj, _ := syntheticInstance(10000, 1.2, 26)
		benchEstimates(b, obj, &LSS{NewClassifier: knnSpec}, 500, xrand.New(27))
	})
	b.Run("ledger", func(b *testing.B) {
		benchEstimates(b, ledgerInstance(b, 10000), &LSS{NewClassifier: ForestClassifier(1)}, 200, xrand.New(34))
	})
}

// BenchmarkLWSEstimate runs one lws count per op: knn is kNN at budget 500
// over a disc; ledger is udf_learn's lws count (its 60 % class, which sets
// the workload's count_p50_ms) on BenchmarkLSSEstimate's ledger objects.
func BenchmarkLWSEstimate(b *testing.B) {
	b.Run("knn", func(b *testing.B) {
		obj, _ := syntheticInstance(10000, 1.2, 28)
		benchEstimates(b, obj, &LWS{NewClassifier: knnSpec}, 500, xrand.New(29))
	})
	b.Run("ledger", func(b *testing.B) {
		benchEstimates(b, ledgerInstance(b, 10000), &LWS{NewClassifier: ForestClassifier(1)}, 200, xrand.New(36))
	})
}

// BenchmarkQLCCEstimate is udf_learn's qlcc count (its 15 % class) on
// BenchmarkLSSEstimate's ledger objects.
func BenchmarkQLCCEstimate(b *testing.B) {
	b.Run("ledger", func(b *testing.B) {
		benchEstimates(b, ledgerInstance(b, 10000), &QLCC{NewClassifier: ForestClassifier(1)}, 200, xrand.New(37))
	})
}

func BenchmarkSRSEstimate(b *testing.B) {
	obj, _ := syntheticInstance(10000, 1.2, 30)
	r := xrand.New(31)
	m := &SRS{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Estimate(context.Background(), obj, 500, r.Split()); err != nil {
			b.Fatal(err)
		}
	}
}
