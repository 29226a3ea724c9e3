package estimate

import (
	"math"
	"testing"

	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestProportionBasics(t *testing.T) {
	res := SRS(30, 100, 1000, 0.05, false)
	if math.Abs(res.Proportion-0.3) > 1e-12 {
		t.Fatalf("phat = %v", res.Proportion)
	}
	if math.Abs(res.Count-300) > 1e-9 {
		t.Fatalf("count = %v", res.Count)
	}
	if !res.CI.Contains(300) {
		t.Fatalf("CI %v should contain the point estimate", res.CI)
	}
	if res.SamplesUsed != 100 {
		t.Fatalf("SamplesUsed = %d", res.SamplesUsed)
	}
	// n = 0 degenerates gracefully.
	res0 := SRS(0, 0, 1000, 0.05, false)
	if res0.CI.Lo != 0 || res0.CI.Hi != 1000 {
		t.Fatalf("empty-sample CI = %v", res0.CI)
	}
}

func TestProportionCensusHasNoError(t *testing.T) {
	res := SRS(300, 1000, 1000, 0.05, false)
	if res.StdErr != 0 || res.CI.Width() > 1e-9 {
		t.Fatalf("census should be exact: %+v", res)
	}
}

func TestProportionWilson(t *testing.T) {
	res := SRS(0, 50, 1000, 0.05, true)
	if res.CI.Hi <= 0 {
		t.Fatal("Wilson upper bound must be positive at p̂=0")
	}
	if res.CI.Lo != 0 {
		t.Fatalf("Wilson lower at p̂=0 should be 0, got %v", res.CI.Lo)
	}
}

func TestProportionUnbiased(t *testing.T) {
	// Mean of estimates over many SRS draws must approach the truth.
	r := xrand.New(1)
	N := 2000
	labels := make([]bool, N)
	trueCount := 0
	for i := range labels {
		labels[i] = r.Bool(0.23)
		if labels[i] {
			trueCount++
		}
	}
	const trials = 400
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		idx := sample.SRS(r, N, 200)
		pos := 0
		for _, i := range idx {
			if labels[i] {
				pos++
			}
		}
		sum += SRS(pos, 200, N, 0.05, false).Count
	}
	mean := sum / trials
	se := float64(trueCount) * 0.05 // loose tolerance
	if math.Abs(mean-float64(trueCount)) > se {
		t.Fatalf("mean estimate %v vs truth %d", mean, trueCount)
	}
}

func TestStratifiedExactWhenHomogeneous(t *testing.T) {
	// Perfectly homogeneous strata → zero variance.
	strata := []StratumSample{
		{N: 500, Sampled: 10, Positives: 10},
		{N: 500, Sampled: 10, Positives: 0},
	}
	res, err := Stratified(strata, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Count-500) > 1e-9 {
		t.Fatalf("count = %v, want 500", res.Count)
	}
	if res.StdErr != 0 {
		t.Fatalf("homogeneous strata should give zero SE, got %v", res.StdErr)
	}
}

func TestStratifiedMatchesFormula(t *testing.T) {
	strata := []StratumSample{
		{N: 600, Sampled: 30, Positives: 12},
		{N: 400, Sampled: 20, Positives: 15},
	}
	res, err := Stratified(strata, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wantP := 0.6*(12.0/30) + 0.4*(15.0/20)
	if math.Abs(res.Proportion-wantP) > 1e-12 {
		t.Fatalf("phat = %v, want %v", res.Proportion, wantP)
	}
	// Hand-evaluate eq. (1) with sample variances.
	s1 := stats.BinaryVariance(12, 30)
	s2 := stats.BinaryVariance(15, 20)
	wantVar := 0.6*0.6*s1/30 - 0.6*s1/1000 + 0.4*0.4*s2/20 - 0.4*s2/1000
	if math.Abs(res.StdErr*res.StdErr-wantVar) > 1e-12 {
		t.Fatalf("var = %v, want %v", res.StdErr*res.StdErr, wantVar)
	}
}

func TestStratifiedErrors(t *testing.T) {
	if _, err := Stratified([]StratumSample{{N: 5, Sampled: 6}}, 0.05); err == nil {
		t.Fatal("oversampling should error")
	}
	if _, err := Stratified([]StratumSample{{N: 5, Sampled: 2, Positives: 3}}, 0.05); err == nil {
		t.Fatal("positives > sampled should error")
	}
	if _, err := Stratified(nil, 0.05); err == nil {
		t.Fatal("empty population should error")
	}
}

func TestStratifiedVarianceFunction(t *testing.T) {
	Nh := []int{500, 500}
	Sh := []float64{0.5, 0.1}
	nh := []int{50, 50}
	v := StratifiedVariance(Nh, Sh, nh)
	want := 0.25*0.25/50 - 0.5*0.25/1000 + 0.25*0.01/50 - 0.5*0.01/1000
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", v, want)
	}
	if StratifiedVariance(nil, nil, nil) != 0 {
		t.Fatal("empty variance should be 0")
	}
}

func TestProportionalAllocation(t *testing.T) {
	got := ProportionalAllocation([]int{600, 300, 100}, 100, 0)
	if sumInts(got) != 100 {
		t.Fatalf("allocation %v does not sum to 100", got)
	}
	if got[0] < got[1] || got[1] < got[2] {
		t.Fatalf("allocation %v not ordered by size", got)
	}
	if math.Abs(float64(got[0])-60) > 2 {
		t.Fatalf("allocation %v deviates from proportional", got)
	}
}

func TestAllocationRespectsCapacity(t *testing.T) {
	got := ProportionalAllocation([]int{5, 1000}, 100, 0)
	if got[0] > 5 {
		t.Fatalf("allocation %v exceeds stratum size", got)
	}
	if sumInts(got) != 100 {
		t.Fatalf("allocation %v does not sum to 100", got)
	}
}

func TestAllocationMinimums(t *testing.T) {
	got := NeymanAllocation([]int{1000, 1000, 1000}, []float64{0.5, 0, 0}, 90, 5)
	if got[1] < 5 || got[2] < 5 {
		t.Fatalf("zero-variance strata must keep the minimum: %v", got)
	}
	if sumInts(got) != 90 {
		t.Fatalf("allocation %v does not sum to 90", got)
	}
	if got[0] < got[1] {
		t.Fatalf("high-variance stratum should dominate: %v", got)
	}
}

func TestNeymanMatchesTheory(t *testing.T) {
	// Without binding constraints, n_h ∝ N_h S_h.
	got := NeymanAllocation([]int{500, 500}, []float64{0.4, 0.1}, 100, 0)
	if sumInts(got) != 100 {
		t.Fatalf("sum = %d", sumInts(got))
	}
	if math.Abs(float64(got[0])-80) > 2 {
		t.Fatalf("allocation %v, want ~[80 20]", got)
	}
}

func TestNeymanAllZeroVariance(t *testing.T) {
	got := NeymanAllocation([]int{300, 700}, []float64{0, 0}, 100, 0)
	if sumInts(got) != 100 {
		t.Fatalf("sum = %d", sumInts(got))
	}
	if math.Abs(float64(got[1])-70) > 2 {
		t.Fatalf("should fall back to proportional: %v", got)
	}
}

func TestAllocationBudgetBelowMinimums(t *testing.T) {
	got := ProportionalAllocation([]int{100, 100, 100}, 7, 5)
	if sumInts(got) != 7 {
		t.Fatalf("allocation %v should sum to 7", got)
	}
	for _, v := range got {
		if v > 5 {
			t.Fatalf("allocation %v exceeds minimum spread", got)
		}
	}
}

func TestAllocationWholePopulation(t *testing.T) {
	got := ProportionalAllocation([]int{10, 20}, 100, 0)
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("census allocation = %v", got)
	}
}

func TestNeymanMinimizesVariance(t *testing.T) {
	// Among a grid of allocations, Neyman must (nearly) minimize eq. (1).
	Nh := []int{400, 600}
	Sh := []float64{0.5, 0.2}
	n := 60
	best := math.Inf(1)
	for n1 := 1; n1 < n; n1++ {
		v := StratifiedVariance(Nh, Sh, []int{n1, n - n1})
		if v < best {
			best = v
		}
	}
	got := NeymanAllocation(Nh, Sh, n, 1)
	v := StratifiedVariance(Nh, Sh, got)
	if v > best*1.05 {
		t.Fatalf("Neyman variance %v vs optimal %v (alloc %v)", v, best, got)
	}
}

func TestDesRajPerfectClassifier(t *testing.T) {
	// §4.1: with π(o) ∝ q(o) exactly, every running estimate equals the
	// true proportion.
	N := 100
	labels := make([]bool, N)
	for i := 0; i < 30; i++ {
		labels[i] = true
	}
	d := NewDesRaj(N)
	// Draw positives in any order with π = 1/30 each (ideal weights).
	for i := 0; i < 30; i++ {
		d.Add(true, 1.0/30.0)
		est := d.Estimate(0.05)
		if math.Abs(est.Count-30) > 1e-9 {
			t.Fatalf("draw %d: estimate %v, want exactly 30", i+1, est.Count)
		}
	}
	if d.Draws() != 30 {
		t.Fatalf("Draws = %d", d.Draws())
	}
}

func TestDesRajUnbiased(t *testing.T) {
	// Empirical unbiasedness across repeated weighted draws with imperfect
	// weights.
	r := xrand.New(2)
	N := 400
	labels := make([]bool, N)
	weights := make([]float64, N)
	trueCount := 0
	for i := range labels {
		labels[i] = r.Bool(0.3)
		if labels[i] {
			trueCount++
			weights[i] = 0.8 + 0.4*r.Float64() // informative but noisy
		} else {
			weights[i] = 0.1 + 0.2*r.Float64()
		}
	}
	const trials, draws = 600, 40
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		w, err := sample.NewWeighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDesRaj(N)
		for i := 0; i < draws; i++ {
			idx, err := w.Draw(r)
			if err != nil {
				t.Fatal(err)
			}
			d.Add(labels[idx], w.InitialProb(idx))
		}
		sum += d.Estimate(0.05).Count
	}
	mean := sum / trials
	if math.Abs(mean-float64(trueCount)) > 0.06*float64(trueCount) {
		t.Fatalf("mean Des Raj estimate %v vs truth %d", mean, trueCount)
	}
}

func TestDesRajEmpty(t *testing.T) {
	d := NewDesRaj(50)
	est := d.Estimate(0.05)
	if est.CI.Lo != 0 || est.CI.Hi != 50 {
		t.Fatalf("empty estimator CI = %v", est.CI)
	}
}

func TestDesRajZeroProbGuard(t *testing.T) {
	d := NewDesRaj(10)
	d.Add(true, 0) // caller error: must not panic or produce NaN/Inf
	est := d.Estimate(0.05)
	if math.IsNaN(est.Count) || math.IsInf(est.Count, 0) {
		t.Fatalf("estimate = %v", est.Count)
	}
}

func sumInts(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

func BenchmarkStratified(b *testing.B) {
	strata := make([]StratumSample, 10)
	for h := range strata {
		strata[h] = StratumSample{N: 1000, Sampled: 50, Positives: h * 5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stratified(strata, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesRaj(b *testing.B) {
	d := NewDesRaj(100000)
	for i := 0; i < b.N; i++ {
		d.Add(i%3 == 0, 1e-5)
	}
}
