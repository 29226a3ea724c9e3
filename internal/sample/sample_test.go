package sample

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestSRSDistinctAndInRange(t *testing.T) {
	r := xrand.New(1)
	for _, tc := range []struct{ N, n int }{{10, 0}, {10, 1}, {10, 10}, {1000, 37}} {
		got := SRS(r, tc.N, tc.n)
		if len(got) != tc.n {
			t.Fatalf("SRS(%d,%d) len = %d", tc.N, tc.n, len(got))
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= tc.N || seen[v] {
				t.Fatalf("SRS(%d,%d) invalid draw %d in %v", tc.N, tc.n, v, got)
			}
			seen[v] = true
		}
	}
}

func TestSRSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SRS(2,3) should panic")
		}
	}()
	SRS(xrand.New(1), 2, 3)
}

func TestSRSMarginalUniform(t *testing.T) {
	r := xrand.New(2)
	const N, n, trials = 20, 5, 40000
	counts := make([]int, N)
	for i := 0; i < trials; i++ {
		for _, v := range SRS(r, N, n) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(n) / float64(N)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("index %d drawn %d times, want ~%v", i, c, want)
		}
	}
}

func TestSRSPrefixOrderUniform(t *testing.T) {
	// The first element of the returned order must also be uniform (callers
	// use prefixes of the sample).
	r := xrand.New(3)
	const N, trials = 10, 50000
	counts := make([]int, N)
	for i := 0; i < trials; i++ {
		counts[SRS(r, N, 4)[0]]++
	}
	want := float64(trials) / N
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("first-position count for %d is %d, want ~%v", i, c, want)
		}
	}
}

func TestSRSFrom(t *testing.T) {
	r := xrand.New(4)
	pool := []int{100, 200, 300, 400}
	got := SRSFrom(r, pool, 2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	valid := map[int]bool{100: true, 200: true, 300: true, 400: true}
	if !valid[got[0]] || !valid[got[1]] || got[0] == got[1] {
		t.Fatalf("bad draw %v", got)
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights should error")
	}
	if _, err := NewWeighted([]float64{1, -1}); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := NewWeighted([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN weight should error")
	}
	if _, err := NewWeighted([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("Inf weight should error")
	}
}

func TestWeightedDrawsAllExactlyOnce(t *testing.T) {
	r := xrand.New(5)
	weights := []float64{1, 2, 3, 4, 0, 5}
	w, err := NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 5; i++ { // five positive weights
		idx, err := w.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[idx] {
			t.Fatalf("index %d drawn twice", idx)
		}
		if idx == 4 {
			t.Fatal("zero-weight index drawn")
		}
		seen[idx] = true
	}
	if _, err := w.Draw(r); err == nil {
		t.Fatal("exhausted sampler should error")
	}
}

func TestWeightedFirstDrawMarginals(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	const trials = 60000
	counts := make([]int, len(weights))
	r := xrand.New(6)
	for i := 0; i < trials; i++ {
		w, err := NewWeighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := w.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	total := 10.0
	for i, c := range counts {
		want := float64(trials) * weights[i] / total
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("index %d drawn %d, want ~%v", i, c, want)
		}
	}
}

func TestWeightedInitialProb(t *testing.T) {
	w, err := NewWeighted([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := w.InitialProb(0); math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("InitialProb(0) = %v", p)
	}
	if p := w.InitialProb(1); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("InitialProb(1) = %v", p)
	}
}

func TestWeightedSecondDrawConditional(t *testing.T) {
	// After removing index 0 (w=5), remaining weights {1, 4}: second draw
	// must follow the renormalized distribution.
	const trials = 40000
	r := xrand.New(8)
	count1 := 0
	n2 := 0
	for i := 0; i < trials; i++ {
		w, err := NewWeighted([]float64{5, 1, 4})
		if err != nil {
			t.Fatal(err)
		}
		first, err := w.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		if first != 0 {
			continue
		}
		second, err := w.Draw(r)
		if err != nil {
			t.Fatal(err)
		}
		n2++
		if second == 1 {
			count1++
		}
	}
	p := float64(count1) / float64(n2)
	if math.Abs(p-0.2) > 0.02 {
		t.Fatalf("conditional second-draw P(1) = %v, want 0.2", p)
	}
}

func TestStratified(t *testing.T) {
	r := xrand.New(9)
	strata := [][]int{{0, 1, 2}, {3, 4, 5, 6}, {7}}
	out, err := Stratified(r, strata, []int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 2 || len(out[1]) != 3 || len(out[2]) != 1 {
		t.Fatalf("allocation mismatch: %v", out)
	}
	members := map[int]int{}
	for h, pool := range strata {
		for _, v := range pool {
			members[v] = h
		}
	}
	for h, s := range out {
		seen := map[int]bool{}
		for _, v := range s {
			if members[v] != h {
				t.Fatalf("index %d drawn from wrong stratum %d", v, h)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in stratum %d", v, h)
			}
			seen[v] = true
		}
	}
}

func TestStratifiedErrors(t *testing.T) {
	r := xrand.New(10)
	if _, err := Stratified(r, [][]int{{1}}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Stratified(r, [][]int{{1}}, []int{2}); err == nil {
		t.Fatal("over-allocation should error")
	}
	if _, err := Stratified(r, [][]int{{1}}, []int{-1}); err == nil {
		t.Fatal("negative allocation should error")
	}
}

func BenchmarkSRS(b *testing.B) {
	r := xrand.New(11)
	for i := 0; i < b.N; i++ {
		_ = SRS(r, 100000, 1000)
	}
}

func BenchmarkWeightedDraw(b *testing.B) {
	r := xrand.New(12)
	weights := make([]float64, 100000)
	for i := range weights {
		weights[i] = r.Float64() + 0.01
	}
	w, err := NewWeighted(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Draw(r); err != nil {
			w, _ = NewWeighted(weights)
		}
	}
}
