package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want 32/7", v)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || IQR(nil) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
	sm := Summarize(nil)
	if sm.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestBinaryVariance(t *testing.T) {
	// Must match explicit sample variance of the 0/1 vector.
	for _, tc := range []struct{ pos, n int }{{0, 10}, {10, 10}, {3, 10}, {1, 2}, {5, 7}} {
		xs := make([]float64, tc.n)
		for i := 0; i < tc.pos; i++ {
			xs[i] = 1
		}
		want := Variance(xs)
		got := BinaryVariance(tc.pos, tc.n)
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("BinaryVariance(%d,%d) = %v, want %v", tc.pos, tc.n, got, want)
		}
	}
	if BinaryVariance(1, 1) != 0 || BinaryVariance(0, 0) != 0 {
		t.Fatal("BinaryVariance with n<2 should be 0")
	}
}

func TestBinaryVarianceQuick(t *testing.T) {
	f := func(pos8, n8 uint8) bool {
		n := int(n8%50) + 2
		pos := int(pos8) % (n + 1)
		xs := make([]float64, n)
		for i := 0; i < pos; i++ {
			xs[i] = 1
		}
		return almostEqual(BinaryVariance(pos, n), Variance(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := IQR(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("IQR = %v, want 4", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	sm := Summarize(xs)
	if sm.N != 5 || sm.Min != 1 || sm.Max != 100 || sm.Median != 3 {
		t.Fatalf("bad summary %+v", sm)
	}
	if sm.Outliers != 1 {
		t.Fatalf("want 1 outlier (100), got %d", sm.Outliers)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Fatalf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-8, 0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999, 1 - 1e-8} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEqual(got, p, 1e-9) {
			t.Fatalf("round trip failed: p=%v -> x=%v -> %v", p, x, got)
		}
	}
	if z := NormalQuantile(0.975); !almostEqual(z, 1.959963984540054, 1e-9) {
		t.Fatalf("z_0.975 = %v", z)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestStudentTCDF(t *testing.T) {
	// Reference values from R: pt(q, df).
	cases := []struct{ t1, df, want float64 }{
		{0, 5, 0.5},
		{1, 1, 0.75},
		{2, 10, 0.963306},
		{-2, 10, 0.036694},
		{1.812461, 10, 0.95},
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t1, c.df); !almostEqual(got, c.want, 1e-5) {
			t.Fatalf("StudentTCDF(%v,%v) = %v, want %v", c.t1, c.df, got, c.want)
		}
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values from R: qt(p, df).
	cases := []struct{ p, df, want float64 }{
		{0.975, 10, 2.228139},
		{0.975, 1, 12.7062},
		{0.95, 30, 1.697261},
		{0.5, 7, 0},
		{0.025, 10, -2.228139},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.p, c.df); !almostEqual(got, c.want, 1e-4) {
			t.Fatalf("StudentTQuantile(%v,%v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	z := NormalQuantile(0.975)
	tq := StudentTQuantile(0.975, 1e6)
	if !almostEqual(z, tq, 1e-3) {
		t.Fatalf("t with huge df %v should approach z %v", tq, z)
	}
}

func TestWaldInterval(t *testing.T) {
	iv := WaldInterval(0.5, 100, 0, 0.05)
	want := 1.959963984540054 * math.Sqrt(0.25/100)
	if !almostEqual(iv.Lo, 0.5-want, 1e-9) || !almostEqual(iv.Hi, 0.5+want, 1e-9) {
		t.Fatalf("Wald = %+v", iv)
	}
	// FPC shrinks the interval.
	ivf := WaldInterval(0.5, 100, 200, 0.05)
	if ivf.Width() >= iv.Width() {
		t.Fatalf("FPC should shrink interval: %v vs %v", ivf.Width(), iv.Width())
	}
	// Sampling the whole population leaves no uncertainty.
	iv0 := WaldInterval(0.5, 200, 200, 0.05)
	if iv0.Width() > 1e-12 {
		t.Fatalf("census interval should have zero width, got %v", iv0.Width())
	}
}

func TestWilsonInterval(t *testing.T) {
	// p=0 still yields a non-degenerate upper bound (its main advantage).
	iv := WilsonInterval(0, 100, 0.05)
	if iv.Lo != 0 || iv.Hi <= 0 {
		t.Fatalf("Wilson at p=0: %+v", iv)
	}
	// Reference: Wilson 95% for 10/100 successes ≈ [0.0552, 0.1744].
	iv2 := WilsonInterval(0.1, 100, 0.05)
	if !almostEqual(iv2.Lo, 0.05523, 1e-3) || !almostEqual(iv2.Hi, 0.17436, 1e-3) {
		t.Fatalf("Wilson(0.1, 100) = %+v", iv2)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{0.2, 0.6}
	if !iv.Contains(0.4) || iv.Contains(0.7) {
		t.Fatal("Contains misbehaves")
	}
	if got := iv.Scale(10); got.Lo != 2 || got.Hi != 6 {
		t.Fatalf("Scale = %+v", got)
	}
	if !almostEqual(iv.Width(), 0.4, 1e-15) {
		t.Fatal("Width misbehaves")
	}
}

// TestWaldCoverage empirically verifies ~95% coverage for a mid-range
// proportion — the statistical guarantee sampling-based estimators inherit.
func TestWaldCoverage(t *testing.T) {
	r := xrand.New(99)
	const (
		trials = 2000
		n      = 400
		p      = 0.3
	)
	covered := 0
	for i := 0; i < trials; i++ {
		hits := 0
		for j := 0; j < n; j++ {
			if r.Bool(p) {
				hits++
			}
		}
		phat := float64(hits) / n
		if WaldInterval(phat, n, 0, 0.05).Contains(p) {
			covered++
		}
	}
	cov := float64(covered) / trials
	if cov < 0.92 || cov > 0.98 {
		t.Fatalf("Wald coverage = %v, want ≈0.95", cov)
	}
}

func TestZeroSampleIntervals(t *testing.T) {
	if iv := WaldInterval(0.5, 0, 0, 0.05); iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("n=0 Wald should be [0,1], got %+v", iv)
	}
	if iv := WilsonInterval(0.5, 0, 0.05); iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("n=0 Wilson should be [0,1], got %+v", iv)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NormalQuantile(0.975)
	}
}

func BenchmarkSummarize(b *testing.B) {
	r := xrand.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Summarize(xs)
	}
}
