// Package stats provides the statistical substrate shared by the samplers,
// estimators, and the experiment harness: descriptive statistics, quantiles
// and interquartile ranges, normal and Student-t distributions, and the
// proportion confidence intervals (Wald, Wilson, t) used throughout the
// paper's §3.1.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (Bessel-corrected) sample variance.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// BinaryVariance returns the unbiased sample variance of a 0/1 sample with
// pos positives among n draws: pos/(n-1) * (1 - pos/n). This is the s_h²
// used by every stratification formula in the paper (§4.2). It returns 0
// when n < 2.
func BinaryVariance(pos, n int) float64 {
	if n < 2 {
		return 0
	}
	p := float64(pos)
	fn := float64(n)
	return p / (fn - 1) * (1 - p/fn)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// IQR returns the interquartile range (Q3 − Q1) of xs.
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
}

// Summary describes the distribution of a set of measurements the way the
// paper's violin plots do: quartiles, spread, and outliers by the 1.5·IQR
// fence rule.
type Summary struct {
	N        int
	Min      float64
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64
	Mean     float64
	StdDev   float64
	IQR      float64
	Outliers int // points outside [Q1-1.5·IQR, Q3+1.5·IQR]
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	var sm Summary
	sm.N = len(xs)
	if sm.N == 0 {
		return sm
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sm.Min = s[0]
	sm.Max = s[len(s)-1]
	sm.Q1 = quantileSorted(s, 0.25)
	sm.Median = quantileSorted(s, 0.5)
	sm.Q3 = quantileSorted(s, 0.75)
	sm.Mean = Mean(s)
	sm.StdDev = StdDev(s)
	sm.IQR = sm.Q3 - sm.Q1
	lo := sm.Q1 - 1.5*sm.IQR
	hi := sm.Q3 + 1.5*sm.IQR
	for _, x := range s {
		if x < lo || x > hi {
			sm.Outliers++
		}
	}
	return sm
}

// NormalCDF returns P(Z ≤ x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the x with NormalCDF(x) = p, the z_p quantile.
// It uses Acklam's rational approximation refined by one Halley step and is
// accurate to ~1e-15 over (0, 1). It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step using the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// regIncBeta returns the regularized incomplete beta function I_x(a, b)
// computed with the continued-fraction expansion (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	// Use the symmetry relation for faster convergence.
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	const (
		eps     = 1e-15
		tiny    = 1e-300
		maxIter = 500
	)
	f, c, dd := 1.0, 1.0, 0.0
	for i := 0; i <= maxIter; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x /
				((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x /
				((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		dd = 1 + numerator*dd
		if math.Abs(dd) < tiny {
			dd = tiny
		}
		dd = 1 / dd
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * dd
		if math.Abs(1-c*dd) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// StudentTCDF returns P(T ≤ t) for a Student-t variable with df degrees of
// freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		panic("stats: StudentTCDF requires df > 0")
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the t with StudentTCDF(t, df) = p, found by
// bisection on the exact CDF (monotone, so this is robust for all df).
func StudentTQuantile(p, df float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: StudentTQuantile requires 0 < p < 1")
	}
	if df <= 0 {
		panic("stats: StudentTQuantile requires df > 0")
	}
	if p == 0.5 {
		return 0
	}
	// Bracket the root; the normal quantile is a good scale reference.
	guess := NormalQuantile(p)
	lo, hi := guess-1, guess+1
	for StudentTCDF(lo, df) > p {
		lo -= math.Max(1, math.Abs(lo))
	}
	for StudentTCDF(hi, df) < p {
		hi += math.Max(1, math.Abs(hi))
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if hi-lo < 1e-12*math.Max(1, math.Abs(mid)) {
			return mid
		}
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Interval is a two-sided confidence interval for a proportion or count.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in [Lo, Hi].
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// WaldInterval returns the (1−alpha) Wald confidence interval for a
// proportion estimated as phat from n draws without replacement out of a
// population of N (finite population correction (N−n)/(N−1), as in §3.1).
// Pass N ≤ 0 to omit the correction.
func WaldInterval(phat float64, n int, N int, alpha float64) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	z := NormalQuantile(1 - alpha/2)
	se := math.Sqrt(phat * (1 - phat) / float64(n))
	if N > 1 && n <= N {
		se *= math.Sqrt(float64(N-n) / float64(N-1))
	}
	return clampUnit(Interval{phat - z*se, phat + z*se})
}

// WilsonInterval returns the (1−alpha) Wilson score interval for a
// proportion, which remains reliable for extreme selectivities where the
// Wald interval degenerates (the "usual caveat" of §3.1).
func WilsonInterval(phat float64, n int, alpha float64) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	z := NormalQuantile(1 - alpha/2)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (phat + z2/(2*nf)) / denom
	half := z * math.Sqrt(phat*(1-phat)/nf+z2/(4*nf*nf)) / denom
	return clampUnit(Interval{center - half, center + half})
}

// TInterval returns mean ± t_{alpha/2, df} · se.
func TInterval(mean, se float64, df int, alpha float64) Interval {
	if df < 1 {
		df = 1
	}
	t := StudentTQuantile(1-alpha/2, float64(df))
	return Interval{mean - t*se, mean + t*se}
}

func clampUnit(iv Interval) Interval {
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if iv.Hi > 1 {
		iv.Hi = 1
	}
	return iv
}

// Scale returns the interval scaled by f (used to turn proportion intervals
// into count intervals).
func (iv Interval) Scale(f float64) Interval {
	return Interval{iv.Lo * f, iv.Hi * f}
}
