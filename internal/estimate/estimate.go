// Package estimate implements the count estimators of §3.1 and §4.1:
// the simple-random-sampling proportion estimator with Wald/Wilson
// intervals, the stratified estimator with its variance formula (eq. 1),
// sample allocation rules (proportional and constrained Neyman), and the
// Des Raj ordered estimator for PPS sampling without replacement (eq. 3).
package estimate

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Result is a point estimate of C(O, q) with a confidence interval.
type Result struct {
	Proportion  float64        // estimated positive proportion p̂
	Count       float64        // p̂ · N
	StdErr      float64        // standard error of p̂
	CI          stats.Interval // (1−alpha) interval for the count
	Alpha       float64
	SamplesUsed int
}

// SRS is the simple-random-sample estimate of a population of N from pos
// positives among n draws without replacement: p̂ with its finite-population
// corrected standard error and a Wald or, with wilson, a Wilson score
// interval (the one for extreme selectivities).
func SRS(pos, n, N int, alpha float64, wilson bool) Result {
	phat, se := 0.0, 0.0
	if n > 0 {
		phat = float64(pos) / float64(n)
		se = math.Sqrt(phat * (1 - phat) / float64(n))
		if N > 1 {
			se *= math.Sqrt(float64(N-n) / float64(N-1))
		}
	}
	iv := stats.WaldInterval(phat, n, N, alpha)
	if wilson {
		iv = stats.WilsonInterval(phat, n, alpha)
	}
	return Result{
		Proportion:  phat,
		Count:       phat * float64(N),
		StdErr:      se,
		CI:          iv.Scale(float64(N)),
		Alpha:       alpha,
		SamplesUsed: n,
	}
}

// Positives counts the true labels.
func Positives(labels []bool) int {
	pos := 0
	for _, b := range labels {
		if b {
			pos++
		}
	}
	return pos
}

// StratumSample is the observed labels of one stratum's sample.
type StratumSample struct {
	N         int // stratum population size N_h
	Sampled   int // n_h
	Positives int // number of q(o)=1 among the n_h
}

// Stratified combines per-stratum samples into the stratified estimator of
// §3.1: p̂ = Σ W_h p̂_h with variance (1). Degrees of freedom for the t
// interval are n − H (strata with n_h < 2 contribute no variance estimate
// and are treated as zero-variance).
func Stratified(strata []StratumSample, alpha float64) (Result, error) {
	N := 0
	n := 0
	for h, s := range strata {
		if s.Sampled > s.N {
			return Result{}, fmt.Errorf("estimate: stratum %d sampled %d > size %d", h, s.Sampled, s.N)
		}
		if s.Positives > s.Sampled {
			return Result{}, fmt.Errorf("estimate: stratum %d positives %d > sampled %d", h, s.Positives, s.Sampled)
		}
		N += s.N
		n += s.Sampled
	}
	if N == 0 {
		return Result{}, fmt.Errorf("estimate: empty population")
	}
	phat := 0.0
	varhat := 0.0
	for _, s := range strata {
		if s.N == 0 {
			continue
		}
		Wh := float64(s.N) / float64(N)
		ph := 0.0
		if s.Sampled > 0 {
			ph = float64(s.Positives) / float64(s.Sampled)
		}
		phat += Wh * ph
		if s.Sampled >= 2 {
			sh2 := stats.BinaryVariance(s.Positives, s.Sampled)
			// W_h² s_h²/n_h − W_h s_h²/N  (eq. 1 with sample variance)
			varhat += Wh*Wh*sh2/float64(s.Sampled) - Wh*sh2/float64(N)
		}
	}
	if varhat < 0 {
		varhat = 0
	}
	se := math.Sqrt(varhat)
	df := n - len(strata)
	if df < 1 {
		df = 1
	}
	iv := stats.TInterval(phat, se, df, alpha)
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if iv.Hi > 1 {
		iv.Hi = 1
	}
	return Result{
		Proportion:  phat,
		Count:       phat * float64(N),
		StdErr:      se,
		CI:          iv.Scale(float64(N)),
		Alpha:       alpha,
		SamplesUsed: n,
	}, nil
}

// StratifiedVariance evaluates the paper's eq. (1) for a known stratification
// and allocation, given per-stratum standard deviations. It is the quantity
// the LSS designers minimize.
func StratifiedVariance(Nh []int, Sh []float64, nh []int) float64 {
	N := 0
	for _, v := range Nh {
		N += v
	}
	if N == 0 {
		return 0
	}
	v := 0.0
	for h := range Nh {
		Wh := float64(Nh[h]) / float64(N)
		s2 := Sh[h] * Sh[h]
		if nh[h] > 0 {
			v += Wh * Wh * s2 / float64(nh[h])
		}
		v -= Wh * s2 / float64(N)
	}
	return v
}

// ProportionalAllocation splits n samples across strata proportionally to
// their sizes, honoring a per-stratum minimum (capped by stratum size) and
// the n_h ≤ N_h constraint, rebalancing as the paper's footnote prescribes.
func ProportionalAllocation(Nh []int, n, minPer int) []int {
	weights := make([]float64, len(Nh))
	for h, v := range Nh {
		weights[h] = float64(v)
	}
	return constrainedAllocation(Nh, weights, n, minPer)
}

// NeymanAllocation allocates n samples with n_h ∝ N_h S_h, honoring the
// same constraints. Zero-variance strata still receive the minimum so their
// variance estimate stays defined (§3.1's standard caveat). If every
// stratum has zero estimated deviation the allocation degrades to
// proportional.
func NeymanAllocation(Nh []int, Sh []float64, n, minPer int) []int {
	weights := make([]float64, len(Nh))
	allZero := true
	for h := range Nh {
		weights[h] = float64(Nh[h]) * Sh[h]
		if weights[h] > 0 {
			allZero = false
		}
	}
	if allZero {
		return ProportionalAllocation(Nh, n, minPer)
	}
	return constrainedAllocation(Nh, weights, n, minPer)
}

// constrainedAllocation distributes n samples proportionally to weights,
// subject to minPer ≤ n_h ≤ N_h, using iterative rebalancing.
func constrainedAllocation(Nh []int, weights []float64, n, minPer int) []int {
	H := len(Nh)
	alloc := make([]int, H)
	if H == 0 {
		return alloc
	}
	// Feasibility: total min may exceed n; then spread n as evenly as
	// possible respecting N_h. Total capacity may be under n; then take all.
	capTotal := 0
	for _, v := range Nh {
		capTotal += v
	}
	if n >= capTotal {
		copy(alloc, Nh)
		return alloc
	}

	fixed := make([]bool, H)
	remaining := n
	// Pin minimums first (capped by stratum size).
	mins := make([]int, H)
	minTotal := 0
	for h := range Nh {
		m := minPer
		if m > Nh[h] {
			m = Nh[h]
		}
		mins[h] = m
		minTotal += m
	}
	if minTotal >= n {
		// Not enough budget for all minimums: round-robin up to mins.
		for remaining > 0 {
			progressed := false
			for h := 0; h < H && remaining > 0; h++ {
				if alloc[h] < mins[h] {
					alloc[h]++
					remaining--
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		return alloc
	}
	copy(alloc, mins)
	remaining = n - minTotal

	// Iteratively hand out the remainder proportionally to weights among
	// strata not yet at capacity.
	for iter := 0; iter < H+2 && remaining > 0; iter++ {
		wsum := 0.0
		for h := range Nh {
			if !fixed[h] && alloc[h] < Nh[h] {
				wsum += weights[h]
			}
		}
		if wsum <= 0 {
			// No weighted stratum can absorb more; fall back to spreading
			// by free capacity.
			for h := 0; h < H && remaining > 0; h++ {
				free := Nh[h] - alloc[h]
				if free > 0 {
					take := free
					if take > remaining {
						take = remaining
					}
					alloc[h] += take
					remaining -= take
				}
			}
			break
		}
		// Fractional shares with largest-remainder rounding.
		shares := make([]float64, H)
		floorSum := 0
		for h := range Nh {
			if fixed[h] || alloc[h] >= Nh[h] {
				continue
			}
			shares[h] = float64(remaining) * weights[h] / wsum
			floorSum += int(shares[h])
		}
		handed := 0
		for h := range Nh {
			if fixed[h] || alloc[h] >= Nh[h] {
				continue
			}
			give := int(shares[h])
			if alloc[h]+give > Nh[h] {
				give = Nh[h] - alloc[h]
				fixed[h] = true
			}
			alloc[h] += give
			handed += give
		}
		remaining -= handed
		if handed == 0 {
			// Distribute leftovers one-by-one by largest fractional part.
			for remaining > 0 {
				best, bestFrac := -1, -1.0
				for h := range Nh {
					if alloc[h] >= Nh[h] {
						continue
					}
					frac := shares[h] - math.Floor(shares[h])
					if frac > bestFrac {
						best, bestFrac = h, frac
					}
				}
				if best < 0 {
					break
				}
				alloc[best]++
				remaining--
			}
		}
	}
	return alloc
}

// DesRaj is the ordered estimator for PPS sampling without replacement
// (§4.1, eq. 3). Feed draws in order with Add; Estimate is valid after any
// number of draws, which is what makes the estimator "ordered".
type DesRaj struct {
	n     int     // population size N
	sumQ  float64 // Σ_{j<i} q(o_j)
	sumPi float64 // Σ_{j<i} π(o_j)
	ps    []float64
}

// NewDesRaj creates an estimator for a population of n objects.
func NewDesRaj(n int) *DesRaj { return &DesRaj{n: n} }

// Add records the i-th draw: the predicate outcome q and the object's
// initial sampling probability pi (π(o) normalized over the full
// population).
func (d *DesRaj) Add(q bool, pi float64) {
	qv := 0.0
	if q {
		qv = 1
	}
	var p float64
	if pi <= 0 {
		// An impossible draw (π=0) cannot occur under the scheme; guard
		// against caller error without dividing by zero.
		p = d.sumQ / float64(d.n)
	} else {
		p = (d.sumQ + qv/pi*(1-d.sumPi)) / float64(d.n)
	}
	d.ps = append(d.ps, p)
	d.sumQ += qv
	d.sumPi += pi
}

// Draws returns the number of draws recorded.
func (d *DesRaj) Draws() int { return len(d.ps) }

// Estimate returns the current point estimate and confidence interval for
// the count over a population of size N.
func (d *DesRaj) Estimate(alpha float64) Result {
	n := len(d.ps)
	if n == 0 {
		return Result{CI: stats.Interval{Lo: 0, Hi: float64(d.n)}, Alpha: alpha}
	}
	phat := stats.Mean(d.ps)
	varhat := 0.0
	if n >= 2 {
		varhat = stats.Variance(d.ps) / float64(n)
	}
	se := math.Sqrt(varhat)
	df := n - 1
	if df < 1 {
		df = 1
	}
	iv := stats.TInterval(phat, se, df, alpha)
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if iv.Hi > 1 {
		iv.Hi = 1
	}
	return Result{
		Proportion:  phat,
		Count:       phat * float64(d.n),
		StdErr:      se,
		CI:          iv.Scale(float64(d.n)),
		Alpha:       alpha,
		SamplesUsed: n,
	}
}
