package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of
// the samples at or below it. Nearest rank always returns an observed
// latency, so a percentile never reads between two op classes.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// cyclePercentile is how a run reports a latency percentile: the nearest-rank
// percentile of each whole pattern cycle (20 consecutive stream positions,
// always 12 + 5 + 3 ops of the three classes, so every cycle is the same
// mix), and then the median over the cycles. at[k] is the stream position of
// ms[k]; a cycle with a failed or missing op is left out. A pooled p95 rests
// on the slowest twentieth of the whole run, so a few seconds in which a
// neighbour takes the cores move it as much as a real regression would; a
// burst like that spoils the cycles it falls in and the median passes over
// them. Without a single whole cycle (smoke runs) it is the pooled
// percentile.
func cyclePercentile(at []int, ms []float64, p float64) (v float64, cycles int) {
	byCycle := make(map[int][]float64)
	for k, i := range at {
		byCycle[i/len(classPattern)] = append(byCycle[i/len(classPattern)], ms[k])
	}
	var per []float64
	for _, lat := range byCycle {
		if len(lat) == len(classPattern) {
			sort.Float64s(lat)
			per = append(per, percentile(lat, p))
		}
	}
	if len(per) == 0 {
		return percentile(sortedCopy(ms), p), 0
	}
	return median(per), len(per)
}

// percentileLadder is the fixed set of percentiles the harness may report
// as "the highest one the sample supports".
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it in a sample of n, and false when even the
// median does not.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000-1e-9 { // n·(1−p/100) ≥ 10, without the rounding of 1−p/100
			best, ok = p, true
		}
	}
	return best, ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the conventional median (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the exclusive method
// (positions (n+1)/4 and 3(n+1)/4 with linear interpolation) — the rule
// Python's statistics.quantiles(values, n=4) applies, so spreads printed
// by -compare match the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// binomialBand returns the central 95 % range of the share of successes in
// n Bernoulli(p) trials, by the normal approximation with a continuity
// correction — precise enough for a printed warning.
func binomialBand(n int, p float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	sd := math.Sqrt(p * (1 - p) / float64(n))
	half := 1.96*sd + 0.5/float64(n)
	return math.Max(0, p-half), math.Min(1, p+half)
}
