// Package stratify implements the sampling-design half of Learned
// Stratified Sampling (§4.2): given N objects ordered by classifier score
// and a labeled pilot sample, find the stratification (and, implicitly, the
// allocation) minimizing the estimated variance of the stratified count
// estimator.
//
// It provides the paper's four design algorithms —
//
//   - DirSol (§4.2.1): (almost) exact closed-form optimization for H = 3,
//   - LogBdr (§4.2.1): candidate boundaries at power-of-two offsets, any H,
//   - DynPgm (§4.2.1): auxiliary-sum-bounded dynamic program, any H,
//   - DynPgmP (§4.2.2): separable dynamic program for proportional
//     allocation (ratio 2),
//
// plus the fixed-width and equal-count layout baselines of §5.4.1 and a
// brute-force reference optimizer used by tests to validate the
// approximation guarantees of Theorems 1–4.
package stratify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Pilot is the first-stage sample SI over an ordered object set: the sorted
// positions (0-based ranks in score order) of the m labeled objects and
// their labels. Γ — the prefix-positive index of §4.2.1 — is precomputed so
// every stratum variance is O(1).
type Pilot struct {
	N     int    // number of objects in the ordered set O
	Pos   []int  // strictly increasing 0-based positions of pilot samples
	Q     []bool // labels, aligned with Pos
	gamma []int  // gamma[k] = positives among the first k pilot samples
}

// NewPilot validates and indexes a pilot sample.
func NewPilot(n int, pos []int, q []bool) (*Pilot, error) {
	if len(pos) != len(q) {
		return nil, fmt.Errorf("stratify: %d positions but %d labels", len(pos), len(q))
	}
	for i, p := range pos {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("stratify: position %d out of [0,%d)", p, n)
		}
		if i > 0 && pos[i-1] >= p {
			return nil, fmt.Errorf("stratify: positions not strictly increasing at %d", i)
		}
	}
	gamma := make([]int, len(pos)+1)
	for i, b := range q {
		gamma[i+1] = gamma[i]
		if b {
			gamma[i+1]++
		}
	}
	return &Pilot{N: n, Pos: pos, Q: q, gamma: gamma}, nil
}

// M returns the pilot sample size m.
func (p *Pilot) M() int { return len(p.Pos) }

// CountUpTo returns ℓ(b): the number of pilot samples at positions < b.
func (p *Pilot) CountUpTo(b int) int {
	return sort.SearchInts(p.Pos, b)
}

// SampleStats returns the count and binary sample variance of pilot samples
// with (1-based) sample indices in (lo, hi]; that is, samples lo+1..hi.
func (p *Pilot) SampleStats(lo, hi int) (m int, s2 float64) {
	m = hi - lo
	if m < 2 {
		return m, 0
	}
	pos := p.gamma[hi] - p.gamma[lo]
	return m, stats.BinaryVariance(pos, m)
}

// StratumStats returns the pilot count and binary sample variance for the
// stratum of objects with positions in [lo, hi).
func (p *Pilot) StratumStats(lo, hi int) (m int, s2 float64) {
	return p.SampleStats(p.CountUpTo(lo), p.CountUpTo(hi))
}

// StratumCounts returns the pilot sample count and positive count for the
// stratum of objects with positions in [lo, hi).
func (p *Pilot) StratumCounts(lo, hi int) (m, pos int) {
	l, h := p.CountUpTo(lo), p.CountUpTo(hi)
	return h - l, p.gamma[h] - p.gamma[l]
}

// SmoothedStdDev returns a Laplace-smoothed standard-deviation estimate for
// allocation purposes: p̃ = (pos+1)/(m+2), s̃ = √(p̃(1−p̃)). Unlike the raw
// sample deviation, it never reports zero for a stratum whose pilot sample
// merely happened to be pure — the paper's footnote 1 caveat that no
// stratum should be starved "even if its estimated standard deviation is
// close to 0".
func SmoothedStdDev(m, pos int) float64 {
	pt := (float64(pos) + 1) / (float64(m) + 2)
	return math.Sqrt(pt * (1 - pt))
}

// Design is a stratification: H+1 cut positions 0 = Cuts[0] < Cuts[1] < …
// < Cuts[H] = N, where stratum h covers object positions
// [Cuts[h-1], Cuts[h]). V is the design objective achieved (eq. 5 for
// Neyman-allocation designers, eq. 6 for proportional). The dynamic-
// programming designers also report the work behind it: Candidates is |B|,
// Bounds the number of auxiliary-sum bounds |T| swept (DynPgm only).
type Design struct {
	Cuts       []int
	V          float64
	Candidates int
	Bounds     int
}

// H returns the number of strata.
func (d *Design) H() int { return len(d.Cuts) - 1 }

// Sizes returns the stratum sizes N_h.
func (d *Design) Sizes() []int {
	out := make([]int, d.H())
	for h := 1; h < len(d.Cuts); h++ {
		out[h-1] = d.Cuts[h] - d.Cuts[h-1]
	}
	return out
}

// Constraints are the feasibility requirements of §4.2: every stratum must
// hold at least MinStratumSize objects (N_⊔) and contain at least
// MinPilotPerStratum pilot samples (m_⊔, so s_h is a meaningful estimate).
type Constraints struct {
	MinStratumSize     int
	MinPilotPerStratum int
}

func (c Constraints) normalized() Constraints {
	if c.MinPilotPerStratum < 2 {
		c.MinPilotPerStratum = 2
	}
	if c.MinStratumSize < 1 {
		c.MinStratumSize = 1
	}
	return c
}

// feasible reports whether the cuts satisfy the constraints.
func (c Constraints) feasible(p *Pilot, cuts []int) bool {
	for h := 1; h < len(cuts); h++ {
		if cuts[h]-cuts[h-1] < c.MinStratumSize {
			return false
		}
		if m, _ := p.StratumStats(cuts[h-1], cuts[h]); m < c.MinPilotPerStratum {
			return false
		}
	}
	return true
}

// NeymanObjective evaluates eq. (5): V = (1/n)(Σ N_h s_h)² − Σ N_h s_h²,
// the estimated variance (scaled by N²) achieved by a Neyman allocation of
// n second-stage samples on the given stratification.
func NeymanObjective(p *Pilot, cuts []int, n int) float64 {
	sum := 0.0
	sub := 0.0
	for h := 1; h < len(cuts); h++ {
		nh := float64(cuts[h] - cuts[h-1])
		_, s2 := p.StratumStats(cuts[h-1], cuts[h])
		sum += nh * math.Sqrt(s2)
		sub += nh * s2
	}
	return sum*sum/float64(n) - sub
}

// PropObjective evaluates eq. (6): V = (N−n)/n · Σ N_h s_h², the estimated
// variance under proportional allocation.
func PropObjective(p *Pilot, cuts []int, n int) float64 {
	sub := 0.0
	for h := 1; h < len(cuts); h++ {
		nh := float64(cuts[h] - cuts[h-1])
		_, s2 := p.StratumStats(cuts[h-1], cuts[h])
		sub += nh * s2
	}
	return float64(p.N-n) / float64(n) * sub
}

// validateDesignInput checks shared preconditions of the designers.
func validateDesignInput(p *Pilot, H, n int, c Constraints) error {
	if H < 2 {
		return fmt.Errorf("stratify: need H ≥ 2 strata, got %d", H)
	}
	if n < 1 {
		return fmt.Errorf("stratify: need n ≥ 1 second-stage samples")
	}
	if H*c.MinStratumSize > p.N {
		return fmt.Errorf("stratify: %d strata of ≥%d objects exceed N=%d", H, c.MinStratumSize, p.N)
	}
	if H*c.MinPilotPerStratum > p.M() {
		return fmt.Errorf("stratify: %d strata of ≥%d pilot samples exceed m=%d", H, c.MinPilotPerStratum, p.M())
	}
	return nil
}
