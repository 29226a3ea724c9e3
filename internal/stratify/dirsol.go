package stratify

import (
	"fmt"
	"math"
)

// DirSol is the (almost) exact H = 3 designer of §4.2.1 and Appendix A:
// for every pair (i, j) of pilot-sample indices delimiting the three
// strata, the estimated variance is a bivariate quadratic f(N1, N3) over a
// ≤5-sided polygon; we minimize it in closed form (critical point + edges),
// round to integer boundaries, and keep the overall best design.
//
// Theorem 1: assuming N_⊔ > n, the returned design's estimated variance is
// within a (1 + 2/N_⊔ + 2/(N_⊔−n) + 4/(N_⊔(N_⊔−n))) factor of optimal, in
// O(N log m + m²) time.
func DirSol(p *Pilot, n int, c Constraints) (*Design, error) {
	c = c.normalized()
	if err := validateDesignInput(p, 3, n, c); err != nil {
		return nil, err
	}
	m := p.M()
	N := p.N
	mq := c.MinPilotPerStratum
	Nq := c.MinStratumSize

	best := &Design{V: math.Inf(1)}
	// 1-based sample ranks ı_k = Pos[k-1]+1.
	rank := func(k int) int { return p.Pos[k-1] + 1 }

	for i := mq; i+mq < m-mq+1; i++ {
		for j := i + mq + 1; j <= m-mq+1; j++ {
			// Strata samples: (0, i], (i, j-1], (j-1, m].
			_, s1sq := p.SampleStats(0, i)
			_, s2sq := p.SampleStats(i, j-1)
			_, s3sq := p.SampleStats(j-1, m)
			s1, s2, s3 := math.Sqrt(s1sq), math.Sqrt(s2sq), math.Sqrt(s3sq)

			lo1 := max(Nq, rank(i))
			hi1 := rank(i+1) - 1
			lo3 := max(Nq, N-rank(j)+1)
			hi3 := N - rank(j-1)
			diag := N - Nq // N1 + N3 ≤ diag
			if lo1 > hi1 || lo3 > hi3 || lo1+lo3 > diag {
				continue
			}

			nf, Nf := float64(n), float64(N)
			a1 := (s1 - s2) * (s1 - s2) / nf
			a2 := (s3 - s2) * (s3 - s2) / nf
			a3 := 2 * (s1 - s2) * (s3 - s2) / nf
			a4 := 2*(s1-s2)*Nf*s2/nf - (s1sq - s2sq)
			a5 := 2*(s3-s2)*Nf*s2/nf - (s3sq - s2sq)
			a6 := Nf*Nf*s2sq/nf - Nf*s2sq
			f := func(x1, x3 float64) float64 {
				return a1*x1*x1 + a2*x3*x3 + a3*x1*x3 + a4*x1 + a5*x3 + a6
			}

			// Collect real-valued candidate minimizers.
			var cands [][2]float64
			// Critical point of the quadratic.
			det := 4*a1*a2 - a3*a3
			if math.Abs(det) > 1e-18 {
				x := (a3*a5 - 2*a2*a4) / det
				y := (a3*a4 - 2*a1*a5) / det
				cands = append(cands, [2]float64{x, y})
			}
			// Box edges (x fixed, minimize over y; and vice versa).
			for _, x := range []float64{float64(lo1), float64(hi1)} {
				yLo, yHi := float64(lo3), math.Min(float64(hi3), float64(diag)-x)
				if yLo <= yHi {
					y := minQuadratic(a2, a3*x+a5, yLo, yHi)
					cands = append(cands, [2]float64{x, y}, [2]float64{x, yLo}, [2]float64{x, yHi})
				}
			}
			for _, y := range []float64{float64(lo3), float64(hi3)} {
				xLo, xHi := float64(lo1), math.Min(float64(hi1), float64(diag)-y)
				if xLo <= xHi {
					x := minQuadratic(a1, a3*y+a4, xLo, xHi)
					cands = append(cands, [2]float64{x, y}, [2]float64{xLo, y}, [2]float64{xHi, y})
				}
			}
			// Diagonal edge x + y = diag.
			{
				D := float64(diag)
				xLo := math.Max(float64(lo1), D-float64(hi3))
				xHi := math.Min(float64(hi1), D-float64(lo3))
				if xLo <= xHi {
					// f(x, D−x) = (a1+a2−a3)x² + (a3 D − 2 a2 D + a4 − a5)x + const
					A := a1 + a2 - a3
					B := a3*D - 2*a2*D + a4 - a5
					x := minQuadratic(A, B, xLo, xHi)
					cands = append(cands, [2]float64{x, D - x}, [2]float64{xLo, D - xLo}, [2]float64{xHi, D - xHi})
				}
			}

			// Round each candidate to nearby integer points inside R.
			for _, cd := range cands {
				for _, x1 := range []int{int(math.Floor(cd[0])), int(math.Ceil(cd[0]))} {
					for _, x3 := range []int{int(math.Floor(cd[1])), int(math.Ceil(cd[1]))} {
						n1, n3 := clampPoint(x1, x3, lo1, hi1, lo3, hi3, diag)
						if n1 < 0 {
							continue
						}
						v := f(float64(n1), float64(n3))
						if v < best.V {
							best.V = v
							best.Cuts = []int{0, n1, N - n3, N}
						}
					}
				}
			}
		}
	}
	if best.Cuts == nil {
		return nil, fmt.Errorf("stratify: DirSol found no feasible 3-stratification (m=%d, N=%d, constraints %+v)", m, N, c)
	}
	// Report the exact objective for the chosen integer cuts.
	best.V = NeymanObjective(p, best.Cuts, n)
	return best, nil
}

// clampPoint clamps (x1, x3) into the polygon; returns (-1, -1) if the
// polygon cannot absorb the point.
func clampPoint(x1, x3, lo1, hi1, lo3, hi3, diag int) (int, int) {
	if x1 < lo1 {
		x1 = lo1
	}
	if x1 > hi1 {
		x1 = hi1
	}
	if x3 < lo3 {
		x3 = lo3
	}
	if x3 > hi3 {
		x3 = hi3
	}
	if x1+x3 > diag {
		// Pull x3 down first, then x1.
		x3 = diag - x1
		if x3 < lo3 {
			x3 = lo3
			x1 = diag - x3
			if x1 < lo1 || x1 > hi1 {
				return -1, -1
			}
		}
		if x3 > hi3 {
			return -1, -1
		}
	}
	return x1, x3
}

// minQuadratic returns the x in [lo, hi] minimizing A x² + B x.
func minQuadratic(A, B, lo, hi float64) float64 {
	bestX, bestV := lo, A*lo*lo+B*lo
	if v := A*hi*hi + B*hi; v < bestV {
		bestX, bestV = hi, v
	}
	if A > 0 {
		x := -B / (2 * A)
		if x >= lo && x <= hi {
			if v := A*x*x + B*x; v < bestV {
				bestX = x
			}
		}
	}
	return bestX
}
