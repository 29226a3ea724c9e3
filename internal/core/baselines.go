package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/estimate"
	"repro/internal/sample"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// SRS is simple random sampling (§3.1): draw the whole budget uniformly
// without replacement and estimate the proportion.
type SRS struct {
	Wilson bool // use the Wilson interval (recommended at extreme selectivities)
}

// Name implements Method.
func (s *SRS) Name() string { return "srs" }

// Estimate implements Method.
func (s *SRS) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)
	t0 := time.Now()
	pos, err := f.labelCount(sample.SRS(r, obj.N(), budget))
	if err != nil {
		return nil, err
	}
	res := estimate.SRS(pos, budget, obj.N(), Alpha, s.Wilson)
	return f.result(s.Name(), Result{Estimate: res.Count, CI: res.CI, HasCI: true, Timing: Timing{Sample: time.Since(t0)}}), nil
}

// gridStrata partitions objects into a k×k grid, k = ⌈√strata⌋, over the two
// surrogate attributes — the SSP/SSN stratification of §3.1. Cells are the
// attributes' quantile ranges; empty cells are dropped.
func gridStrata(obj *ObjectSet, strata int) ([][]int, error) {
	d := len(obj.Features[0])
	for _, a := range surrogateAttrs {
		if a >= d {
			return nil, fmt.Errorf("core: surrogate attribute %d out of range (d=%d)", a, d)
		}
	}
	if strata < 1 {
		strata = defaultStrata
	}
	perDim := int(math.Round(math.Sqrt(float64(strata))))
	var bounds [len(surrogateAttrs)][]float64
	for j, a := range surrogateAttrs {
		vals := make([]float64, obj.N())
		for i, f := range obj.Features {
			vals[i] = f[a]
		}
		bounds[j] = stratify.GridCuts(vals, perDim)
	}
	cells := make([][]int, perDim*perDim)
	for i, f := range obj.Features {
		cell := 0
		for j, a := range surrogateAttrs {
			cell = cell*perDim + stratify.GridAssign(f[a], bounds[j])
		}
		cells[cell] = append(cells[cell], i)
	}
	pools := cells[:0]
	for _, p := range cells {
		if len(p) > 0 {
			pools = append(pools, p)
		}
	}
	return pools, nil
}

// poolSizes returns the size of every pool.
func poolSizes(pools [][]int) []int {
	sizes := make([]int, len(pools))
	for h, p := range pools {
		sizes[h] = len(p)
	}
	return sizes
}

// SSP is stratified sampling with proportional allocation over an
// attribute-grid stratification (§3.1).
type SSP struct {
	Strata int // total strata (grid of ⌈√Strata⌉ per dimension); 0 means 4
}

// Name implements Method.
func (s *SSP) Name() string { return "ssp" }

// Estimate implements Method.
func (s *SSP) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)
	t0 := time.Now()
	pools, err := gridStrata(obj, s.Strata)
	if err != nil {
		return nil, err
	}
	sizes := poolSizes(pools)
	alloc := estimate.ProportionalAllocation(sizes, budget, sspMinAlloc)
	design := time.Since(t0)

	t1 := time.Now()
	res, err := f.secondStage(pools, sizes, alloc, r)
	if err != nil {
		return nil, err
	}
	return f.result(s.Name(), Result{Estimate: res.Count, CI: res.CI, HasCI: true,
		Timing: Timing{Design: design, Sample: time.Since(t1)}}), nil
}

// SSN is two-stage stratified sampling with Neyman allocation (§3.1): a
// pilot of pilotFrac of the budget estimates per-stratum deviations, then
// the remaining budget is allocated n_h ∝ N_h S_h.
type SSN struct {
	Strata int
}

// Name implements Method.
func (s *SSN) Name() string { return "ssn" }

// Estimate implements Method.
func (s *SSN) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)
	t0 := time.Now()
	pools, err := gridStrata(obj, s.Strata)
	if err != nil {
		return nil, err
	}
	poolOf := make(map[int]int) // object → stratum
	for h, p := range pools {
		for _, i := range p {
			poolOf[i] = h
		}
	}

	// Stage 1: pilot to estimate S_h.
	nPilot := int(math.Round(pilotFrac * float64(budget)))
	if nPilot < len(pools) {
		nPilot = min(len(pools), budget/2)
	}
	if nPilot >= budget {
		nPilot = budget / 2
	}
	pilotIdx := sample.SRS(r, obj.N(), nPilot)
	pilotLabels, err := f.label(pilotIdx)
	if err != nil {
		return nil, err
	}
	pilotPos := make([]int, len(pools))
	pilotCnt := make([]int, len(pools))
	pilotSet := make(map[int]bool, nPilot)
	for j, i := range pilotIdx {
		pilotSet[i] = true
		h := poolOf[i]
		pilotCnt[h]++
		if pilotLabels[j] {
			pilotPos[h]++
		}
	}
	// Laplace-smoothed deviations: a pure pilot sample must not zero out a
	// stratum's allocation (footnote 1 of §3.1).
	Sh := make([]float64, len(pools))
	for h := range pools {
		Sh[h] = stratify.SmoothedStdDev(pilotCnt[h], pilotPos[h])
	}
	// Stage 2 pools exclude pilot objects.
	rest := make([][]int, len(pools))
	for h, p := range pools {
		for _, i := range p {
			if !pilotSet[i] {
				rest[h] = append(rest[h], i)
			}
		}
	}
	alloc := estimate.NeymanAllocation(poolSizes(rest), Sh, budget-nPilot, ssnMinAlloc)
	design := time.Since(t0)

	t1 := time.Now()
	res, err := f.secondStage(rest, poolSizes(pools), alloc, r)
	if err != nil {
		return nil, err
	}
	return f.result(s.Name(), Result{Estimate: res.Count, CI: res.CI, HasCI: true,
		Timing: Timing{Design: design, Sample: time.Since(t1)}}), nil
}
