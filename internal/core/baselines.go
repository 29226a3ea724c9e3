package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/estimate"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// SRS is simple random sampling (§3.1): draw the whole budget uniformly
// without replacement and estimate the proportion.
type SRS struct {
	Alpha  float64 // confidence level; 0 means 0.05
	Wilson bool    // use the Wilson interval (recommended at extreme selectivities)
}

// Name implements Method.
func (s *SRS) Name() string { return "srs" }

func (s *SRS) alpha() float64 {
	if s.Alpha <= 0 {
		return 0.05
	}
	return s.Alpha
}

// Estimate implements Method.
func (s *SRS) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	t0 := time.Now()
	idx := sample.SRS(r, obj.N(), budget)
	pos, err := labelCount(ctx, tp, idx)
	if err != nil {
		return nil, err
	}
	var res estimate.Result
	if s.Wilson {
		res = estimate.ProportionWilson(pos, budget, obj.N(), s.alpha())
	} else {
		res = estimate.Proportion(pos, budget, obj.N(), s.alpha())
	}
	return &Result{
		Method:   s.Name(),
		Estimate: res.Count,
		CI:       res.CI,
		HasCI:    true,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Sample: time.Since(t0), Predicate: tp.Dur},
	}, nil
}

// gridStrata partitions objects into a k×k grid over two surrogate
// attributes (or a 1-d split if one attribute is given), the SSP/SSN
// stratification of §3.1. Empty cells are dropped.
func gridStrata(obj *ObjectSet, attrIdx []int, strata int) ([][]int, error) {
	if len(attrIdx) == 0 {
		attrIdx = []int{0, 1}
	}
	d := len(obj.Features[0])
	for _, a := range attrIdx {
		if a < 0 || a >= d {
			return nil, fmt.Errorf("core: surrogate attribute %d out of range (d=%d)", a, d)
		}
	}
	if len(attrIdx) > 2 {
		attrIdx = attrIdx[:2]
	}
	if strata < 1 {
		strata = 4
	}
	var perDim int
	if len(attrIdx) == 1 {
		perDim = strata
	} else {
		perDim = int(math.Round(math.Sqrt(float64(strata))))
		if perDim < 1 {
			perDim = 1
		}
	}
	// Quantile boundaries per attribute.
	bounds := make([][]float64, len(attrIdx))
	for j, a := range attrIdx {
		vals := make([]float64, obj.N())
		for i, f := range obj.Features {
			vals[i] = f[a]
		}
		bounds[j] = stratify.GridCuts(vals, perDim)
	}
	cells := make(map[int][]int)
	for i, f := range obj.Features {
		cell := 0
		for j, a := range attrIdx {
			cell = cell*perDim + stratify.GridAssign(f[a], bounds[j])
		}
		cells[cell] = append(cells[cell], i)
	}
	pools := make([][]int, 0, len(cells))
	for cell := 0; cell < perDim*perDim+perDim; cell++ {
		if p, ok := cells[cell]; ok {
			pools = append(pools, p)
		}
	}
	return pools, nil
}

// SSP is stratified sampling with proportional allocation over an
// attribute-grid stratification (§3.1).
type SSP struct {
	Alpha    float64
	Strata   int   // total strata (grid of ⌈√Strata⌉ per dimension); 0 means 4
	AttrIdx  []int // surrogate attribute indices; nil means {0, 1}
	MinAlloc int   // per-stratum minimum allocation; 0 means 1
}

// Name implements Method.
func (s *SSP) Name() string { return "ssp" }

func (s *SSP) alpha() float64 {
	if s.Alpha <= 0 {
		return 0.05
	}
	return s.Alpha
}

func (s *SSP) minAlloc() int {
	if s.MinAlloc <= 0 {
		return 1
	}
	return s.MinAlloc
}

// Estimate implements Method.
func (s *SSP) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	t0 := time.Now()
	pools, err := gridStrata(obj, s.AttrIdx, s.Strata)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(pools))
	for h, p := range pools {
		sizes[h] = len(p)
	}
	alloc := estimate.ProportionalAllocation(sizes, budget, s.minAlloc())
	design := time.Since(t0)

	t1 := time.Now()
	draws, err := sample.Stratified(r, pools, alloc)
	if err != nil {
		return nil, err
	}
	strata := make([]estimate.StratumSample, len(pools))
	for h, dr := range draws {
		pos, err := labelCount(ctx, tp, dr)
		if err != nil {
			return nil, err
		}
		strata[h] = estimate.StratumSample{N: sizes[h], Sampled: len(dr), Positives: pos}
	}
	res, err := estimate.Stratified(strata, s.alpha())
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:   s.Name(),
		Estimate: res.Count,
		CI:       res.CI,
		HasCI:    true,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Design: design, Sample: time.Since(t1), Predicate: tp.Dur},
	}, nil
}

// SSN is two-stage stratified sampling with Neyman allocation (§3.1): a
// pilot estimates per-stratum deviations, then the remaining budget is
// allocated n_h ∝ N_h S_h.
type SSN struct {
	Alpha     float64
	Strata    int
	AttrIdx   []int
	PilotFrac float64 // fraction of budget spent on the pilot; 0 means 0.3
	MinAlloc  int
}

// Name implements Method.
func (s *SSN) Name() string { return "ssn" }

func (s *SSN) alpha() float64 {
	if s.Alpha <= 0 {
		return 0.05
	}
	return s.Alpha
}

func (s *SSN) pilotFrac() float64 {
	if s.PilotFrac <= 0 || s.PilotFrac >= 1 {
		return 0.3
	}
	return s.PilotFrac
}

func (s *SSN) minAlloc() int {
	if s.MinAlloc <= 0 {
		return 5
	}
	return s.MinAlloc
}

// Estimate implements Method.
func (s *SSN) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	t0 := time.Now()
	pools, err := gridStrata(obj, s.AttrIdx, s.Strata)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(pools))
	poolOf := make(map[int]int) // object → stratum
	for h, p := range pools {
		sizes[h] = len(p)
		for _, i := range p {
			poolOf[i] = h
		}
	}

	// Stage 1: pilot to estimate S_h.
	nPilot := int(math.Round(s.pilotFrac() * float64(budget)))
	if nPilot < len(pools) {
		nPilot = minInt(len(pools), budget/2)
	}
	if nPilot >= budget {
		nPilot = budget / 2
	}
	pilotIdx := sample.SRS(r, obj.N(), nPilot)
	pilotLabels, err := predicate.Label(tp, pilotIdx, canceled(ctx))
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
	restSizes := make([]int, len(pools))
	for h, p := range pools {
		for _, i := range p {
			if !pilotSet[i] {
				rest[h] = append(rest[h], i)
			}
		}
		restSizes[h] = len(rest[h])
	}
	alloc := estimate.NeymanAllocation(restSizes, Sh, budget-nPilot, s.minAlloc())
	design := time.Since(t0)

	t1 := time.Now()
	draws, err := sample.Stratified(r, rest, alloc)
	if err != nil {
		return nil, err
	}
	strata := make([]estimate.StratumSample, len(pools))
	for h, dr := range draws {
		pos, err := labelCount(ctx, tp, dr)
		if err != nil {
			return nil, err
		}
		strata[h] = estimate.StratumSample{N: sizes[h], Sampled: len(dr), Positives: pos}
	}
	res, err := estimate.Stratified(strata, s.alpha())
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:   s.Name(),
		Estimate: res.Count,
		CI:       res.CI,
		HasCI:    true,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Design: design, Sample: time.Since(t1), Predicate: tp.Dur},
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
