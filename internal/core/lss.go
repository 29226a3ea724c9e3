package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/estimate"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// Layout selects how LSS lays out strata over the score-ordered objects
// (the §5.4.1 comparison).
type Layout int

// Layout values.
const (
	// LayoutOptimal uses the paper's variance-minimizing designers (§4.2.1).
	LayoutOptimal Layout = iota
	// LayoutFixedWidth divides the score range into even increments.
	LayoutFixedWidth
	// LayoutEqualCount gives every stratum the same number of objects
	// (the paper's "fixed height").
	LayoutEqualCount
)

func (l Layout) String() string {
	switch l {
	case LayoutOptimal:
		return "optimal"
	case LayoutFixedWidth:
		return "fixed-width"
	case LayoutEqualCount:
		return "fixed-height"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// LSS is Learned Stratified Sampling (§4.2): order the unlabeled objects by
// classifier score, draw a pilot SI (pilotFrac of the sampling budget),
// jointly design stratification and Neyman allocation from the pilot (DirSol
// at H = 3, otherwise the Neyman dynamic program, or the proportional one
// past six strata), then draw the second-stage sample SII (at least
// lssMinAlloc per stratum) and form the stratified estimate. LSS uses only
// the score ordering — not the score values — so it degrades gracefully
// with classifier quality (§5.4.4).
type LSS struct {
	NewClassifier NewClassifierFunc
	Alpha         float64 // 0 means 0.05
	TrainFrac     float64 // budget fraction for phase 1; 0 means 0.25
	Strata        int     // number of strata H; 0 means 4
	Layout        Layout
}

// Name implements Method.
func (m *LSS) Name() string { return "lss" }

// constraintsFor builds feasibility constraints scaled to the instance.
func constraintsFor(M, mPilot, H int) stratify.Constraints {
	mq := mPilot / (3 * H)
	if mq > 5 {
		mq = 5
	}
	if mq < 2 {
		mq = 2
	}
	nq := M / (5 * H)
	if nq < 2 {
		nq = 2
	}
	return stratify.Constraints{MinStratumSize: nq, MinPilotPerStratum: mq}
}

// design computes the stratification cuts for the ordered object set and
// reports which algorithm produced them.
func (m *LSS) design(pilot *stratify.Pilot, scores []float64, nII int) ([]int, DesignInfo) {
	H := StrataCount(m.Strata)
	switch m.Layout {
	case LayoutFixedWidth:
		return stratify.FixedWidth(scores, H), DesignInfo{Algo: m.Layout.String()}
	case LayoutEqualCount:
		return stratify.EqualCount(pilot.N, H), DesignInfo{Algo: m.Layout.String()}
	}
	c := constraintsFor(pilot.N, pilot.M(), H)
	var d *stratify.Design
	var err error
	var algo string
	switch {
	case H == 3:
		algo = "dirsol"
		d, err = stratify.DirSol(pilot, nII, c)
	case H > 6:
		// Both dynamic programs evaluate each candidate pair once; the
		// Neyman one then updates up to |T|·(H−2) cells per pair where
		// the separable proportional one updates H−2, and for many
		// strata the latter finds a near-identical layout (allocation
		// stays Neyman regardless). Measured at N = 10 000, 45 pilot
		// labels, H = 8 on a 2-vCPU box: 5.5 ms against 3.0 ms, ≈ 1.8×
		// (EXPERIMENTS.md); moving the switch would change fixed-seed
		// output.
		algo = "dynpgmp"
		d, err = stratify.DynPgmP(pilot, H, nII, c)
	default:
		algo = "dynpgm"
		d, err = stratify.DynPgm(pilot, H, nII, c)
	}
	if err != nil {
		// Infeasible optimal design (tiny pilots, extreme constraints):
		// fall back to the equal-count layout rather than failing the run.
		return stratify.EqualCount(pilot.N, H), DesignInfo{
			Algo:     LayoutEqualCount.String(),
			Fallback: algo + ": " + err.Error(),
		}
	}
	return d.Cuts, DesignInfo{Algo: algo, Candidates: d.Candidates, Bounds: d.Bounds}
}

// Estimate implements Method.
func (m *LSS) Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)

	// Phase 1: learn, score and order.
	nLearn := LearnSize(m.TrainFrac, budget, 2)
	if nLearn < 2 {
		return nil, fmt.Errorf("core: budget %d too small for LSS", budget)
	}
	l, err := f.learn(m.NewClassifier, nLearn, false, r)
	if err != nil {
		return nil, err
	}
	defer l.release()
	l.order()
	restIdx, M := l.restIdx, len(l.restIdx)

	// Phase 2, stage 1: pilot + design.
	t1 := time.Now()
	sampling := budget - len(l.SL)
	nI := int(math.Round(pilotFrac * float64(sampling)))
	if nI < 2 {
		nI = 2
	}
	if nI > sampling-1 {
		nI = sampling - 1
	}
	nII := sampling - nI
	if nI > M {
		nI = M
		nII = 0
	}

	pilotPos := sample.SRS(r, M, nI)
	sort.Ints(pilotPos)
	pilotObjs := make([]int, len(pilotPos))
	for j, p := range pilotPos {
		pilotObjs[j] = restIdx[p]
	}
	pilotQ, err := f.label(pilotObjs)
	if err != nil {
		return nil, err
	}
	pilot, err := stratify.NewPilot(M, pilotPos, pilotQ)
	if err != nil {
		return nil, err
	}
	cuts, info := m.design(pilot, l.scores, max(nII, 1))
	H := len(cuts) - 1

	// Per-stratum pilot statistics for allocation. Allocation uses the
	// Laplace-smoothed deviation so that strata whose pilot sample happens
	// to be pure are not starved (footnote 1 of §3.1): a pilot that saw 5/5
	// positives is consistent with a true proportion well below 1.
	sizes := make([]int, H)
	Sh := make([]float64, H)
	for h := 0; h < H; h++ {
		sizes[h] = cuts[h+1] - cuts[h]
		mh, pos := pilot.StratumCounts(cuts[h], cuts[h+1])
		Sh[h] = stratify.SmoothedStdDev(mh, pos)
	}
	// Second-stage pools exclude pilot positions; positions are dense in
	// [0, M), so a bitmap beats a hash set in this O(M) loop.
	inPilot := make([]bool, M)
	for _, p := range pilotPos {
		inPilot[p] = true
	}
	pools := make([][]int, H)
	for h := 0; h < H; h++ {
		for p := cuts[h]; p < cuts[h+1]; p++ {
			if !inPilot[p] {
				pools[h] = append(pools[h], restIdx[p])
			}
		}
	}
	alloc := estimate.NeymanAllocation(poolSizes(pools), Sh, nII, lssMinAlloc)
	designDur := time.Since(t1)

	// Phase 2, stage 2: draw SII and estimate.
	t2 := time.Now()
	res, err := f.secondStage(pools, sizes, alloc, m.Alpha, r)
	if err != nil {
		return nil, err
	}
	timing := l.timing
	timing.Design, timing.Sample = designDur, time.Since(t2)
	cs := float64(l.pos)
	return f.result(m.Name(), Result{
		Estimate: cs + res.Count,
		CI:       stats.Interval{Lo: cs + res.CI.Lo, Hi: cs + res.CI.Hi},
		HasCI:    true,
		Timing:   timing,
		Learn:    l.info,
		Design:   info,
	}), nil
}
