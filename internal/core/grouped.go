package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/estimate"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// GroupCount is the estimate for one group of a grouped estimation run.
type GroupCount struct {
	N         int            // objects in the group
	Estimate  float64        // estimated count of positives in the group
	CI        stats.Interval // count interval; meaningful only if HasCI
	HasCI     bool
	Sampled   int  // distinct labeled objects the group's estimate used
	Positives int  // positives among Sampled
	Exact     bool // every object of the group was labeled
}

// GroupedResult is the outcome of one grouped estimation run: one
// GroupCount per group, indexed by the caller's dense group ids.
type GroupedResult struct {
	Method string
	Groups []GroupCount
	Evals  int64 // expensive-predicate evaluations spent, shared across groups
	Timing Timing
	Learn  LearnInfo  // the shared learn phase (zero for plans that do not learn)
	Design DesignInfo // the shared layout (zero for plans without strata)
}

// GroupedMethod estimates C(O_g, q) for every group of a partitioned object
// set within one shared labeling budget. groupOf assigns each object a
// dense group id in [0, K); the expensive predicate is evaluated at most
// once per object no matter how many estimates it feeds — that sharing,
// rather than a per-group re-run of the whole pipeline, is the point.
type GroupedMethod interface {
	Name() string
	// EstimateGroups runs one grouped estimation spending budget shared
	// evaluations of obj.Pred (plus a small bounded top-up for groups too
	// rare to be covered by the shared sample), drawing randomness from r.
	// Cancellation follows the Method contract: checked before every
	// predicate evaluation, consuming no randomness.
	EstimateGroups(ctx context.Context, obj *ObjectSet, groupOf []int, K int, budget int, r *xrand.Rand) (*GroupedResult, error)
}

// checkGroups validates a group assignment.
func checkGroups(obj *ObjectSet, groupOf []int, K int) error {
	if K < 1 {
		return fmt.Errorf("core: %d groups", K)
	}
	if len(groupOf) != obj.N() {
		return fmt.Errorf("core: %d group labels for %d objects", len(groupOf), obj.N())
	}
	for i, g := range groupOf {
		if g < 0 || g >= K {
			return fmt.Errorf("core: object %d has group %d outside [0, %d)", i, g, K)
		}
	}
	return nil
}

// groupMembers inverts groupOf into per-group member lists (ascending
// object index, so downstream draws are deterministic).
func groupMembers(groupOf []int, K int) [][]int {
	members := make([][]int, K)
	for i, g := range groupOf {
		members[g] = append(members[g], i)
	}
	return members
}

// MinPerGroup is the per-group sample floor of every grouped estimate: a
// group whose share of the shared sample is smaller gets a dedicated
// per-group draw up to this size (capped by the group's population).
// Re-labeling is free — labels are memoized — so the top-up costs at most
// the uncovered remainder.
const MinPerGroup = 10

// groupSRSEstimate turns a per-group SRS tally into a GroupCount.
func groupSRSEstimate(pos, n, N int, alpha float64, wilson bool) GroupCount {
	res := estimate.SRS(pos, n, N, AlphaOrDefault(alpha), wilson)
	gc := GroupCount{
		N:         N,
		Estimate:  res.Count,
		CI:        res.CI,
		HasCI:     true,
		Sampled:   n,
		Positives: pos,
	}
	if n == N {
		gc.Exact = true
		gc.Estimate = float64(pos)
		gc.CI = stats.Interval{Lo: float64(pos), Hi: float64(pos)}
	}
	return gc
}

// topUpGroup draws a dedicated SRS of size target from one group's members
// and labels it through the frame's memo, so already-labeled members cost
// nothing. The draw is unconditional over the whole group — a plain SRS of
// the group — which keeps the fallback estimate design-unbiased.
func (f frame) topUpGroup(members []int, target int, r *xrand.Rand) (pos int, err error) {
	draw := sample.SRSFrom(r, members, target)
	sort.Ints(draw)
	return f.labelCount(draw)
}

// GroupedSRS estimates every group from one shared simple random sample:
// budget objects are drawn uniformly from the whole population and labeled
// once; each group's members within the shared sample form a simple random
// sample of that group, so the per-group proportion estimator applies
// directly. Groups whose shared-sample share falls below MinPerGroup fall
// back to a dedicated per-group draw (labels stay memoized, so only the
// group's uncovered members cost new evaluations).
type GroupedSRS struct {
	Alpha  float64 // 0 means 0.05
	Wilson bool    // Wilson score intervals instead of Wald
}

// Name implements GroupedMethod.
func (m *GroupedSRS) Name() string { return "srs" }

// EstimateGroups implements GroupedMethod.
func (m *GroupedSRS) EstimateGroups(ctx context.Context, obj *ObjectSet, groupOf []int, K int, budget int, r *xrand.Rand) (*GroupedResult, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	if err := checkGroups(obj, groupOf, K); err != nil {
		return nil, err
	}
	f := open(ctx, obj, true)
	t0 := time.Now()

	// Shared phase: one SRS over the whole population, each draw labeled
	// once, tallied into its group.
	shared := sample.SRS(r, obj.N(), budget)
	sort.Ints(shared)
	sharedLabels, err := f.label(shared)
	if err != nil {
		return nil, err
	}
	inShared := make([]bool, obj.N())
	nG := make([]int, K)
	posG := make([]int, K)
	for j, i := range shared {
		inShared[i] = true
		nG[groupOf[i]]++
		if sharedLabels[j] {
			posG[groupOf[i]]++
		}
	}

	// Per-group estimates, with the rare-group fallback drawn in ascending
	// group order so the random stream is consumed deterministically.
	members := groupMembers(groupOf, K)
	groups := make([]GroupCount, K)
	for g := 0; g < K; g++ {
		Ng := len(members[g])
		target := MinPerGroup
		if target > Ng {
			target = Ng
		}
		n, pos := nG[g], posG[g]
		if n < target {
			// Top up from the group's not-yet-drawn members; the union of
			// the shared draw restricted to the group and a fresh SRS of the
			// remainder is itself an SRS of the group.
			pool := make([]int, 0, Ng-n)
			for _, i := range members[g] {
				if !inShared[i] {
					pool = append(pool, i)
				}
			}
			extraPos, err := f.topUpGroup(pool, target-n, r)
			if err != nil {
				return nil, err
			}
			n, pos = target, pos+extraPos
		}
		groups[g] = groupSRSEstimate(pos, n, Ng, m.Alpha, m.Wilson)
	}
	return f.groupedResult(m.Name(), GroupedResult{Groups: groups, Timing: Timing{Sample: time.Since(t0)}}), nil
}

// GroupedLSS shares one learning plan across all groups: it labels one
// learn sample, trains one classifier, scores every object once, lays
// score-ordered equal-count strata over the unlabeled rest, and draws one
// proportionally allocated stratified sample — then reads per-group counts
// out of the shared draw with the stratified domain (Horvitz–Thompson)
// estimator
//
//	Ĉ_g = C_g(SL) + Σ_h (N_h / n_h) · pos_{h,g}
//
// where C_g(SL) is the exact positive count among the group's learn-sample
// members and pos_{h,g} the group's positives among stratum h's n_h draws.
// The expensive predicate runs once per sampled object regardless of the
// number of groups; a naive per-group loop would re-learn (and re-label a
// pilot) K times. Groups with too few labeled members fall back to a
// dedicated per-group SRS, as in GroupedSRS.
type GroupedLSS struct {
	NewClassifier NewClassifierFunc
	Alpha         float64 // 0 means 0.05
	Strata        int     // number of strata H; 0 means 4
	Wilson        bool    // Wilson intervals for the per-group SRS fallback
	// (the shared stratified estimate keeps its t-interval regardless,
	// matching LSS; Wilson avoids the degenerate [0, 0] Wald interval when
	// a rare group's fallback sample has zero or all positives)
}

// Name implements GroupedMethod.
func (m *GroupedLSS) Name() string { return "lss" }

// EstimateGroups implements GroupedMethod.
func (m *GroupedLSS) EstimateGroups(ctx context.Context, obj *ObjectSet, groupOf []int, K int, budget int, r *xrand.Rand) (*GroupedResult, error) {
	if err := checkBudget(obj, budget); err != nil {
		return nil, err
	}
	if err := checkGroups(obj, groupOf, K); err != nil {
		return nil, err
	}
	f := open(ctx, obj, true)

	// Phase 1 (shared): learn and score once for all groups, at the default
	// learn fraction.
	nLearn := LearnSize(0, budget, 2)
	if nLearn < 2 {
		return nil, fmt.Errorf("core: budget %d too small for grouped LSS", budget)
	}
	l, err := f.learn(m.NewClassifier, nLearn, false, r)
	if err != nil {
		return nil, err
	}
	defer l.release()
	l.order()
	slN := make([]int, K)
	slPos := make([]int, K)
	for j, i := range l.SL {
		slN[groupOf[i]]++
		if l.labels[j] {
			slPos[groupOf[i]]++
		}
	}
	restIdx, M := l.restIdx, len(l.restIdx)

	// Shared design: equal-count strata over the score order with a
	// proportional allocation. (The per-group targets are unknown a priori,
	// so the optimal single-count designers do not apply; equal-count +
	// proportional is the layout that is simultaneously reasonable for
	// every group.)
	t1 := time.Now()
	nII := budget - len(l.SL)
	if nII > M {
		nII = M
	}
	H := StrataCount(m.Strata)
	if H > M && M > 0 {
		H = M
	}
	var cuts []int
	var alloc, sizes []int
	if M > 0 {
		cuts = stratify.EqualCount(M, H)
		sizes = make([]int, H)
		for h := 0; h < H; h++ {
			sizes[h] = cuts[h+1] - cuts[h]
		}
		alloc = estimate.ProportionalAllocation(sizes, nII, groupedMinAlloc)
	}
	designDur := time.Since(t1)

	// Phase 2 (shared): one stratified draw, each draw labeled once and
	// tallied into its (stratum, group) cell.
	t2 := time.Now()
	posHG := make([][]int, len(sizes))
	nH := make([]int, len(sizes))
	restSampled := make([]int, K)
	if M > 0 {
		pools := make([][]int, H)
		for h := 0; h < H; h++ {
			pools[h] = restIdx[cuts[h]:cuts[h+1]]
		}
		draws, err := sample.Stratified(r, pools, alloc)
		if err != nil {
			return nil, err
		}
		for h, dset := range draws {
			posHG[h] = make([]int, K)
			nH[h] = len(dset)
			labels, err := f.label(dset)
			if err != nil {
				return nil, err
			}
			for j, i := range dset {
				restSampled[groupOf[i]]++
				if labels[j] {
					posHG[h][groupOf[i]]++
				}
			}
		}
	}

	// Per-group domain estimates over the shared draw.
	members := groupMembers(groupOf, K)
	groups := make([]GroupCount, K)
	dfTotal := 0
	for h := range nH {
		dfTotal += nH[h]
	}
	df := dfTotal - len(nH)
	if df < 1 {
		df = 1
	}
	for g := 0; g < K; g++ {
		Ng := len(members[g])
		est := float64(slPos[g])
		varhat := 0.0
		pos := slPos[g]
		for h := range nH {
			if nH[h] == 0 {
				continue
			}
			Nh, nh := float64(sizes[h]), float64(nH[h])
			est += Nh / nh * float64(posHG[h][g])
			pos += posHG[h][g]
			s2 := stats.BinaryVariance(posHG[h][g], nH[h])
			varhat += Nh * Nh * (1/nh - 1/Nh) * s2
		}
		sampled := slN[g] + restSampled[g]
		gc := GroupCount{
			N:         Ng,
			Estimate:  est,
			HasCI:     true,
			Sampled:   sampled,
			Positives: pos,
		}
		gc.CI = stats.TInterval(est, math.Sqrt(varhat), df, AlphaOrDefault(m.Alpha))
		// The learn-sample positives are certain, and the unlabeled part of
		// the group bounds what remains; clamping both ends into [lo, hi]
		// keeps Lo ≤ Hi even when a zero-variance point estimate overshoots
		// the feasible range (the clamp is monotone).
		lo, hi := float64(slPos[g]), float64(slPos[g]+Ng-slN[g])
		gc.CI.Lo = math.Min(math.Max(gc.CI.Lo, lo), hi)
		gc.CI.Hi = math.Min(math.Max(gc.CI.Hi, lo), hi)
		gc.Estimate = math.Min(math.Max(gc.Estimate, lo), hi)
		if sampled == Ng {
			gc.Exact = true
			gc.Estimate = float64(pos)
			gc.CI = stats.Interval{Lo: float64(pos), Hi: float64(pos)}
		}
		groups[g] = gc
	}

	// Fallback to a dedicated per-group SRS, in ascending group order for
	// determinism, for groups the shared plan serves badly: ones it barely
	// touched, and ones whose every (stratum, group) cell was pure — there
	// the stratified variance estimate collapses to zero and the t-interval
	// degenerates to a point, which is not a credible interval for a group
	// that was only sampled. Labels stay memoized, so the fallback costs at
	// most the group's not-yet-labeled share of the fresh draw.
	for g := 0; g < K; g++ {
		Ng := len(members[g])
		target := MinPerGroup
		if target > Ng {
			target = Ng
		}
		degenerate := !groups[g].Exact && groups[g].CI.Width() <= 0
		if groups[g].Sampled >= target && !degenerate {
			continue
		}
		// Match the shared plan's coverage of the group so the fallback
		// never throws away sample size; re-drawn objects are mostly
		// already labeled and cost nothing.
		if groups[g].Sampled > target {
			target = groups[g].Sampled
		}
		fpos, err := f.topUpGroup(members[g], target, r)
		if err != nil {
			return nil, err
		}
		groups[g] = groupSRSEstimate(fpos, target, Ng, m.Alpha, m.Wilson)
	}
	timing := l.timing
	timing.Design, timing.Sample = designDur, time.Since(t2)
	return f.groupedResult(m.Name(), GroupedResult{
		Groups: groups,
		Timing: timing,
		Learn:  l.info,
		Design: DesignInfo{Algo: LayoutEqualCount.String()},
	}), nil
}

// GroupedOracle evaluates the predicate on every object and reports exact
// per-group counts — the slow path, for calibration and tests.
type GroupedOracle struct{}

// Name implements GroupedMethod.
func (GroupedOracle) Name() string { return "oracle" }

// EstimateGroups implements GroupedMethod.
func (GroupedOracle) EstimateGroups(ctx context.Context, obj *ObjectSet, groupOf []int, K int, _ int, _ *xrand.Rand) (*GroupedResult, error) {
	if err := checkGroups(obj, groupOf, K); err != nil {
		return nil, err
	}
	f := open(ctx, obj, false)
	t0 := time.Now()
	groups := make([]GroupCount, K)
	labels, err := f.label(predicate.AllIndices(obj.N()))
	if err != nil {
		return nil, err
	}
	for i := 0; i < obj.N(); i++ {
		g := groupOf[i]
		groups[g].N++
		groups[g].Sampled++
		if labels[i] {
			groups[g].Positives++
		}
	}
	for g := range groups {
		c := float64(groups[g].Positives)
		groups[g].Estimate = c
		groups[g].CI = stats.Interval{Lo: c, Hi: c}
		groups[g].HasCI = true
		groups[g].Exact = true
	}
	return f.groupedResult("oracle", GroupedResult{Groups: groups, Timing: Timing{Sample: time.Since(t0)}}), nil
}
