// Package core implements the paper's estimation methods behind a single
// Method interface: the sampling baselines SRS, SSP, and SSN (§3.1), the
// quantification-learning baselines QLCC and QLAC (§3.2), and the paper's
// contributions — Learned Weighted Sampling (§4.1) and Learned Stratified
// Sampling (§4.2).
//
// Every method spends a labeling budget: a maximum number of evaluations of
// the expensive predicate q. Sampling-based methods return estimates with
// confidence intervals; quantification methods return point estimates only,
// which is exactly the trade the paper studies.
//
// The methods share one skeleton, and each shared step has one definition:
//
//   - the run frame (frame, this file): ctx defaulting, q behind a timer,
//     the evaluation counter, and the Result / GroupedResult epilogue
//     (Method, Evals, Timing.Predicate). A body keeps its own checkBudget
//     (the oracles skip it) and its own phases.
//   - the learn step (frame.learn, learnphase.go) of LWS, LSS, QLCC, QLAC
//     and GroupedLSS: default classifier, label and fit the learn sample
//     (optionally augmented by uncertainty sampling), count its positives,
//     score the rest, and report Timing.Learn / Fit / Score and LearnInfo.
//     The caller passes its learn-sample size and whether it augments; the
//     two bodies that stratify the score order call learned.order.
//   - the stratified second stage (frame.secondStage, this file) of SSP, SSN
//     and LSS: draw the allocation from the pools, label each stratum's
//     draw, and form the §3.1 stratified estimate — the one call site of
//     estimate.Stratified in this package.
//   - one rule each for the learn-sample size (LearnSize), the default
//     stratum count (StrataCount) and the confidence level (Alpha, and
//     AlphaOrDefault for the shard plan's option), shared with
//     internal/shard's hash-plan recipe.
//
// What no caller varies is a constant here, not an option — each beside the
// section of the paper whose step it parameterizes:
//
//	constant          value   step
//	Alpha             0.05    §5 set-up: 95 % intervals
//	defaultTrainFrac  0.25    §5 set-up: a quarter of the budget trains g
//	defaultStrata     4       §5 set-up: H = 4 unless a figure varies it
//	pilotFrac         0.3     §3.1 (SSN), §4.2 (LSS): the first stage's share
//	sspMinAlloc       1       §3.1: proportional allocation samples every stratum
//	ssnMinAlloc       5       §3.1: Neyman allocation's per-stratum floor
//	lssMinAlloc       5       §4.2.1: n_⊔, the second-stage per-stratum minimum
//	groupedMinAlloc   2       the grouped plan's proportional floor
//	augmentFrac       0.1     §3.2: the learn sample's uncertainty-sampled share
//	acFolds           5       §3.2: cross-validation folds of the adjusted count
//	surrogateAttrs    {0, 1}  §3.1: the two attributes SSP / SSN grid over
//
// and an augmentation round scores at most active.PoolCap candidates.
// (LSS.MinAlloc used to document "0 means 2"; the code always used 5.)
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/estimate"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ObjectSet is one instance of the §2 problem: N objects enumerable by
// index, a feature vector per object (the attributes referenced by q, per
// the paper's feature-selection heuristic), and the expensive predicate.
type ObjectSet struct {
	Features [][]float64
	Pred     predicate.Predicate
}

// NewObjectSet validates and bundles a problem instance.
func NewObjectSet(features [][]float64, pred predicate.Predicate) (*ObjectSet, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("core: empty object set")
	}
	if pred == nil {
		return nil, fmt.Errorf("core: nil predicate")
	}
	d := len(features[0])
	for i, f := range features {
		if len(f) != d {
			return nil, fmt.Errorf("core: object %d has %d features, want %d", i, len(f), d)
		}
	}
	return &ObjectSet{Features: features, Pred: pred}, nil
}

// N returns the number of objects.
func (o *ObjectSet) N() int { return len(o.Features) }

// Timing breaks an estimation run into the paper's Figure 3 phases.
// Overhead is everything that is not predicate evaluation.
type Timing struct {
	Learn     time.Duration // P1 learning: sampling, labeling, training, scoring
	Fit       time.Duration // within Learn: inside Classifier.Fit, every round — the phase's fixed cost
	Score     time.Duration // within Learn: scoring the unlabeled objects — its per-object cost
	Design    time.Duration // P1 sample design: variance estimates + strata layout
	Sample    time.Duration // P2: sampling, iteration, estimation
	Predicate time.Duration // total time inside q (across all phases)
}

// Total returns the wall time of all phases.
func (t Timing) Total() time.Duration { return t.Learn + t.Design + t.Sample }

// Overhead returns non-labeling time: Total − Predicate.
func (t Timing) Overhead() time.Duration {
	ov := t.Total() - t.Predicate
	if ov < 0 {
		return 0
	}
	return ov
}

// DesignInfo reports how LSS laid out its strata (zero for other methods).
type DesignInfo struct {
	Algo       string // designer or layout that produced the cuts: "dynpgm", "dirsol", "fixed-height", …
	Candidates int    // |B|, candidate boundaries considered (dynamic-programming designers)
	Bounds     int    // |T|, auxiliary-sum bounds swept (DynPgm)
	Fallback   string // the requested designer and its error when equal-count replaced it; else empty
}

// LearnInfo sizes the learn phase (zero for methods that do not learn).
type LearnInfo struct {
	TrainRows int // labeled rows the classifier was fit on
	Scored    int // unlabeled objects the phase scored (0 when scoring belongs to the count itself: QLCC, QLAC)
	Trees     int // fitted ensemble size, when the classifier reports one
	Nodes     int
	Score     learn.ScorePath // how the ensemble scored (zero for other classifiers): grid or walk, and the grid's size
}

// Result is the outcome of one estimation run.
type Result struct {
	Method   string
	Estimate float64        // estimated count C(O, q)
	CI       stats.Interval // count interval; meaningful only if HasCI
	HasCI    bool
	Evals    int64 // predicate evaluations spent
	Timing   Timing
	Learn    LearnInfo
	Design   DesignInfo
}

// Method estimates C(O, q) within a labeling budget.
type Method interface {
	Name() string
	// Estimate runs one estimation spending at most budget evaluations of
	// obj.Pred, drawing randomness from r. Cancellation of ctx is observed
	// cooperatively at labeling-loop granularity: an in-flight run returns a
	// wrapped ctx.Err() before its next predicate evaluation instead of
	// running to completion. A nil ctx means context.Background(). The ctx
	// checks consume no randomness, so for an uncanceled ctx the estimate is
	// byte-identical at any parallelism to what a ctx-free run produced.
	Estimate(ctx context.Context, obj *ObjectSet, budget int, r *xrand.Rand) (*Result, error)
}

// NewClassifierFunc builds a fresh classifier for a given seed; methods
// derive per-run seeds from their *xrand.Rand so that repeated trials are
// independent yet reproducible.
type NewClassifierFunc func(seed uint64) learn.Classifier

// ForestClassifier returns a constructor for the paper's default
// classifier — a random forest with 100 trees — with the given internal
// parallelism (0 = all cores, 1 = sequential). Callers that already
// parallelize at an outer level (e.g. concurrent experiment trials) should
// pass 1 so nested pools don't oversubscribe the machine.
func ForestClassifier(parallelism int) NewClassifierFunc {
	return func(seed uint64) learn.Classifier {
		f := learn.NewRandomForest(100, seed)
		f.Parallelism = parallelism
		return f
	}
}

// DefaultForest is the paper's default classifier: a random forest with 100
// trees, training and scoring on all cores.
func DefaultForest(seed uint64) learn.Classifier { return ForestClassifier(0)(seed) }

// The fixed parameters (the package comment's table says where each acts).
const (
	defaultTrainFrac = 0.25
	defaultStrata    = 4
	pilotFrac        = 0.3
	sspMinAlloc      = 1
	ssnMinAlloc      = 5
	lssMinAlloc      = 5
	groupedMinAlloc  = 2
	augmentFrac      = 0.1
	acFolds          = 5
)

// surrogateAttrs are the two feature columns SSP and SSN lay their grid over.
var surrogateAttrs = [2]int{0, 1}

// Alpha is the confidence level of every interval the methods report: an
// interval covers 1 − Alpha.
const Alpha = 0.05

// AlphaOrDefault resolves a confidence option: α ≤ 0 means Alpha.
func AlphaOrDefault(alpha float64) float64 {
	if alpha <= 0 {
		return Alpha
	}
	return alpha
}

// StrataCount resolves a stratum-count option H: fewer than 2 means 4.
func StrataCount(h int) int {
	if h < 2 {
		return defaultStrata
	}
	return h
}

// LearnSize is the learn-sample size at a budget: frac of it (outside (0, 1)
// means a quarter), at least 2, and leaving reserve evaluations for the
// estimation sample. A result under 2 says the budget funds no learn sample.
func LearnSize(frac float64, budget, reserve int) int {
	if frac <= 0 || frac >= 1 {
		frac = defaultTrainFrac
	}
	n := int(math.Round(frac * float64(budget)))
	if n < 2 {
		n = 2
	}
	if n > budget-reserve {
		n = budget - reserve
	}
	return n
}

// frame is what every Estimate / EstimateGroups body runs in: a non-nil
// ctx, q behind a timer (and, for the grouped plans, a memo), the
// evaluation counter's starting value, and the result epilogue.
type frame struct {
	ctx   context.Context
	obj   *ObjectSet
	pred  predicate.Predicate // what the body labels through
	timed *predicate.Timed
	start int64
}

// open starts a run over obj; memo puts a label memo in front of q, so an
// object several estimates read is evaluated once.
func open(ctx context.Context, obj *ObjectSet, memo bool) frame {
	if ctx == nil {
		ctx = context.Background()
	}
	tp := &predicate.Timed{P: obj.Pred}
	f := frame{ctx: ctx, obj: obj, pred: tp, timed: tp, start: obj.Pred.Evals()}
	if memo {
		f.pred = predicate.NewMemo(tp, obj.N())
	}
	return f
}

// label labels a pre-chosen sample set, checking ctx before every
// evaluation.
func (f frame) label(idxs []int) ([]bool, error) {
	return predicate.Label(f.pred, idxs, func() error { return f.canceled() })
}

// canceled reports a cancellation as a wrapped, method-attributable error.
// It is the cooperative cancellation point every labeling loop calls before
// spending the next predicate evaluation.
func (f frame) canceled() error {
	if err := f.ctx.Err(); err != nil {
		return fmt.Errorf("core: estimation canceled: %w", err)
	}
	return nil
}

// labelCount labels a pre-chosen sample set and returns its positive count.
func (f frame) labelCount(idxs []int) (int, error) {
	labels, err := f.label(idxs)
	if err != nil {
		return 0, err
	}
	return estimate.Positives(labels), nil
}

// spent closes the frame's books: evaluations of q since it opened and the
// time spent inside them.
func (f frame) spent() (int64, time.Duration) {
	return f.obj.Pred.Evals() - f.start, f.timed.Dur
}

// result finishes a run's Result: the body fills in what it estimated and
// its phase timings, the frame the method name and what the run cost.
func (f frame) result(method string, res Result) *Result {
	res.Method = method
	res.Evals, res.Timing.Predicate = f.spent()
	return &res
}

// groupedResult is result for a grouped run.
func (f frame) groupedResult(method string, res GroupedResult) *GroupedResult {
	res.Method = method
	res.Evals, res.Timing.Predicate = f.spent()
	return &res
}

// secondStage is the stratified estimate of §3.1, the one place this
// package forms it: draw alloc[h] objects from pools[h], label each
// stratum's draw, and estimate over strata of sizes[h] objects (a pool is
// its stratum minus whatever an earlier stage already labeled).
func (f frame) secondStage(pools [][]int, sizes, alloc []int, r *xrand.Rand) (estimate.Result, error) {
	draws, err := sample.Stratified(r, pools, alloc)
	if err != nil {
		return estimate.Result{}, err
	}
	strata := make([]estimate.StratumSample, len(pools))
	for h, draw := range draws {
		pos, err := f.labelCount(draw)
		if err != nil {
			return estimate.Result{}, err
		}
		strata[h] = estimate.StratumSample{N: sizes[h], Sampled: len(draw), Positives: pos}
	}
	return estimate.Stratified(strata, Alpha)
}

// checkBudget validates common preconditions.
func checkBudget(obj *ObjectSet, budget int) error {
	if budget < 1 {
		return fmt.Errorf("core: budget %d < 1", budget)
	}
	if budget > obj.N() {
		return fmt.Errorf("core: budget %d exceeds population %d", budget, obj.N())
	}
	return nil
}

// Oracle evaluates q on every object — the exact, expensive path. It
// ignores the budget and is used for ground truth in tests and experiment
// calibration.
type Oracle struct{}

// Name implements Method.
func (Oracle) Name() string { return "oracle" }

// Estimate evaluates the predicate exhaustively, through the batch path
// when the predicate has one.
func (Oracle) Estimate(ctx context.Context, obj *ObjectSet, _ int, _ *xrand.Rand) (*Result, error) {
	f := open(ctx, obj, false)
	t0 := time.Now()
	count, err := f.labelCount(predicate.AllIndices(obj.N()))
	if err != nil {
		return nil, err
	}
	c := float64(count)
	return f.result("oracle", Result{
		Estimate: c,
		CI:       stats.Interval{Lo: c, Hi: c},
		HasCI:    true,
		Timing:   Timing{Sample: time.Since(t0)},
	}), nil
}
