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
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/learn"
	"repro/internal/predicate"
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

// labelCount labels a pre-chosen sample set and returns its positive count.
func labelCount(ctx context.Context, pred predicate.Predicate, idxs []int) (int, error) {
	labels, err := predicate.Label(pred, idxs, canceled(ctx))
	if err != nil {
		return 0, err
	}
	return countPositives(labels), nil
}

// orBackground normalizes a nil ctx so methods can check it unconditionally.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ctxErr reports a cancellation as a wrapped, method-attributable error. It
// is the cooperative cancellation point every labeling loop calls before
// spending the next predicate evaluation.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: estimation canceled: %w", err)
	}
	return nil
}

// canceled is ctxErr in the shape predicate.Label polls between
// evaluations.
func canceled(ctx context.Context) func() error {
	return func() error { return ctxErr(ctx) }
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

// countPositives tallies true labels.
func countPositives(labels []bool) int {
	c := 0
	for _, b := range labels {
		if b {
			c++
		}
	}
	return c
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
	ctx = orBackground(ctx)
	tp := &predicate.Timed{P: obj.Pred}
	start := obj.Pred.Evals()
	t0 := time.Now()
	count, err := labelCount(ctx, tp, predicate.AllIndices(obj.N()))
	if err != nil {
		return nil, err
	}
	c := float64(count)
	return &Result{
		Method:   "oracle",
		Estimate: c,
		CI:       stats.Interval{Lo: c, Hi: c},
		HasCI:    true,
		Evals:    obj.Pred.Evals() - start,
		Timing:   Timing{Sample: time.Since(t0), Predicate: tp.Dur},
	}, nil
}
