package lsample

import (
	"context"

	"repro/internal/obs"
	"repro/internal/predicate"
)

// Predicate is the expensive filter q: object index → bool. The SDK counts
// evaluations for you; the function itself should be pure.
type Predicate func(i int) bool

// Estimator is the non-SQL facade: estimate how many of your own objects
// satisfy an expensive predicate, given a feature vector per object. This
// is the embeddable form of the paper's problem — no tables, no parser,
// just features and a callback.
type Estimator struct {
	cfg config
}

// NewEstimator builds an estimator from options (method, classifier,
// budget, seed, …). The zero option set is the paper's default: LSS with a
// 100-tree random forest, 4 strata, a 2% budget, and 95% Wald intervals.
func NewEstimator(opts ...Option) (*Estimator, error) {
	cfg, err := newConfig(defaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	// Surface bad method/classifier names at construction, not first use.
	if _, err := cfg.buildMethod(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg}, nil
}

// Method returns the configured method name.
func (e *Estimator) Method() string { return e.cfg.method }

// Estimate estimates how many of the len(features) objects satisfy pred,
// spending at most the configured budget fraction of predicate
// evaluations. Feature vectors must all have the same length; feature-free
// methods (srs, oracle) accept empty vectors. Options override the
// constructor's for this call only. Cancellation of ctx aborts the run at
// the next predicate evaluation with an error wrapping context.Canceled.
//
// For a fixed seed the result is byte-identical across runs and across
// parallelism settings.
func (e *Estimator) Estimate(ctx context.Context, features [][]float64, pred Predicate, opts ...Option) (*Estimate, error) {
	cfg, err := newConfig(e.cfg, opts)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		return nil, badf("nil predicate")
	}
	m, err := cfg.buildMethod()
	if err != nil {
		return nil, err
	}
	p := predicate.NewFunc(pred)
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "execute")
	defer span.End()
	span.Set("method", cfg.method)
	span.Set("objects", len(features))
	est, _, err := cfg.classic(ctx, "estimation", features, p, m.Estimate)
	if err != nil {
		return nil, err
	}
	// Callback predicates stay on the interpreter-style sequential path:
	// the SDK makes no thread-safety demands on user functions, and there
	// is no SQL to compile.
	est.Labeling = Labeling{Fallback: "callback predicate (nothing to compile)", Workers: 1}
	return est, nil
}
