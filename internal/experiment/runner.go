package experiment

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Options scale an experiment run. Zero values mean reduced defaults
// suitable for interactive runs, except Rows, whose 0 builds each dataset at
// its paper size; cmd/lsbench defaults -rows to 8000 and -full sets it to 0.
type Options struct {
	Rows        int       // dataset rows; 0 builds each dataset at its paper size
	Trials      int       // trials per distribution; 0 means 30
	Seed        uint64    // root seed; 0 means 1
	SampleFracs []float64 // labeling budgets as fraction of N; nil means {0.01, 0.02}
	Dataset     string    // "sports", "neighbors", or "" (both where applicable)
	// Parallelism bounds the concurrent trials per distribution: 0 means
	// GOMAXPROCS, 1 forces sequential execution. Results are bit-identical
	// at any value (see RunDistP).
	Parallelism int
}

func (o Options) trials() int {
	if o.Trials <= 0 {
		return 30
	}
	return o.Trials
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) fracs() []float64 {
	if len(o.SampleFracs) == 0 {
		return []float64{0.01, 0.02}
	}
	return o.SampleFracs
}

func (o Options) datasets() []string {
	if o.Dataset != "" {
		return []string{o.Dataset}
	}
	return []string{"neighbors", "sports"}
}

// buildSuite constructs a workload suite under the options.
func (o Options) buildSuite(name string) (*workload.Suite, error) {
	return workload.Build(name, o.Rows, o.seed())
}

// Dist is the estimate distribution of one method on one instance.
type Dist struct {
	Method     string
	Estimates  []float64
	Truth      int
	Summary    stats.Summary
	TotalEvals int64 // predicate evaluations summed over all trials
}

// RelIQR is the interquartile range normalized by the true count (the
// comparison statistic used throughout §5).
func (d *Dist) RelIQR() float64 {
	if d.Truth == 0 {
		return d.Summary.IQR
	}
	return d.Summary.IQR / float64(d.Truth)
}

// RunDistP runs trials independent estimations and summarizes the estimate
// distribution, fanning trials across parallelism workers (0 means
// GOMAXPROCS, 1 forces sequential execution). Each trial draws a fresh
// sub-stream from the root seed and an independent predicate counter.
//
// Determinism: every per-trial randomness stream is split from the root
// seed in trial order before any trial is dispatched, each trial gets its
// own ObjectSet (hence its own predicate counter), and each trial writes
// only its own result slot. Estimates are therefore bit-identical to the
// sequential run for any parallelism and any GOMAXPROCS.
func RunDistP(m core.Method, in *workload.Instance, budget, trials int, seed uint64, parallelism int) (*Dist, error) {
	if budget < 4 {
		budget = 4
	}
	if trials < 1 {
		trials = 1
	}
	r := xrand.New(seed)
	streams := make([]*xrand.Rand, trials)
	for t := range streams {
		streams[t] = r.Split()
	}
	ests := make([]float64, trials)
	evals := make([]int64, trials)
	errs := make([]error, trials)
	var failed atomic.Bool
	par.ForEach(par.Workers(parallelism), trials, func(t int) {
		if failed.Load() {
			return // a trial already failed; skip the remaining expensive work
		}
		obj := in.Objects()
		res, err := m.Estimate(context.Background(), obj, budget, streams[t])
		if err != nil {
			errs[t] = fmt.Errorf("experiment: %s trial %d: %w", m.Name(), t, err)
			failed.Store(true)
			return
		}
		ests[t] = res.Estimate
		evals[t] = res.Evals
	})
	// Report the lowest-indexed recorded error (the only error in a
	// sequential run; best-effort under early abort, where which later
	// trials were skipped depends on scheduling).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var total int64
	for _, e := range evals {
		total += e
	}
	return &Dist{
		Method:     m.Name(),
		Estimates:  ests,
		Truth:      in.TrueCount,
		Summary:    stats.Summarize(ests),
		TotalEvals: total,
	}, nil
}

// distFor runs one distribution under the options' trial count and
// parallelism, charging its predicate evaluations to the report.
func (o Options) distFor(rep *Report, m core.Method, in *workload.Instance, budget int, seed uint64) (*Dist, error) {
	d, err := RunDistP(m, in, budget, o.trials(), seed, o.Parallelism)
	if err != nil {
		return nil, err
	}
	rep.Evals += d.TotalEvals
	return d, nil
}

// Classifier constructors used across the figures. The forest runs
// sequentially inside each trial: trials are the outer parallel axis, and
// nesting a per-forest pool under P concurrent trials would spawn
// P × GOMAXPROCS CPU-bound workers.
func forestClf(seed uint64) learn.Classifier { return core.ForestClassifier(1)(seed) }
func knnClf(uint64) learn.Classifier         { return learn.NewKNN(5) }
func mlpClf(seed uint64) learn.Classifier    { return learn.NewMLP(seed) }
func dummyClf(seed uint64) learn.Classifier  { return learn.NewDummy(seed) }

// defaultLSS is the paper's default LSS configuration: RF(100), 25% train
// split, 4 strata.
func defaultLSS() *core.LSS {
	return &core.LSS{NewClassifier: forestClf, TrainFrac: 0.25, Strata: 4}
}

// defaultLWS mirrors the LSS configuration for weighted sampling.
func defaultLWS() *core.LWS {
	return &core.LWS{NewClassifier: forestClf, TrainFrac: 0.25}
}

// budgetFor converts a sample fraction into a labeling budget.
func budgetFor(in *workload.Instance, frac float64) int {
	b := int(math.Round(frac * float64(in.N())))
	if b < 20 {
		b = 20
	}
	if b > in.N() {
		b = in.N()
	}
	return b
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
