package lsample

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// ConfidenceInterval is a two-sided interval for the count at confidence
// 1−alpha.
type ConfidenceInterval struct {
	Lo, Hi float64 // interval bounds on the count scale
	Level  float64 // confidence level, e.g. 0.95
}

// Width returns Hi − Lo.
func (ci ConfidenceInterval) Width() float64 { return ci.Hi - ci.Lo }

// PhaseTimings breaks an estimation into the paper's cost phases.
type PhaseTimings struct {
	Learn     time.Duration // phase 1: sampling, labeling, training, scoring
	Design    time.Duration // sample design: variance estimates + strata layout
	Sample    time.Duration // phase 2: sampling, iteration, estimation
	Predicate time.Duration // total time inside q, across all phases
}

// Total returns the wall time of all phases.
func (t PhaseTimings) Total() time.Duration { return t.Learn + t.Design + t.Sample }

// Overhead returns non-labeling time: Total − Predicate.
func (t PhaseTimings) Overhead() time.Duration {
	ov := t.Total() - t.Predicate
	if ov < 0 {
		return 0
	}
	return ov
}

// Labeling describes how the expensive predicate was evaluated during one
// run: through the compiled engine (typed closures over columnar data, with
// hash-indexed equality probes and batched — possibly parallel — labeling),
// through the interpreted engine fallback, or not at all: a label memo
// answered every label and no predicate was built (the zero value). All
// produce byte-identical estimates for a fixed seed; only the cost differs.
type Labeling struct {
	// Compiled reports that the predicate ran through the compiled engine.
	Compiled bool
	// Fallback is the human-readable reason the interpreted engine was used
	// instead; empty when Compiled is true.
	Fallback string
	// Workers is the labeling parallelism the run was configured for
	// (always 1 on the interpreted path, which is inherently sequential; 0
	// when no predicate was built).
	Workers int
}

// String renders the labeling path for logs and CLI output.
func (l Labeling) String() string {
	if l.Workers == 0 {
		return "label memo (no predicate built)"
	}
	if l.Compiled {
		if l.Workers == 1 {
			return "compiled"
		}
		return fmt.Sprintf("compiled, %d workers", l.Workers)
	}
	if l.Fallback == "" {
		return "interpreted"
	}
	return "interpreted (" + l.Fallback + ")"
}

// Estimate is the outcome of one estimation run.
type Estimate struct {
	// Method is the estimation method that ran.
	Method string
	// Fingerprint canonically identifies (query, bound parameters); set
	// only on the SQL path. Together with dataset identity, method, budget,
	// and seed it fully determines the result, which makes it a sound cache
	// key.
	Fingerprint string
	// Objects is |O|, the number of objects the query enumerates.
	Objects int
	// Budget is the number of predicate evaluations the method was allowed.
	Budget int
	// Count is the estimated count C(O, q).
	Count float64
	// Proportion is Count / Objects (0 when Objects is 0).
	Proportion float64
	// CI is the confidence interval for the count; nil when the method
	// provides none (quantification learning).
	CI *ConfidenceInterval
	// SamplesUsed is the number of predicate evaluations actually spent,
	// including the exact pass when WithExact was set.
	SamplesUsed int64
	// Seed is the seed the run used; rerunning with it reproduces the
	// estimate byte for byte.
	Seed uint64
	// FeatureColumns are the classifier features auto-selected from the
	// columns the predicate reads (SQL path, feature-using methods only).
	FeatureColumns []string
	// TrueCount is the exact count; set only when WithExact was used.
	TrueCount *int
	// Timings is the per-phase cost breakdown.
	Timings PhaseTimings
	// Labeling reports which predicate-evaluation path the run took
	// (compiled vs interpreted fallback) and its labeling parallelism.
	Labeling Labeling
	// Reuse reports what a reuse catalog's label memo did for this
	// execution: "direct" (it answered every label), "extension" (it
	// answered some, the rest were bought), or "none" (nobody had asked it
	// before; also what WithShards without a catalog reports). Empty off
	// the hash plan (see WithCatalog). The estimate is the same on all.
	Reuse string
	// ReusedLabels is the number of label requests answered from a memo
	// instead of a predicate evaluation: repeats within the execution plus
	// hits on the catalog's label memo, at any shard count — or, on the
	// Refresh path, hits on the live label memo.
	ReusedLabels int
}

// fromCore converts an internal result.
func fromCore(res *core.Result, objects int, budget int, cfg config) *Estimate {
	out := &Estimate{
		Method:      res.Method,
		Objects:     objects,
		Budget:      budget,
		Count:       res.Estimate,
		SamplesUsed: res.Evals,
		Seed:        cfg.seed,
		Timings: PhaseTimings{
			Learn:     res.Timing.Learn,
			Design:    res.Timing.Design,
			Sample:    res.Timing.Sample,
			Predicate: res.Timing.Predicate,
		},
	}
	if objects > 0 {
		out.Proportion = res.Estimate / float64(objects)
	}
	if res.HasCI {
		out.CI = &ConfidenceInterval{Lo: res.CI.Lo, Hi: res.CI.Hi, Level: 1 - core.Alpha}
	}
	return out
}
