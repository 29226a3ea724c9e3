package lsample

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/obs"
)

// Tracer records per-execution span trees: every Execute, ExecuteGroups,
// and Refresh opens a root span with one child per phase (enumerate,
// features, predicate build, estimate with learn/design/sample children,
// exact scan, catalog and shard activity), and completed traces land in a
// fixed-size ring readable through Traces. Tracing is head-sampled: the
// coin is flipped once per execution and an unsampled execution costs one
// nil check per phase — no allocations, so the labeling hot path stays
// zero-alloc when tracing is off (spans wrap phases, never individual
// predicate evaluations).
//
// A Tracer is safe for concurrent use and may be shared by any number of
// sessions. Attach one with WithTracer.
type Tracer struct {
	inner *obs.Tracer
}

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// SampleRate is the probability in [0, 1] that an execution records a
	// trace. 0 records nothing (the zero value is an off switch).
	SampleRate float64
}

// NewTracer builds a Tracer whose ring keeps the 256 most recent traces.
func NewTracer(o TracerOptions) *Tracer {
	return &Tracer{inner: obs.NewTracer(obs.TracerConfig{Sample: o.SampleRate})}
}

// Traces returns up to limit completed traces, newest first; limit <= 0
// returns the whole ring.
func (t *Tracer) Traces(limit int) []*TraceSpan {
	if t == nil || t.inner == nil {
		return nil
	}
	data := t.inner.Traces(limit)
	out := make([]*TraceSpan, 0, len(data))
	for _, d := range data {
		out = append(out, spanFromObs(d))
	}
	return out
}

// TraceSpan is one node of a recorded span tree.
type TraceSpan struct {
	// TraceID identifies the whole tree (32 hex digits).
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this span (16 hex digits).
	SpanID string `json:"span_id,omitempty"`
	// Name is the phase name, e.g. "execute", "estimate", "learn".
	Name string `json:"name"`
	// Start is the span's start time.
	Start time.Time `json:"start"`
	// Duration is the span's wall time.
	Duration time.Duration `json:"duration"`
	// Attrs are the span's typed attributes (evals, reuse path, ...).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children are the sub-phases, in start order.
	Children []*TraceSpan `json:"children,omitempty"`
}

// spanFromObs converts an internal span tree to the public form.
func spanFromObs(d *obs.SpanData) *TraceSpan {
	if d == nil {
		return nil
	}
	ts := &TraceSpan{
		TraceID:  d.TraceID,
		SpanID:   d.SpanID,
		Name:     d.Name,
		Start:    d.Start,
		Duration: time.Duration(d.DurationMS * float64(time.Millisecond)),
		Attrs:    d.Attrs,
	}
	for _, c := range d.Children {
		ts.Children = append(ts.Children, spanFromObs(c))
	}
	return ts
}

// WithTracer attaches a span tracer: executions through the configured
// session/query open per-phase spans and sampled traces land in the
// tracer's ring (see Tracer). WithTracer(nil) detaches it. Disabled or
// unsampled tracing leaves estimation cost and results untouched —
// estimates are byte-identical with tracing on, off, or sampled.
func WithTracer(t *Tracer) Option {
	return func(c *config) error {
		if t == nil {
			c.tracer = nil
			return nil
		}
		c.tracer = t.inner
		return nil
	}
}

// estimateSpan wraps the core estimation call in an "estimate" span and
// synthesizes completed learn/design/sample children from the result's
// phase timings — the core estimator is not tracer-aware, so the phase
// breakdown it already measures is replayed into the trace after the
// fact. The learn span splits the phase into its fixed and per-object
// cost: the rows trained on and the time inside Fit, the objects scored
// and the time scoring them, the size of the fitted forest, and which of
// its two evaluations scored (scorePathAttrs). The design
// span says what the phase did: the designer or layout that produced the
// strata, its candidate-set size |B| and bound count |T| where it has
// them, and why equal-count strata replaced it if they did.
func estimateSpan(ctx context.Context, est *Estimate, res *core.Result) {
	sp := obs.FromContext(ctx)
	if sp == nil || est == nil {
		return
	}
	sp.Set("evals", est.SamplesUsed)
	sp.Set("budget", est.Budget)
	t := est.Timings
	start := time.Now().Add(-t.Total())
	var attrs []any
	if l := res.Learn; l.TrainRows > 0 {
		attrs = append(attrs, "train_rows", l.TrainRows, "fit_ms", durMS(res.Timing.Fit))
		if l.Scored > 0 {
			attrs = append(attrs, "scored", l.Scored, "score_ms", durMS(res.Timing.Score))
		}
		if l.Trees > 0 {
			attrs = append(attrs, "trees", l.Trees, "nodes", l.Nodes)
		}
		scorePathAttrs(l.Score, func(k string, v any) { attrs = append(attrs, k, v) })
	}
	sp.ChildSpan("learn", start, t.Learn, attrs...)
	design := res.Design
	attrs = nil
	if design.Algo != "" {
		attrs = append(attrs, "algo", design.Algo)
	}
	if design.Candidates > 0 {
		attrs = append(attrs, "candidates", design.Candidates)
	}
	if design.Bounds > 0 {
		attrs = append(attrs, "bounds", design.Bounds)
	}
	if design.Fallback != "" {
		attrs = append(attrs, "fallback", design.Fallback)
	}
	sp.ChildSpan("design", start.Add(t.Learn), t.Design, attrs...)
	sp.ChildSpan("sample", start.Add(t.Learn+t.Design), t.Sample)
	sp.Set("predicate_ms", durMS(t.Predicate))
}

// scorePathAttrs hands set how a forest scored its batch: score_path is
// grid or walk; thresholds and cells size the grid (neither: the batch was
// too small to build one for; thresholds without cells: the tables would
// pass the cap, so the forest walked); tuples is the number of forest
// evaluations the grid made, under the rows scored where rows shared a
// rank tuple. Nothing for a classifier that is not a forest.
func scorePathAttrs(p learn.ScorePath, set func(key string, val any)) {
	if p.Path == "" {
		return
	}
	set("score_path", p.Path)
	if p.Thresholds > 0 {
		set("thresholds", p.Thresholds)
		set("cells", p.Cells)
		set("tuples", p.Tuples)
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
