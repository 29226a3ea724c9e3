package lsample

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sql"
	"repro/internal/xrand"
)

// GroupResult is the estimate for one group of a GROUP BY counting query.
type GroupResult struct {
	// Key holds the group's column values, aligned with
	// GroupedEstimate.GroupColumns, rendered canonically (integers and
	// floats in Go syntax, strings verbatim).
	Key []string
	// Objects is the number of objects the group contains.
	Objects int
	// Count is the estimated count of group objects satisfying q.
	Count float64
	// Proportion is Count / Objects.
	Proportion float64
	// CI is the group's confidence interval for the count; nil when the
	// method provides none.
	CI *ConfidenceInterval
	// Sampled is the number of distinct labeled objects behind the group's
	// estimate (shared-sample members plus any rare-group top-up).
	Sampled int
	// Exact reports that every object of the group was labeled, making
	// Count the true count.
	Exact bool
	// TrueCount is the group's exact count; set only under WithExact.
	TrueCount *int
}

// GroupedEstimate is the outcome of one GROUP BY estimation: one
// GroupResult per distinct group tuple, all answered from a single shared
// sampling/learning plan. The expensive predicate is evaluated at most once
// per sampled object no matter how many groups it feeds, so the total
// labeling cost is shared across groups rather than multiplied by their
// number.
type GroupedEstimate struct {
	// Method is the estimation method that ran (srs, lss, or oracle).
	Method string
	// Fingerprint canonically identifies (query, bound parameters),
	// including the outer GROUP BY shape.
	Fingerprint string
	// GroupColumns are the outer grouping column names, in GROUP BY order.
	GroupColumns []string
	// Objects is |O|, the total number of objects across all groups.
	Objects int
	// Budget is the shared labeling budget the method was allowed (rare
	// groups may add a small bounded top-up on top).
	Budget int
	// Total is the sum of the per-group count estimates.
	Total float64
	// Groups holds one result per group, ordered by key (ascending,
	// column by column) — deterministic for a fixed seed and dataset.
	Groups []GroupResult
	// SamplesUsed is the number of predicate evaluations actually spent,
	// including the exact pass when WithExact was set.
	SamplesUsed int64
	// Seed is the seed the run used; rerunning with it reproduces every
	// group estimate byte for byte.
	Seed uint64
	// FeatureColumns are the auto-selected classifier features
	// (feature-using methods only).
	FeatureColumns []string
	// Timings is the per-phase cost breakdown of the shared plan.
	Timings PhaseTimings
	// Labeling reports which predicate-evaluation path the run took
	// (compiled vs interpreted fallback) and its labeling parallelism.
	Labeling Labeling
}

// IsGrouped reports whether the prepared query is a GROUP BY counting
// query, answered by ExecuteGroups rather than Execute.
func (q *PreparedQuery) IsGrouped() bool { return q.grouped != nil }

// GroupColumns returns the outer grouping column names of a grouped query,
// in GROUP BY order; it is nil for plain counting queries.
func (q *PreparedQuery) GroupColumns() []string {
	if q.grouped == nil {
		return nil
	}
	return append([]string(nil), q.grouped.GroupNames...)
}

// CountGroups is the one-shot convenience for GROUP BY counting queries:
// Prepare followed by a single ExecuteGroups.
func (s *Session) CountGroups(ctx context.Context, sqlText string, params map[string]any, opts ...Option) (*GroupedEstimate, error) {
	q, err := s.Prepare(sqlText, opts...)
	if err != nil {
		return nil, err
	}
	return q.ExecuteGroups(ctx, params)
}

// ExecuteGroups runs one grouped estimation with the given bound
// parameters: objects are enumerated once, one shared sample is drawn and
// labeled (each sampled object exactly once), and every group's count, CI,
// and proportion are read out of the shared draw, with a dedicated
// per-group fallback draw for groups too rare to be covered. Supported
// methods are srs, lss (the default), and oracle; others reject the call.
// Options override the prepare-time defaults for this call only, and
// cancellation follows the Execute contract. For a fixed seed the per-group
// results are byte-identical across runs and parallelism settings.
func (q *PreparedQuery) ExecuteGroups(ctx context.Context, params map[string]any, opts ...Option) (*GroupedEstimate, error) {
	if q.grouped == nil {
		return nil, badf("query has no outer GROUP BY; use Execute")
	}
	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	gm, err := cfg.buildGroupedMethod()
	if err != nil {
		return nil, err
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	alpha := cfg.alpha
	if alpha <= 0 {
		alpha = 0.05
	}

	wall := time.Now()
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "execute.groups")
	defer span.End()
	span.Set("method", cfg.method)
	out, err := q.executeGroups(ctx, cfg, gm, vals, strs, alpha)
	if err != nil {
		span.Set("error", err.Error())
		return nil, err
	}
	span.Set("objects", out.Objects)
	span.Set("groups", len(out.Groups))
	span.Set("evals", out.SamplesUsed)
	cfg.queryLog(ctx, &Estimate{
		Method:      out.Method,
		Fingerprint: out.Fingerprint,
		Objects:     out.Objects,
		Budget:      out.Budget,
		Count:       out.Total,
		SamplesUsed: out.SamplesUsed,
		Labeling:    out.Labeling,
	}, time.Since(wall), "groups", len(out.Groups))
	return out, nil
}

// executeGroups is ExecuteGroups's body behind the root span (see execute
// for the single-count analogue).
func (q *PreparedQuery) executeGroups(ctx context.Context, cfg config, gm core.GroupedMethod,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (_ *GroupedEstimate, err error) {

	defer recoverFault(&err)
	// Sharded grouped execution: the shared-sample plan runs per shard
	// and merges (see shardexec.go); never a silent fallback.
	if cfg.shards > 0 {
		sctx, ssp := obs.StartSpan(ctx, "shard.drive")
		ssp.Set("shards", cfg.shards)
		est, err := q.executeShardedGroups(sctx, cfg, vals, strs, alpha)
		if err != nil {
			ssp.Set("error", err.Error())
		}
		ssp.End()
		return est, err
	}

	ev := engine.NewEvaluator(q.cat)
	for name, v := range vals {
		ev.SetParam(name, v)
	}
	_, esp := obs.StartSpan(ctx, "enumerate")
	objects, err := ev.Run(q.dec.Objects, nil)
	esp.End()
	if err != nil {
		return nil, badf("enumerating objects: %v", err)
	}
	esp.Set("objects", objects.NumRows())
	out := &GroupedEstimate{
		Method:       cfg.method,
		Fingerprint:  sql.Fingerprint(q.inner, strs),
		GroupColumns: q.GroupColumns(),
		Objects:      objects.NumRows(),
		Seed:         cfg.seed,
	}
	if objects.NumRows() == 0 {
		return out, nil
	}

	groupOf, keys := q.grouped.GroupLabels(objects)

	features := make([][]float64, objects.NumRows())
	if needsFeatures(cfg.method) {
		fv, cols, err := q.featureVectors(objects, strs)
		if err != nil {
			return nil, err
		}
		features = fv
		out.FeatureColumns = cols
	}

	pred, labeling, err := q.buildPredicate(ctx, ev, objects, vals, cfg, unvalidated)
	if err != nil {
		return nil, err
	}
	out.Labeling = labeling
	obj, err := core.NewObjectSet(features, pred)
	if err != nil {
		return nil, badf("%v", err)
	}

	budget := cfg.budgetFor(obj.N())
	mctx, msp := obs.StartSpan(ctx, "estimate")
	res, err := gm.EstimateGroups(mctx, obj, groupOf, len(keys), budget, xrand.New(cfg.seed))
	msp.End()
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("lsample: %w", err)
		}
		return nil, fmt.Errorf("lsample: grouped estimation failed: %w", err)
	}
	msp.Set("evals", pred.Evals())

	var trueCounts []int
	if cfg.exact {
		// One exact pass over all objects, attributed per group; costs |O|
		// further evaluations, exactly like WithExact on Execute. The batch
		// path labels the whole population in one (possibly parallel) call.
		trueCounts = make([]int, len(keys))
		xctx, xsp := obs.StartSpan(ctx, "exact.scan")
		labels, err := predicate.Label(pred, predicate.AllIndices(obj.N()), canceled(xctx, "exact count"))
		xsp.End()
		if err != nil {
			return nil, err
		}
		for i, pos := range labels {
			if pos {
				trueCounts[groupOf[i]]++
			}
		}
	}

	out.Budget = budget
	out.SamplesUsed = pred.Evals()
	out.Timings = PhaseTimings{
		Learn:     res.Timing.Learn,
		Design:    res.Timing.Design,
		Sample:    res.Timing.Sample,
		Predicate: res.Timing.Predicate,
	}
	out.Groups = make([]GroupResult, len(keys))
	order := make([]int, len(keys))
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(a, b int) bool { return lessKey(keys[order[a]], keys[order[b]]) })
	for rank, g := range order {
		gc := res.Groups[g]
		gr := GroupResult{
			Key:     renderKey(keys[g]),
			Objects: gc.N,
			Count:   gc.Estimate,
			Sampled: gc.Sampled,
			Exact:   gc.Exact,
		}
		if gc.N > 0 {
			gr.Proportion = gc.Estimate / float64(gc.N)
		}
		if gc.HasCI {
			gr.CI = &ConfidenceInterval{Lo: gc.CI.Lo, Hi: gc.CI.Hi, Level: 1 - alpha}
		}
		if trueCounts != nil {
			tc := trueCounts[g]
			gr.TrueCount = &tc
		}
		out.Total += gc.Estimate
		out.Groups[rank] = gr
	}
	return out, nil
}

// renderKey renders a group tuple for callers: strings verbatim, numerics
// in Go syntax.
func renderKey(vals []engine.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		if v.Kind == engine.KString {
			out[i] = v.S
		} else {
			out[i] = v.String()
		}
	}
	return out
}

// lessKey orders group tuples ascending, column by column, with
// type-aware comparison per column (columns are homogeneously typed).
func lessKey(a, b []engine.Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		av, bv := a[i], b[i]
		switch {
		case av.Kind == engine.KInt && bv.Kind == engine.KInt:
			if av.I != bv.I {
				return av.I < bv.I
			}
		case av.IsNumeric() && bv.IsNumeric():
			af, _ := av.AsFloat()
			bf, _ := bv.AsFloat()
			if af != bf {
				return af < bf
			}
		default:
			as, bs := av.String(), bv.String()
			if as != bs {
				return as < bs
			}
		}
	}
	return len(a) < len(b)
}
