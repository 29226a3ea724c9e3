package lsample

import (
	"context"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
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
	// column by column: numbers by value and before text, text lexically —
	// so a string column's "9" precedes its "10" — the same order on every
	// path that answers) — deterministic for a fixed seed and dataset.
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
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "execute.groups")
	defer span.End()
	span.Set("method", cfg.method)
	out, err := q.executeGroups(ctx, cfg, gm, vals, strs)
	if err != nil {
		span.Set("error", err.Error())
		return nil, err
	}
	span.Set("objects", out.Objects)
	span.Set("groups", len(out.Groups))
	span.Set("evals", out.SamplesUsed)
	return out, nil
}

// executeGroups is ExecuteGroups's body behind the root span (see execute
// for the single-count analogue): the shared-sample plan per shard under
// WithShards (shardexec.go; never a silent fallback), the classic body over
// internal/core's grouped methods otherwise.
func (q *PreparedQuery) executeGroups(ctx context.Context, cfg config, gm core.GroupedMethod,
	vals map[string]engine.Value, strs map[string]string) (_ *GroupedEstimate, err error) {

	defer recoverFault(&err)
	if cfg.shards > 0 {
		sctx, ssp := obs.StartSpan(ctx, "shard.drive")
		ssp.Set("shards", cfg.shards)
		est, err := q.executeShardedGroups(sctx, cfg, vals, strs)
		if err != nil {
			ssp.Set("error", err.Error())
		}
		ssp.End()
		return est, err
	}

	p, err := q.populate(ctx, needsFeatures(cfg.method), vals, strs)
	if err != nil {
		return nil, err
	}
	out := q.groupedHeader(cfg, sql.Fingerprint(q.shape, strs), p)
	if p.n == 0 {
		return out, nil
	}
	pred, labeling, err := q.buildPredicate(ctx, p.ev, p.objects, vals, cfg)
	if err != nil {
		return nil, err
	}
	// Which core interface is invoked is the whole difference from a plain
	// count: the grouped result's timings and learn / design reports feed the
	// same spans, and the per-group answers wait in res for the read-out.
	var res *core.GroupedResult
	est, truth, err := cfg.classic(ctx, "grouped estimation", p.rows(), pred,
		func(ctx context.Context, obj *core.ObjectSet, budget int, r *xrand.Rand) (*core.Result, error) {
			var err error
			if res, err = gm.EstimateGroups(ctx, obj, p.groupOf, len(p.groupKey), budget, r); err != nil {
				return nil, err
			}
			return &core.Result{Method: res.Method, Evals: res.Evals, Timing: res.Timing, Learn: res.Learn, Design: res.Design}, nil
		})
	if err != nil {
		return nil, err
	}
	out.Labeling = labeling
	out.Budget, out.SamplesUsed, out.Timings = est.Budget, est.SamplesUsed, est.Timings
	// The one exact pass, attributed per group.
	var trueCounts []int
	if truth != nil {
		trueCounts = make([]int, len(p.groupKey))
		for i, pos := range truth {
			if pos {
				trueCounts[p.groupOf[i]]++
			}
		}
	}
	groups := make([]shard.Group, len(res.Groups))
	for g, gc := range res.Groups {
		sg := shard.Group{Parts: renderKey(p.groupKey[g]), N: gc.N, Sampled: gc.Sampled, Count: gc.Estimate,
			CILo: gc.CI.Lo, CIHi: gc.CI.Hi, HasCI: gc.HasCI, Exact: gc.Exact}
		if gc.N > 0 {
			sg.Proportion = gc.Estimate / float64(gc.N)
		}
		if trueCounts != nil {
			sg.TrueCount, sg.HasTrue = trueCounts[g], true
		}
		groups[g] = sg
	}
	sort.Slice(groups, func(a, b int) bool { return shard.LessGroupKey(groups[a].Parts, groups[b].Parts) })
	out.readOut(groups)
	return out, nil
}

// groupedHeader starts a grouped answer; over an empty population it is the
// whole answer.
func (q *PreparedQuery) groupedHeader(cfg config, fingerprint string, p *population) *GroupedEstimate {
	return &GroupedEstimate{
		Method:         cfg.method,
		Fingerprint:    fingerprint,
		GroupColumns:   q.GroupColumns(),
		Objects:        p.n,
		Seed:           cfg.seed,
		FeatureColumns: p.featCols,
	}
}

// readOut is the one grouped read-out: each back half's per-group answers,
// already in shard.LessGroupKey order, made GroupResults, and the total
// summed. Keys are copies: a hash plan's parts belong to its resident
// executor.
func (out *GroupedEstimate) readOut(groups []shard.Group) {
	out.Groups = make([]GroupResult, len(groups))
	for i, sg := range groups {
		gr := GroupResult{
			Key:        slices.Clone(sg.Parts),
			Objects:    sg.N,
			Count:      sg.Count,
			Proportion: sg.Proportion,
			Sampled:    sg.Sampled,
			Exact:      sg.Exact,
		}
		if sg.HasCI {
			gr.CI = &ConfidenceInterval{Lo: sg.CILo, Hi: sg.CIHi, Level: 1 - core.Alpha}
		}
		if sg.HasTrue {
			tc := sg.TrueCount
			gr.TrueCount = &tc
		}
		out.Total += sg.Count
		out.Groups[i] = gr
	}
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
