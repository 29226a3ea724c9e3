package main

import (
	"context"
	"fmt"

	"repro/lsample"
)

// sdkCold is the embedder's cold path: one caller, PreparedQuery.Execute /
// ExecuteGroups at parallelism 1, no catalog, a fresh seed per op. The
// per-execution fixed cost (enumerate, features, predicate.build with its
// interpreter cross-check) is almost all of the time; no cache and no
// serving layer does anything.
type sdkCold struct {
	cfg    runConfig
	fix    *sqlFixture
	q      prepared
	tracer *lsample.Tracer
}

func (w *sdkCold) classes() [numClasses]string {
	return [numClasses]string{"skyband", "exists", "grouped"}
}
func (w *sdkCold) clients() int  { return 1 }
func (w *sdkCold) quality() int  { return w.cfg.sz.quality }
func (w *sdkCold) served() int64 { return 0 }

// sdkClassKind maps the 60/25/15 slots to query kinds.
var sdkClassKind = [numClasses]queryKind{kindSkyband, kindExists, kindGrouped}

func (w *sdkCold) setup(ctx context.Context) error {
	var err error
	if w.fix, err = newSQLFixture(w.cfg.seed, w.cfg.sz.sqlRows); err != nil {
		return err
	}
	if w.q, err = w.fix.prepare(); err != nil {
		return err
	}
	w.tracer = lsample.NewTracer(lsample.TracerOptions{SampleRate: 1})
	return crossCheckSDK(ctx, w.fix, w.q)
}

// crossCheckSDK compares the brute-force truth of each base variant with
// the program's own exact answer (method "oracle").
func crossCheckSDK(ctx context.Context, fix *sqlFixture, q prepared) error {
	for k := range q {
		v := variant{kind: queryKind(k)}
		want, byRegion := fix.truth(v)
		if v.kind == kindGrouped {
			g, err := q[k].ExecuteGroups(ctx, fix.params(v), lsample.WithMethod("oracle"))
			if err != nil {
				return err
			}
			for _, gr := range g.Groups {
				if int(gr.Count) != byRegion[gr.Key[0]] {
					return fmt.Errorf("ground truth mismatch: region %s: brute force %d, program's oracle %v",
						gr.Key[0], byRegion[gr.Key[0]], gr.Count)
				}
			}
			continue
		}
		e, err := q[k].Execute(ctx, fix.params(v), lsample.WithMethod("oracle"))
		if err != nil {
			return err
		}
		if e.Count != want || e.Objects != fix.n {
			return fmt.Errorf("ground truth mismatch: query kind %d: brute force %v of %d, program's oracle %v of %d",
				k, want, fix.n, e.Count, e.Objects)
		}
	}
	return nil
}

func (w *sdkCold) warm(ctx context.Context) error { return warmOps(ctx, w) }

func (w *sdkCold) do(ctx context.Context, _ int, o op, traced bool) (*answer, *span, error) {
	opts := []lsample.Option{lsample.WithMethod("lss"), lsample.WithBudget(sqlBudget), lsample.WithSeed(o.seed)}
	if traced {
		opts = append(opts, lsample.WithTracer(w.tracer))
	}
	ans, err := w.fix.execute(ctx, w.q, variant{kind: sdkClassKind[o.class]}, true, opts...)
	if err != nil {
		return nil, nil, err
	}
	return ans, lastTrace(w.tracer, traced), nil
}

// lastTrace fetches the span tree the attached tracer just completed.
func lastTrace(t *lsample.Tracer, traced bool) *span {
	if !traced {
		return nil
	}
	if tr := t.Traces(1); len(tr) == 1 {
		return spanFromSDK(tr[0])
	}
	return nil
}

func (w *sdkCold) reissue(ctx context.Context, client int, o op, first *answer) error {
	again, _, err := w.do(ctx, client, o, false)
	return matchFirst(first, again, err)
}

func (w *sdkCold) finish(context.Context) (map[string]float64, error) { return nil, nil }
func (w *sdkCold) teardown() (float64, float64)                       { return 0, 0 }
