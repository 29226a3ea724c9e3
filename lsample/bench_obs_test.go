package lsample

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/predicate"
)

// BenchmarkObsOverhead measures what the observability layer costs the
// estimation pipeline in its three states:
//
//   - disabled:  no Tracer attached (the default);
//   - unsampled: a Tracer attached with SampleRate 0 — every execution
//     flips the head-sampling coin and then records nothing;
//   - sampled:   SampleRate 1 — every execution records its span tree
//     into the ring.
//
// Two shapes are timed on the hash-indexable exists workload. The
// labeling sub-benchmarks repeat BENCH_PR9's vectorized EvalBatch pass
// (full population, parallelism 1) with the tracer in each state, so
// ns/eval is directly comparable against BENCH_PR9.json — spans wrap
// phases, never evaluations, so the disabled and unsampled numbers must
// sit within noise of that snapshot and allocs/op must stay zero. The
// execute sub-benchmarks time the whole Execute pipeline, where the
// per-phase span cost actually lands; `make bench-obs` records both as
// BENCH_PR10.json.
func BenchmarkObsOverhead(b *testing.B) {
	exD, exR := compileJoinTables(b, 300, 1500, 150, 33)
	params := map[string]any{"t": 4.0, "m": 3}
	modes := []struct {
		name   string
		tracer *Tracer
	}{
		{"disabled", nil},
		{"unsampled", NewTracer(TracerOptions{SampleRate: 0})},
		{"sampled", NewTracer(TracerOptions{SampleRate: 1})},
	}

	for _, mode := range modes {
		opts := []Option{}
		if mode.tracer != nil {
			opts = append(opts, WithTracer(mode.tracer))
		}
		sess, err := NewSession(NewMemorySource(exD, exR), opts...)
		if err != nil {
			b.Fatal(err)
		}
		q, err := sess.Prepare(equiJoinSQL)
		if err != nil {
			b.Fatal(err)
		}
		vals, _, err := convertParams(params)
		if err != nil {
			b.Fatal(err)
		}
		ev := engine.NewEvaluator(q.cat)
		for name, v := range vals {
			ev.SetParam(name, v)
		}
		objects, err := ev.Run(q.dec.Objects, nil)
		if err != nil {
			b.Fatal(err)
		}
		idxs := predicate.AllIndices(objects.NumRows())
		cfg := q.cfg
		cfg.parallelism = 1
		pred, lab, err := q.buildPredicate(context.Background(), ev, objects, vals, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !lab.Compiled || !lab.Vectorized {
			b.Fatalf("labeling/%s: wrong labeling path (%+v)", mode.name, lab)
		}
		bp, ok := predicate.AsBatch(pred)
		if !ok {
			b.Fatalf("labeling/%s: compiled predicate is not batch-capable", mode.name)
		}
		b.Run("labeling/"+mode.name, func(b *testing.B) {
			out := make([]bool, len(idxs))
			for i := 0; i < 3; i++ {
				bp.EvalBatch(idxs, out)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bp.EvalBatch(idxs, out)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(idxs)), "evals/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idxs)), "ns/eval")
		})
	}

	// Full-pipeline cost: tracing state must never change the estimate
	// (the sampled run records a span tree; the answer stays byte-equal).
	ctx := context.Background()
	execOpts := []Option{WithMethod("srs"), WithBudget(0.25), WithSeed(7)}
	var reference *Estimate
	for _, mode := range modes {
		sess, err := NewSession(NewMemorySource(exD, exR))
		if err != nil {
			b.Fatal(err)
		}
		opts := execOpts
		if mode.tracer != nil {
			opts = append(opts[:len(opts):len(opts)], WithTracer(mode.tracer))
		}
		q, err := sess.Prepare(equiJoinSQL)
		if err != nil {
			b.Fatal(err)
		}
		est, err := q.Execute(ctx, params, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if reference == nil {
			reference = est
		} else if est.Count != reference.Count || est.SamplesUsed != reference.SamplesUsed {
			b.Fatalf("execute/%s: tracing changed the estimate: %+v vs %+v", mode.name, est, reference)
		}
		b.Run("execute/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := q.Execute(ctx, params, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if mode := modes[2]; len(mode.tracer.Traces(1)) == 0 {
		b.Fatal("sampled tracer recorded no traces")
	}
}
