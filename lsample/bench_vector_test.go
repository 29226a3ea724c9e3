package lsample

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/predicate"
)

// BenchmarkVectorLabeling measures batch labeling throughput of the two
// compiled evaluation modes on full-population passes (the WithExact /
// shared-scan shape, where batches are large and steady):
//
//   - closure: the scalar compiled path — one typed-closure call per
//     object (the pre-vectorization baseline, PR 5's fastest mode);
//   - vector: the vectorized arena path — selection-bitmap kernels and,
//     on the hash-indexable exists workload, the fused monomorphic join
//     walk with direct column access.
//
// Both modes label the identical population sequentially, so evals/op is
// equal by construction and ns/eval compares the per-evaluation cost
// directly. allocs/op pins the zero-allocation steady state (`make
// bench-vector` records these as BENCH_PR9.json; CI fails the run if the
// vector modes allocate).
func BenchmarkVectorLabeling(b *testing.B) {
	skyD := compileTestTable(b, 500, 31)
	exD, exR := compileJoinTables(b, 300, 1500, 150, 33)
	workloads := []struct {
		name   string
		tables []*Table
		sqlQ   string
		params map[string]any
	}{
		{"skyband", []*Table{skyD}, skybandSQL, map[string]any{"k": 25}},
		{"exists", []*Table{exD, exR}, equiJoinSQL, map[string]any{"t": 4.0, "m": 3}},
	}
	modes := []struct {
		name     string
		noVector bool
	}{
		{"closure", true},
		{"vector", false},
	}
	for _, wl := range workloads {
		sess, err := NewSession(NewMemorySource(wl.tables...))
		if err != nil {
			b.Fatal(err)
		}
		q, err := sess.Prepare(wl.sqlQ)
		if err != nil {
			b.Fatal(err)
		}
		vals, _, err := convertParams(wl.params)
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
		for _, mode := range modes {
			cfg := q.cfg
			cfg.noVector = mode.noVector
			cfg.parallelism = 1
			pred, lab, err := q.buildPredicate(context.Background(), ev, objects, vals, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !lab.Compiled || lab.Vectorized == mode.noVector {
				b.Fatalf("%s/%s: wrong labeling path (%+v)", wl.name, mode.name, lab)
			}
			bp, ok := predicate.AsBatch(pred)
			if !ok {
				b.Fatalf("%s/%s: compiled predicate is not batch-capable", wl.name, mode.name)
			}
			b.Run(wl.name+"/"+mode.name, func(b *testing.B) {
				out := make([]bool, len(idxs))
				// Warm-up passes build the arena and cross the lazy
				// probe-bucket threshold, so the timed loop is steady state.
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
	}
}
