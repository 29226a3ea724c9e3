package lsample

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/predicate"
)

// BenchmarkPredicateLabeling measures the dominant wall-clock cost of the
// SQL path — labeling a pre-chosen sample set with the decomposed Q3
// predicate — across the three evaluation modes:
//
//   - interpreted: the tree-walking engine (one nested-loop join
//     interpretation per evaluation), the pre-compilation baseline;
//   - compiled: typed closures + hash-indexed probes, sequential batch;
//   - compiled-par: the same, batched over all cores.
//
// Two workloads bound the win. skyband's join condition is not an equality,
// so compilation removes interpretation overhead and adds the COUNT(*)
// early abort but still scans the inner relation per evaluation. exists is
// the hash-indexable SQL-EXISTS workload (correlation + equi-join key):
// each compiled evaluation probes two buckets instead of scanning the
// join, which is the asymptotic win the paper's cost model prices.
//
// Every mode labels the same sample set, so evals/op is equal by
// construction and ns/eval is directly comparable (`make bench-predicate`
// records these as BENCH_PR4.json).
func BenchmarkPredicateLabeling(b *testing.B) {
	skyD := compileTestTable(b, 500, 31)
	exD, exR := compileJoinTables(b, 300, 1500, 150, 33)
	workloads := []struct {
		name   string
		tables []*Table
		sqlQ   string
		params map[string]any
		sample int
	}{
		{"skyband", []*Table{skyD}, skybandSQL, map[string]any{"k": 25}, 64},
		{"exists", []*Table{exD, exR}, equiJoinSQL, map[string]any{"t": 4.0, "m": 3}, 32},
	}
	modes := []struct {
		name      string
		noCompile bool
		workers   int
	}{
		{"interpreted", true, 1},
		{"compiled", false, 1},
		{"compiled-par", false, 0},
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
		// A fixed, spread-out sample set shared by every mode.
		idxs := make([]int, wl.sample)
		for j := range idxs {
			idxs[j] = (j * 7919) % objects.NumRows()
		}
		for _, mode := range modes {
			cfg := q.cfg
			cfg.noCompile = mode.noCompile
			cfg.parallelism = mode.workers
			pred, lab, err := q.buildPredicate(context.Background(), ev, objects, vals, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if lab.Compiled == mode.noCompile {
				b.Fatalf("%s/%s: wrong labeling path (%+v)", wl.name, mode.name, lab)
			}
			b.Run(wl.name+"/"+mode.name, func(b *testing.B) {
				out := make([]bool, len(idxs))
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if bp, ok := predicate.AsBatch(pred); ok {
						bp.EvalBatch(idxs, out)
					} else {
						for j, i := range idxs {
							out[j] = pred.Eval(i)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(len(idxs)), "evals/op")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idxs)), "ns/eval")
			})
		}
	}
}
