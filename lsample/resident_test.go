package lsample

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestResidentExecutorSkipsRebuild: a second hash-plan count over the same
// parameters on one prepared query finds its executor resident — no
// enumerate or features span, no predicate.build: the executor's predicate,
// cross-checked once, labels for every count — and answers exactly as a
// fresh prepared query does for its seed.
func TestResidentExecutorSkipsRebuild(t *testing.T) {
	params := map[string]any{"k": 8}
	ctx := context.Background()
	for _, shards := range []int{0, 3} {
		tracer := NewTracer(TracerOptions{SampleRate: 1})
		sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)), WithCatalog(NewCatalog(0)),
			WithMethod("lss"), WithBudget(0.25), WithShards(shards), WithTracer(tracer))
		if err != nil {
			t.Fatal(err)
		}
		prepare := func() *PreparedQuery {
			q, err := sess.Prepare(skybandQuery)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		name := map[int]string{0: "catalog", 3: "shard.drive"}[shards]
		run := func(q *PreparedQuery, seed uint64) (*Estimate, *TraceSpan) {
			t.Helper()
			est, err := q.Execute(ctx, params, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			trace := tracer.Traces(1)[0]
			if hp := spansNamed(trace, name); len(hp) != 1 {
				t.Fatalf("shards %d: %d %q spans, want 1", shards, len(hp), name)
			}
			return est, trace
		}
		resident := func(trace *TraceSpan) any { return spansNamed(trace, name)[0].Attrs["resident"] }

		q := prepare()
		_, cold := run(q, 1)
		if resident(cold) != false || len(spansNamed(cold, "enumerate")) != 1 || len(spansNamed(cold, "features")) != 1 {
			t.Errorf("shards %d: first count resident=%v, want false with one enumerate and one features span", shards, resident(cold))
		}
		est, warm := run(q, 2)
		if resident(warm) != true || len(spansNamed(warm, "enumerate")) != 0 || len(spansNamed(warm, "features")) != 0 {
			t.Errorf("shards %d: second count resident=%v, want true with no enumerate or features span", shards, resident(warm))
		}
		if builds := spansNamed(warm, "predicate.build"); len(builds) != 0 {
			t.Errorf("shards %d: second count opened %d predicate.build spans, want none on a resident executor", shards, len(builds))
		}
		if ref, _ := run(prepare(), 2); !sameEstimate(est, ref) {
			t.Errorf("shards %d: resident executor answered %v %v, a fresh prepared query %v %v", shards, est.Count, est.CI, ref.Count, ref.CI)
		}
	}
}

// TestResidentExecutorConcurrentSeeds (run under -race): eight seeds count
// at once, twice each, on one prepared query — through a catalog or not,
// unsharded or over three shards — and every answer is a fresh prepared
// query's run of its seed. Without a catalog the bill is the fresh run's
// too, every time: labels outlive a count only in a catalog.
func TestResidentExecutorConcurrentSeeds(t *testing.T) {
	const seeds = 8
	params := map[string]any{"k": 8}
	ctx := context.Background()
	for _, withCatalog := range []bool{false, true} {
		for _, shards := range []int{0, 3} {
			t.Run(fmt.Sprintf("catalog=%t/shards=%d", withCatalog, shards), func(t *testing.T) {
				prepare := func() *PreparedQuery {
					var cat *Catalog
					if withCatalog {
						cat = NewCatalog(0)
					}
					sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)), WithCatalog(cat),
						WithMethod("lss"), WithBudget(0.25), WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					q, err := sess.Prepare(skybandQuery)
					if err != nil {
						t.Fatal(err)
					}
					return q
				}
				refs := make([]*Estimate, seeds)
				for i := range refs {
					var err error
					if refs[i], err = prepare().Execute(ctx, params, WithSeed(uint64(i+1))); err != nil {
						t.Fatal(err)
					}
				}
				q := prepare()
				var wg sync.WaitGroup
				for i, ref := range refs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for rep := 0; rep < 2; rep++ {
							est, err := q.Execute(ctx, params, WithSeed(uint64(i+1)))
							if err != nil {
								t.Error(err)
								return
							}
							billed := est.SamplesUsed == ref.SamplesUsed || (withCatalog && est.SamplesUsed < ref.SamplesUsed)
							if !sameEstimate(est, ref) || !billed {
								t.Errorf("seed %d, run %d: %v %v (%d evaluations), a fresh prepared query %v %v (%d)", i+1, rep+1,
									est.Count, est.CI, est.SamplesUsed, ref.Count, ref.CI, ref.SamplesUsed)
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestResidentExecutorsBounded: a prepared query keeps at most maxResident
// executors and evicts the least recently used one.
func TestResidentExecutorsBounded(t *testing.T) {
	q, _ := catalogSession(t, 60, 7, WithMethod("srs"), WithBudget(0.3))
	count := func(k int) {
		t.Helper()
		if _, err := q.Execute(context.Background(), map[string]any{"k": k}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= maxResident; k++ {
		count(k)
	}
	count(1)               // k = 1 is the most recently used again
	count(maxResident + 1) // so k = 2 is the one to go
	resident := map[string]bool{}
	for _, d := range q.residents {
		resident[d.key.fp] = true
	}
	for k, want := range map[int]bool{1: true, 2: false, 3: true, maxResident + 1: true} {
		fp, err := q.Fingerprint(map[string]any{"k": k})
		if err != nil {
			t.Fatal(err)
		}
		if resident[fp] != want {
			t.Errorf("k = %d resident = %t, want %t", k, resident[fp], want)
		}
	}
	if len(q.residents) != maxResident {
		t.Errorf("%d executors resident, want %d", len(q.residents), maxResident)
	}
}
