package lsample

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// coverageQuery counts objects that dominate at least k of T's threshold
// points. T holds two diagonal points, so k=1 selects the upper-right
// ≈ 40 % of the unit square and k=2 its ≈ 5 % corner: positives are
// skewed into one region of feature space, and k is a Q3-only parameter.
const coverageQuery = `SELECT o.id FROM O o, T t WHERE t.a <= o.x AND t.b <= o.y
	GROUP BY o.id HAVING COUNT(*) >= k`

// TestHashPlanCoverageAndBias is the paper's §5 evaluation applied to the
// recipe lsserve actually serves: over hundreds of seeds, on every path
// that reaches shard.Drive — cold, budget extension, and a three-shard
// merge — the nominal 95 % interval must cover the truth at least 90 % of
// the time and the mean error must sit within three standard errors of
// zero.
func TestHashPlanCoverageAndBias(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical battery: thousands of estimations")
	}
	const (
		seeds  = 300
		budget = 0.2
	)
	r := xrand.New(99)
	objs, err := NewTable("O", "id:int,x:float,y:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := objs.AppendRow(int64(i), r.Float64(), r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	thresholds, err := NewTable("T", "a:float,b:float")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.37, 0.78} {
		if err := thresholds.AppendRow(p, p); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(NewMemorySource(objs, thresholds), WithParallelism(1), WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(coverageQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	truth := map[int]float64{}
	for _, k := range []int{1, 2} {
		est, err := q.Execute(ctx, map[string]any{"k": k}, WithMethod("oracle"))
		if err != nil {
			t.Fatal(err)
		}
		truth[k] = est.Count
	}
	if s1, s2 := truth[1]/1000, truth[2]/1000; s1 < 0.35 || s1 > 0.45 || s2 < 0.03 || s2 > 0.07 {
		t.Fatalf("fixture selectivities %.3f / %.3f, want ≈ 0.40 / ≈ 0.05", s1, s2)
	}

	type cell struct {
		n, covered  int
		sum, sumSq  float64 // of the estimation error
		wrongReuses int
	}
	cells := map[string]*cell{}
	record := func(name string, k int, wantReuse string, est *Estimate) {
		c := cells[name]
		if c == nil {
			c = &cell{}
			cells[name] = c
		}
		e := est.Count - truth[k]
		c.n++
		c.sum += e
		c.sumSq += e * e
		if est.CI.Lo <= truth[k] && truth[k] <= est.CI.Hi {
			c.covered++
		}
		if est.Reuse != wantReuse {
			c.wrongReuses++
		}
	}

	for _, method := range []string{"srs", "lss"} {
		for seed := uint64(1); seed <= seeds; seed++ {
			run := func(cat *Catalog, k int, opts ...Option) *Estimate {
				t.Helper()
				all := append([]Option{WithCatalog(cat), WithMethod(method), WithSeed(seed)}, opts...)
				est, err := q.Execute(ctx, map[string]any{"k": k}, all...)
				if err != nil {
					t.Fatalf("%s seed %d k=%d: %v", method, seed, k, err)
				}
				return est
			}
			for _, k := range []int{1, 2} {
				record(fmt.Sprintf("%s/cold/k=%d", method, k), k, ReuseNone, run(NewCatalog(0), k))

				cat := NewCatalog(0)
				run(cat, k, WithBudget(budget/2))
				record(fmt.Sprintf("%s/extension/k=%d", method, k), k, ReuseExtension, run(cat, k))

				record(fmt.Sprintf("%s/shards=3/k=%d", method, k), k, ReuseNone, run(NewCatalog(0), k, WithShards(3)))
			}
		}
	}

	if len(cells) != 12 {
		t.Fatalf("recorded %d cells, want 2 methods × 3 paths × 2 selectivities", len(cells))
	}
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cells[name]
		if c.n != seeds {
			t.Errorf("%s: %d runs, want %d", name, c.n, seeds)
		}
		if c.wrongReuses > 0 {
			t.Errorf("%s: %d runs took another reuse path than the cell names", name, c.wrongReuses)
		}
		coverage := float64(c.covered) / float64(c.n)
		mean := c.sum / float64(c.n)
		sd := math.Sqrt(c.sumSq/float64(c.n) - mean*mean)
		se := sd / math.Sqrt(float64(c.n))
		t.Logf("%-22s coverage %.3f  mean error %+.2f (se %.2f, sd %.1f)", name, coverage, mean, se, sd)
		if coverage < 0.90 {
			t.Errorf("%s: 95%% interval covered the truth in %.1f%% of %d seeds, want >= 90%%", name, 100*coverage, c.n)
		}
		if math.Abs(mean) > 3*se {
			t.Errorf("%s: mean error %+.2f exceeds 3 standard errors (%.2f): biased", name, mean, 3*se)
		}
	}
}
