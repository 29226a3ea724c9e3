// Skyband: the paper's Example 2 on the sports workload — estimate the
// size of the k-skyband (players dominated by fewer than k others on
// strikeouts and wins) without evaluating the aggregate subquery for every
// player, through the public repro/lsample SDK.
//
// Run: go run ./examples/skyband
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/workload"
	"repro/lsample"
)

func main() {
	fmt.Println("Example 2 (k-skyband size), SQL form:")
	fmt.Println(`
  SELECT COUNT(*) FROM
    (SELECT o1.id FROM D o1, D o2
     WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
     GROUP BY o1.id HAVING COUNT(*) < k);
	`)

	suite, err := workload.BuildSports(12000, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-8s %-8s %-12s %-10s %-24s %s\n",
		"regime", "k", "truth", "method", "estimate", "95% CI", "rel.err")
	for _, sz := range []workload.Size{workload.XS, workload.S, workload.L, workload.XXL} {
		in := suite.Instances[sz]
		for _, method := range []string{"srs", "lss"} {
			est, err := lsample.NewEstimator(
				lsample.WithMethod(method),
				lsample.WithBudget(0.02),
				lsample.WithSeed(uint64(sz)+99),
			)
			if err != nil {
				log.Fatal(err)
			}
			// The expensive predicate: a full O(N) dominance scan per player.
			res, err := est.Estimate(context.Background(), in.Features(), in.ExpensiveFunc())
			if err != nil {
				log.Fatal(err)
			}
			rel := 100 * math.Abs(res.Count-float64(in.TrueCount)) / float64(in.TrueCount)
			fmt.Printf("%-6s %-8d %-8d %-12s %-10.0f [%9.1f, %9.1f]  %6.2f%%\n",
				sz, in.K, in.TrueCount, res.Method, res.Count, res.CI.Lo, res.CI.Hi, rel)
		}
	}
	fmt.Println("\nLSS trains a random forest on 25% of the budget, orders players by")
	fmt.Println("classifier score, optimizes the stratification from a pilot sample,")
	fmt.Println("and spends the rest of the budget on a Neyman-allocated second stage.")
}
