// Neighbors: the paper's Example 1 on the KDD-style workload — count
// network-connection records with at most k other records within distance d
// (outlier counting), comparing every estimator in the paper at one budget
// through the public repro/lsample SDK.
//
// Run: go run ./examples/neighbors
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
	fmt.Println("Example 1 (few neighbors), SQL form:")
	fmt.Println(`
  SELECT COUNT(*) FROM
    (SELECT o1.id FROM D o1, D o2
     WHERE SQRT(POWER(o1.x-o2.x,2) + POWER(o1.y-o2.y,2)) <= d
     GROUP BY o1.id HAVING COUNT(*) <= k);
	`)

	suite, err := workload.BuildNeighbors(10000, 5)
	if err != nil {
		log.Fatal(err)
	}
	in := suite.Instances[workload.S]
	fmt.Printf("dataset: %d connection records, d=%.3f, k=%d\n", in.N(), in.D, in.K)
	fmt.Printf("true count: %d (%.1f%%)\n\n", in.TrueCount, in.Selectivity*100)

	fmt.Printf("%-6s  %9s  %24s  %8s\n", "method", "estimate", "95% CI", "rel.err")
	for _, method := range []string{"srs", "ssp", "ssn", "qlcc", "qlac", "lws", "lss"} {
		est, err := lsample.NewEstimator(
			lsample.WithMethod(method),
			lsample.WithBudget(0.02),
			lsample.WithSeed(2024),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := est.Estimate(context.Background(), in.Features(), in.LabelFunc())
		if err != nil {
			log.Fatal(err)
		}
		ci := "          (no interval)"
		if res.CI != nil {
			ci = fmt.Sprintf("[%9.1f, %9.1f]", res.CI.Lo, res.CI.Hi)
		}
		rel := 100 * math.Abs(res.Count-float64(in.TrueCount)) / float64(in.TrueCount)
		fmt.Printf("%-6s  %9.1f  %24s  %7.2f%%\n", res.Method, res.Count, ci, rel)
	}
	fmt.Printf("\nall methods spent the same labeling budget: %d evaluations (2%% of N)\n", in.N()/50)
}
