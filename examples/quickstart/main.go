// Quickstart: estimate the count of objects satisfying an expensive
// predicate with the public repro/lsample SDK — Learned Weighted and
// Learned Stratified Sampling against plain random sampling, on a synthetic
// population. Everything here goes through lsample; no internal packages.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/lsample"
)

func main() {
	// A population of 20,000 objects with two features. The "expensive"
	// predicate accepts objects inside an ellipse — imagine a correlated
	// subquery or UDF costing milliseconds per call.
	const n = 20000
	r := rand.New(rand.NewSource(7))
	features := make([][]float64, n)
	for i := range features {
		features[i] = []float64{r.Float64()*4 - 2, r.Float64()*4 - 2}
	}
	pred := func(i int) bool {
		x, y := features[i][0], features[i][1]
		return x*x/2.2+y*y/0.7 <= 1
	}

	truth := 0
	for i := 0; i < n; i++ {
		if pred(i) {
			truth++
		}
	}
	fmt.Printf("population N = %d, true count = %d (%.1f%%)\n\n", n, truth, 100*float64(truth)/n)

	// Budget: label only 2% of the population. The same seed makes every
	// run byte-identical.
	fmt.Printf("%-6s  %10s  %22s  %8s\n", "method", "estimate", "95% CI", "error")
	for _, method := range []string{"srs", "lws", "lss"} {
		est, err := lsample.NewEstimator(
			lsample.WithMethod(method),
			lsample.WithBudget(0.02),
			lsample.WithSeed(42),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := est.Estimate(context.Background(), features, pred)
		if err != nil {
			log.Fatal(err)
		}
		errPct := 100 * math.Abs(res.Count-float64(truth)) / float64(truth)
		fmt.Printf("%-6s  %10.1f  [%8.1f, %8.1f]  %7.2f%%\n",
			res.Method, res.Count, res.CI.Lo, res.CI.Hi, errPct)
	}
	fmt.Printf("\neach method spent the same labeling budget: %d predicate evaluations (2%% of N)\n", n/50)
}
