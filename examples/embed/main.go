// Embed: the SDK workflow an application embeds — build a table from your
// own data, open a Session over a DataSource, Prepare a counting query
// once, and Execute it repeatedly with different bound parameters. The
// expensive analysis (parsing, §2 decomposition, automatic feature
// selection, the O(N) key index) happens a single time; each Execute only
// enumerates objects and runs the learned estimator.
//
// Run: go run ./examples/embed
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"repro/lsample"
)

func main() {
	// Your application's data: a table D(id, x, y) of 300 points. (The
	// predicate is evaluated through the naive interpreted engine, which
	// rescans the join per evaluation — keep demo tables small.)
	const n = 300
	tb, err := lsample.NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(int64(i), r.Float64()*100, r.Float64()*100); err != nil {
			log.Fatal(err)
		}
	}

	// A session binds a DataSource to default options. MemorySource serves
	// in-memory tables, whether built row by row as here, read with OpenCSV
	// or generated with SyntheticTable.
	sess, err := lsample.NewSession(
		lsample.NewMemorySource(tb),
		lsample.WithMethod("lss"),
		lsample.WithBudget(0.05),
		lsample.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Example 2's k-skyband query: players dominated by fewer than k
	// others. k is a free identifier, bound per Execute.
	q, err := sess.Prepare(`SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("prepared once; decomposition (§2):")
	fmt.Println("  objects (Q2):  ", q.ObjectsSQL())
	fmt.Println("  predicate (Q3):", q.PredicateSQL())

	fmt.Printf("\n%-6s %10s %22s %10s\n", "k", "estimate", "95% CI", "evals")
	for _, k := range []int{10, 25, 50} {
		res, err := q.Execute(context.Background(), map[string]any{"k": k})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %10.1f [%9.1f, %9.1f] %10d\n",
			k, res.Count, res.CI.Lo, res.CI.Hi, res.SamplesUsed)
	}

	// Estimations are context-aware: a canceled context aborts mid-run
	// before the next predicate evaluation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Execute(ctx, map[string]any{"k": 25}); errors.Is(err, context.Canceled) {
		fmt.Println("\ncanceled context aborted the estimation:", err)
	}
}
