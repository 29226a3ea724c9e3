// Streaming: live datasets with delta-priced re-estimation. An items table
// and an append-only events table keep receiving batches while one
// LiveQuery maintains the count of items with more than 4 events. Every
// refresh pins the newest MVCC snapshots and relabels only what the delta
// could have changed: new items, and existing items the new events point at
// (the e.item = i.id join is key-correlated, so a delta row names exactly
// the object it can affect). The demo prints the paper's cost unit —
// predicate evaluations — per refresh next to what a naive re-register
// (throw away the session, estimate from scratch) pays for the same answer.
//
// Run: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/lsample"
)

const query = `SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > 4`

func main() {
	rng := rand.New(rand.NewSource(29))
	items, err := lsample.NewLiveTable("items", "id:int,f1:float,f2:float", "id")
	if err != nil {
		log.Fatal(err)
	}
	events, err := lsample.NewLiveTable("events", "item:int,v:float", "")
	if err != nil {
		log.Fatal(err)
	}
	nextID := int64(0)
	appendItems := func(n int) int {
		var ib, eb lsample.DeltaBatch
		for i := 0; i < n; i++ {
			id := nextID
			nextID++
			f1 := rng.Float64() * 100
			ib.Append(id, f1, rng.Float64()*100)
			// Items with larger f1 get more events — which is what makes
			// the predicate learnable from the item's own columns.
			for e := 0; e < int(f1/12); e++ {
				eb.Append(id, rng.Float64()*10)
			}
		}
		if _, err := items.Apply(&ib); err != nil {
			log.Fatal(err)
		}
		if _, err := events.Apply(&eb); err != nil {
			log.Fatal(err)
		}
		return ib.Len() + eb.Len()
	}
	appendItems(1500)

	src := lsample.NewLiveSource()
	src.AddLive(items)
	src.AddLive(events)
	sess, err := lsample.NewSession(src,
		lsample.WithMethod("lss"), lsample.WithBudget(0.1), lsample.WithSeed(41))
	if err != nil {
		log.Fatal(err)
	}
	lq, err := sess.PrepareLive(query)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("maintained estimate: COUNT(items with >4 events), budget 10%")
	fmt.Printf("%5s %8s %10s %7s %7s  %s\n", "step", "objects", "estimate", "fresh", "reused", "note")
	var totalFresh int64
	refresh := func(step int, note string) *lsample.RefreshEstimate {
		r, err := lq.Refresh(ctx, nil)
		if err != nil {
			log.Fatal(err)
		}
		totalFresh += r.SamplesUsed
		if r.Retrained {
			note += " retrained"
		}
		fmt.Printf("%5d %8d %10.1f %7d %7d  %s\n", step, r.Objects, r.Count, r.SamplesUsed, r.ReusedLabels, note)
		return r
	}
	last := refresh(0, "cold start")
	steps := 6
	for s := 1; s <= steps; s++ {
		appendItems(15) // a 1% append delta per step
		last = refresh(s, "")
	}

	// The cold baseline over the same final state: labels are pure, so a
	// naive re-register answers the last refresh's estimate and pays for
	// every label that refresh read, fresh or memoized.
	cold := last.SamplesUsed + int64(last.ReusedLabels)
	fmt.Println()
	fmt.Printf("refresh bill   %d fresh evaluations across %d refreshes\n", totalFresh, steps+1)
	fmt.Printf("naive bill     %d evaluations per re-register × %d steps = %d\n",
		cold, steps, cold*int64(steps))

	// Re-reading the maintained estimate is free once the memo is warm.
	again, err := lq.Refresh(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-read        %.1f again at %d fresh evaluations\n", again.Count, again.SamplesUsed)
}
