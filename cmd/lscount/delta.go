package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/lsample"
)

// auxFlags collects repeated -aux name=schema=path flags: additional
// static tables for multi-table queries in delta replay mode.
type auxFlags []auxTable

type auxTable struct {
	name, schema, path string
}

func (a *auxFlags) String() string {
	parts := make([]string, len(*a))
	for i, t := range *a {
		parts[i] = t.name
	}
	return strings.Join(parts, ",")
}

func (a *auxFlags) Set(s string) error {
	parts := strings.SplitN(s, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fmt.Errorf("want name=schema=path, got %q", s)
	}
	*a = append(*a, auxTable{name: parts[0], schema: parts[1], path: parts[2]})
	return nil
}

// defaultKeyColumn picks the first int column of a compact schema spec, the
// conventional id column of the paper's workloads.
func defaultKeyColumn(schemaStr string) string {
	for _, part := range strings.Split(schemaStr, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(part), ":")
		if ok && kind == "int" {
			return name
		}
	}
	return ""
}

// runDeltaReplay loads the base CSV into a live table, replays the delta
// stream against it in batches, and refreshes the estimate after every
// batch — printing, per step, the paper's cost unit: fresh predicate
// evaluations versus labels answered from the memo. The final lines
// compare the cumulative refresh bill against the relabel-all price a
// naive re-register loop pays per step.
func runDeltaReplay(ctx context.Context, query, csvPath, schemaStr, keyCol,
	deltaPath, deltaFormat string, batch int, aux auxFlags, params map[string]any, opts []lsample.Option) {

	if csvPath == "" || schemaStr == "" {
		fatalf("-delta requires -csv and -schema")
	}
	_, tables, err := lsample.QueryShape(query)
	if err != nil {
		fatalf("%v", err)
	}
	if keyCol == "" {
		keyCol = defaultKeyColumn(schemaStr)
		if keyCol == "" {
			fatalf("-delta requires an int key column (set -key or add one to -schema)")
		}
	}
	lt, err := lsample.NewLiveTable(tables[0], schemaStr, keyCol)
	if err != nil {
		fatalf("%v", err)
	}
	base, err := os.Open(csvPath)
	if err != nil {
		fatalf("opening %s: %v", csvPath, err)
	}
	if _, err := lt.ApplyDelta("csv", base, 0); err != nil {
		base.Close()
		fatalf("loading %s: %v", csvPath, err)
	}
	base.Close()

	src := lsample.NewLiveSource()
	src.AddLive(lt)
	for _, t := range aux {
		tb, err := lsample.OpenCSV(t.name, t.schema, t.path)
		if err != nil {
			fatalf("-aux %s: %v", t.name, err)
		}
		src.Add(tb)
	}
	sess, err := lsample.NewSession(src, opts...)
	if err != nil {
		fatalf("%v", err)
	}
	lq, err := sess.PrepareLive(query)
	if err != nil {
		fatalf("%v", err)
	}

	if deltaFormat == "" {
		deltaFormat = "csv"
		if strings.HasSuffix(deltaPath, ".ndjson") || strings.HasSuffix(deltaPath, ".jsonl") {
			deltaFormat = "ndjson"
		}
	}

	fmt.Printf("dataset     %s (%d rows from %s, key %s)\n", lt.Name(), lt.NumRows(), csvPath, keyCol)
	fmt.Printf("query       %s\n", query)
	fmt.Printf("delta       %s (%s, %d rows/batch)\n\n", deltaPath, deltaFormat, batch)
	fmt.Printf("%4s %7s %6s %8s %10s %24s %6s %7s  %s\n",
		"step", "version", "Δrows", "objects", "estimate", "95% CI", "fresh", "reused", "note")

	var totalFresh int64
	steps := 0
	printStep := func(step int, deltaRows int, r *lsample.RefreshEstimate) {
		ci := "-"
		if r.CI != nil {
			ci = fmt.Sprintf("[%.1f, %.1f]", r.CI.Lo, r.CI.Hi)
		}
		var notes []string
		if r.Retrained {
			notes = append(notes, "retrained")
		}
		if r.InvalidatedAll {
			notes = append(notes, "memo invalidated")
		}
		fmt.Printf("%4d %7d %6d %8d %10.1f %24s %6d %7d  %s\n",
			step, r.Versions[lt.Name()], deltaRows, r.Objects, r.Count, ci,
			r.SamplesUsed, r.ReusedLabels, strings.Join(notes, ", "))
	}

	t0 := time.Now()
	r0, err := lq.Refresh(ctx, params)
	if err != nil {
		fatalf("%v", err)
	}
	printStep(0, 0, r0)
	last := r0

	f, err := os.Open(deltaPath)
	if err != nil {
		fatalf("opening %s: %v", deltaPath, err)
	}
	defer f.Close()
	_, err = lt.ApplyDeltaStep(deltaFormat, f, batch, func(s lsample.DeltaSummary) error {
		r, err := lq.Refresh(ctx, params)
		if err != nil {
			return err
		}
		steps++
		totalFresh += r.SamplesUsed
		printStep(steps, s.Rows(), r)
		last = r
		return nil
	})
	if err != nil {
		fatalf("replaying delta: %v", err)
	}
	wall := time.Since(t0)

	// The cold baseline: the last refresh over an empty memo — the same
	// estimate, every label it read evaluated afresh — is what a naive
	// re-register pays on every step.
	cold := last.SamplesUsed + int64(last.ReusedLabels)
	fmt.Println()
	fmt.Printf("refresh evals   %d fresh across %d refreshes (+%d cold start)\n", totalFresh, steps, r0.SamplesUsed)
	fmt.Printf("naive evals     %d per re-register × %d steps = %d\n", cold, steps, cold*int64(steps))
	if totalFresh > 0 && steps > 0 {
		fmt.Printf("savings         %.1fx fewer predicate evaluations\n",
			float64(cold*int64(steps))/float64(totalFresh))
	}
	fmt.Printf("wall time       %.1fms total\n", float64(wall)/1e6)
}
