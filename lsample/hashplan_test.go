package lsample

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestLabelingCanceledOnEveryPath: catalog, sharded, and refresh labeling
// share one label store, so a canceled context surfaces the same
// path-neutral error on all three, still matching the context's cause.
func TestLabelingCanceledOnEveryPath(t *testing.T) {
	params := map[string]any{"k": 8}
	q, _ := catalogSession(t, 60, 7, WithMethod("lss"), WithBudget(0.3), WithSeed(2))
	lq, err := newLiveWorkload(t, 200, 5).session(t, WithMethod("lss"), WithBudget(0.2), WithSeed(2)).PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(context.Context) error{
		"catalog": func(ctx context.Context) error { _, err := q.Execute(ctx, params); return err },
		"shards":  func(ctx context.Context) error { _, err := q.Execute(ctx, params, WithShards(2)); return err },
		"refresh": func(ctx context.Context) error { _, err := lq.Refresh(ctx, nil); return err },
	}
	for name, run := range paths {
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		expired, stop := context.WithTimeout(context.Background(), -1)
		defer stop()
		for cause, ctx := range map[error]context.Context{context.Canceled: canceled, context.DeadlineExceeded: expired} {
			err := run(ctx)
			if !errors.Is(err, cause) {
				t.Errorf("%s: err = %v, want wrapped %v", name, err, cause)
			}
			if err == nil || !strings.HasPrefix(err.Error(), "lsample: labeling canceled: ") {
				t.Errorf("%s: err = %v, want the path-neutral labeling error", name, err)
			}
		}
	}
}

// TestHashPlanContainsPredicatePanic: compiled predicates still panic on a
// data-dependent division by zero, the first-object cross-check only ever
// sees object 0, and catalog-served labeling runs on a driver scatter
// goroutine outside any request-level recover. The panic must come back
// as the request's error.
func TestHashPlanContainsPredicatePanic(t *testing.T) {
	sess, err := NewSession(NewMemorySource(divZeroTable(t, 300)), WithCatalogBudget(0), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(divZeroQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithShards(3)}, {WithShards(3), WithParallelism(4)}} {
		est, err := q.Execute(context.Background(), map[string]any{"k": 8}, append(opts, WithMethod("oracle"))...)
		if err == nil {
			t.Fatalf("opts %d: Execute = %+v, want the division by zero as an error", len(opts), est)
		}
		if !strings.Contains(err.Error(), "division by zero") || !strings.Contains(err.Error(), "shard ") {
			t.Errorf("opts %d: err = %v, want the panic and its shard named", len(opts), err)
		}
	}

	// The classic path has no recover of its own, so the panic is the
	// caller's to contain — which it can only do if it arrives on the
	// caller's goroutine. At WithParallelism(4) the labeling pool's worker
	// goroutines used to take the whole process down instead.
	var caught any
	func() {
		defer func() { caught = recover() }()
		q.Execute(context.Background(), map[string]any{"k": 8},
			WithCatalog(nil), WithMethod("oracle"), WithParallelism(4)) //nolint:errcheck // panics
	}()
	if caught == nil || !strings.Contains(fmt.Sprint(caught), "division by zero") {
		t.Fatalf("classic path at parallelism 4: recovered %v, want the division by zero on the calling goroutine", caught)
	}
}

// divZeroQuery divides by a per-object column in HAVING, which runs per
// object group — so the interpreter's construction-time validation of
// object 0 never sees the zero divisor divZeroTable plants in row 5.
const divZeroQuery = `SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x
	GROUP BY o1.id HAVING COUNT(*) / MIN(o1.y) < k`

func divZeroTable(t *testing.T, n int) *Table {
	t.Helper()
	tb, err := NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		y := float64(i%7 + 1)
		if i == 5 {
			y = 0 // a non-first row divides by zero
		}
		if err := tb.AppendRow(int64(i), float64(i), y); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}
