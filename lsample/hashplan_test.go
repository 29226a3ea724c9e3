package lsample

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
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

// TestHashPlanContainsPredicatePanic: predicates raise a data-dependent
// division by zero as a panic (an engine.Fault), the first-object
// cross-check only ever sees object 0, and labeling runs on driver scatter
// goroutines and labeling-pool workers as well as on the caller's. On every
// path the fault must come back as the request's error, wrapping
// ErrInvalid — never as a panic the caller has to contain.
func TestHashPlanContainsPredicatePanic(t *testing.T) {
	sess, err := NewSession(NewMemorySource(divZeroTable(t, 300)), WithCatalog(NewCatalog(0)), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(divZeroQuery)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"k": 8}
	isFault := func(arm string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "division by zero") || !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want the division by zero as an ErrInvalid error", arm, err)
		}
	}
	for _, arm := range []struct {
		name  string
		opts  []Option
		shard bool // the hash plan also names the shard that met the fault
	}{
		{"catalog", nil, true},
		{"shards 3", []Option{WithShards(3)}, true},
		{"shards 3, parallelism 4", []Option{WithShards(3), WithParallelism(4)}, true},
		{"classic, parallelism 1", []Option{WithCatalog(nil)}, false},
		// The labeling pool's worker goroutines meet the fault here; the
		// pool re-raises it on the calling goroutine, where Execute turns
		// it into the error.
		{"classic, parallelism 4", []Option{WithCatalog(nil), WithParallelism(4)}, false},
		{"classic, interpreted", []Option{WithCatalog(nil), interpreted()}, false},
	} {
		est, err := q.Execute(context.Background(), params, append(arm.opts, WithMethod("oracle"))...)
		if err == nil {
			t.Fatalf("%s: Execute = %+v, want the division by zero as an error", arm.name, est)
		}
		isFault(arm.name, err)
		if arm.shard && !strings.Contains(err.Error(), "shard ") {
			t.Errorf("%s: err = %v, want the shard named", arm.name, err)
		}
	}

	// An out-of-process worker's op entry point.
	x, err := q.PrepareShard(context.Background(), 0, 1, params, WithMethod("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = x.Op(context.Background(), 0, shard.OpLabel, json.RawMessage(`{"keys":[4,5,6]}`))
	isFault("shard op", err)

	gq, err := sess.Prepare(`SELECT g, COUNT(*) FROM (SELECT o1.g, o1.id FROM D o1, D o2 WHERE o2.x >= o1.x
		GROUP BY o1.g, o1.id HAVING COUNT(*) / MIN(o1.y) < k) GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{{WithParallelism(1)}, {WithParallelism(4)}, {WithShards(2)}} {
		_, err = gq.ExecuteGroups(context.Background(), params, append(opts, WithMethod("oracle"))...)
		isFault(fmt.Sprintf("grouped, %d option(s)", len(opts)), err)
	}

	live, err := NewLiveTable("D", divZeroSchema, "id")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range divZeroRows(300) {
		if err := live.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	src := NewLiveSource()
	src.AddLive(live)
	lsess, err := NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := lsess.PrepareLive(divZeroQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		_, err = lq.Refresh(context.Background(), params, WithMethod("oracle"), WithParallelism(p))
		isFault(fmt.Sprintf("refresh, parallelism %d", p), err)
	}
}

// TestOnlyPredicateFaultsBecomeErrors: the SDK boundary recovers the typed
// fault and nothing else — any other panic below it is a bug and must
// still reach the caller as a panic.
func TestOnlyPredicateFaultsBecomeErrors(t *testing.T) {
	boundary := func(p any) (err error) {
		defer recoverFault(&err)
		panic(p)
	}
	if err := boundary(&engine.Fault{Msg: "division by zero"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("fault: err = %v, want ErrInvalid", err)
	}
	for _, bug := range []any{"index out of range", errors.New("not a fault"), 7} {
		var caught any
		func() {
			defer func() { caught = recover() }()
			boundary(bug) //nolint:errcheck // panics
		}()
		if caught != bug {
			t.Errorf("panic(%v): recovered %v at the caller, want the same value propagated", bug, caught)
		}
	}
}

// divZeroQuery divides by a per-object column in HAVING, which runs per
// object group — so the interpreter's construction-time validation of
// object 0 never sees the zero divisor divZeroTable plants in row 5.
const divZeroQuery = `SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x
	GROUP BY o1.id HAVING COUNT(*) / MIN(o1.y) < k`

func divZeroTable(t *testing.T, n int) *Table {
	t.Helper()
	tb, err := NewTable("D", divZeroSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range divZeroRows(n) {
		if err := tb.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

const divZeroSchema = "id:int,x:float,y:float,g:int"

func divZeroRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		y := float64(i%7 + 1)
		if i == 5 {
			y = 0 // a non-first row divides by zero
		}
		rows[i] = []any{int64(i), float64(i), y, int64(i % 3)}
	}
	return rows
}
