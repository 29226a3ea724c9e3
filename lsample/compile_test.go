package lsample

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// compileTestTable builds D(id, x, y) for the self-join workloads.
func compileTestTable(t testing.TB, n int, seed int64) *Table {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tb, err := NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(int64(i), r.Float64()*100, r.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// compileJoinTables builds D(id, x, y) and R(key, v) for the hash-indexable
// equi-join workload.
func compileJoinTables(t testing.TB, nd, nr, keys int, seed int64) (*Table, *Table) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := compileTestTable(t, nd, seed+1)
	rt, err := NewTable("R", "key:int,v:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nr; i++ {
		if err := rt.AppendRow(int64(r.Intn(keys)), r.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	return d, rt
}

const skybandSQL = `SELECT o1.id FROM D o1, D o2
	WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
	GROUP BY o1.id HAVING COUNT(*) < k`

const equiJoinSQL = `SELECT d.id FROM D d, R r
	WHERE d.id = r.key AND r.v > t
	GROUP BY d.id HAVING COUNT(*) >= m`

// interpreted keeps the interpreter as the labeling path: the reference the
// differential tests below compare the compiled closures against. It is
// defined here, in a test file — the SDK has no knob that selects an
// evaluator.
func interpreted() Option {
	return func(c *config) error {
		c.noCompile = true
		return nil
	}
}

// stripTimings zeroes the wall-clock fields so estimates compare on their
// deterministic content.
func stripTimings(e *Estimate) *Estimate {
	c := *e
	c.Timings = PhaseTimings{}
	c.Labeling = Labeling{}
	return &c
}

// TestCompiledParallelMatchesInterpretedSequential is the differential pin
// the refactor hangs on: for fixed seeds, compiled + batched labeling at
// parallelism 1, 4, and NumCPU produces byte-identical estimates to the
// interpreted sequential path, for every method and on both the
// correlation-only and the hash-indexable workloads.
func TestCompiledParallelMatchesInterpretedSequential(t *testing.T) {
	d, r := compileJoinTables(t, 90, 360, 70, 7)
	cases := []struct {
		name   string
		tables []*Table
		sqlQ   string
		params map[string]any
	}{
		{"skyband", []*Table{compileTestTable(t, 90, 3)}, skybandSQL, map[string]any{"k": 12}},
		{"equijoin", []*Table{d, r}, equiJoinSQL, map[string]any{"t": 4.0, "m": 3}},
	}
	for _, tc := range cases {
		for _, method := range []string{"srs", "lss", "lws", "oracle"} {
			sess, err := NewSession(NewMemorySource(tc.tables...),
				WithMethod(method), WithBudget(0.2), WithSeed(11), WithExact(true))
			if err != nil {
				t.Fatal(err)
			}
			q, err := sess.Prepare(tc.sqlQ)
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.Execute(context.Background(), tc.params,
				interpreted(), WithParallelism(1))
			if err != nil {
				t.Fatalf("%s/%s interpreted: %v", tc.name, method, err)
			}
			if want.Labeling.Compiled {
				t.Fatalf("%s/%s: interpreted run reports compiled labeling", tc.name, method)
			}
			for _, p := range []int{1, 4, runtime.NumCPU()} {
				got, err := q.Execute(context.Background(), tc.params, WithParallelism(p))
				if err != nil {
					t.Fatalf("%s/%s compiled p=%d: %v", tc.name, method, p, err)
				}
				if !got.Labeling.Compiled {
					t.Fatalf("%s/%s p=%d: expected the compiled path, fell back: %s",
						tc.name, method, p, got.Labeling.Fallback)
				}
				if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
					t.Fatalf("%s/%s p=%d: compiled estimate diverges:\n got %+v\nwant %+v",
						tc.name, method, p, stripTimings(got), stripTimings(want))
				}
			}
		}
	}
}

// TestOracleCountsExactIntKeys counts over 64-bit keys that share a
// float64 (2^53 and 2^53 + 1): both evaluators join an int key to an int
// key exactly, so the oracle's count is the true one. Comparing the keys
// through float64 would count both items.
func TestOracleCountsExactIntKeys(t *testing.T) {
	const big = 1 << 53
	items, err := NewTable("items", "id:int,f:float")
	if err != nil {
		t.Fatal(err)
	}
	events, err := NewTable("events", "item:int")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int64{big, big + 1, big + 2, 7} {
		if err := items.AppendRow(id, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int64{big, big, big + 1, 7, 7} {
		if err := events.AppendRow(id); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(NewMemorySource(items, events), WithMethod("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(`SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {interpreted()}} {
		est, err := q.Execute(context.Background(), nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if est.Labeling.Compiled != (opts == nil) {
			t.Fatalf("compiled=%v with options %v (fallback: %s)", est.Labeling.Compiled, opts, est.Labeling.Fallback)
		}
		if est.Count != 2 || est.Objects != 4 {
			t.Errorf("compiled=%v: %v of %d objects, want 2 of 4", est.Labeling.Compiled, est.Count, est.Objects)
		}
	}
}

// TestOracleCountsNegativeZeroAsZero: over D = {(0, -0), (1, 1), (2, 0)}
// and R = {0}, SELECT o1.x … GROUP BY o1.x has one group, x = 0, whose row
// (0, -0) joins. -0 = 0, so -0 and 0 are one object of the decomposition and
// the oracle counts 1 on both evaluators; keyed apart they counted 2.
func TestOracleCountsNegativeZeroAsZero(t *testing.T) {
	d, err := NewTable("D", "id:int,x:float")
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{math.Copysign(0, -1), 1, 0} {
		if err := d.AppendRow(int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewTable("R", "key:int")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow(int64(0)); err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(NewMemorySource(d, r), WithMethod("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(`SELECT o1.x FROM D o1, R r WHERE r.key = o1.id GROUP BY o1.x`)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{{interpreted()}, nil} {
		est, err := q.Execute(context.Background(), nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if est.Labeling.Compiled != (opts == nil) {
			t.Fatalf("compiled=%v with options %v (fallback: %s)", est.Labeling.Compiled, opts, est.Labeling.Fallback)
		}
		if est.Count != 1 || est.Objects != 2 {
			t.Errorf("compiled=%v: %v of %d objects, want 1 of 2", est.Labeling.Compiled, est.Count, est.Objects)
		}
	}
}

// TestCompiledGroupedMatchesInterpreted pins the same property for the
// GROUP BY path: the shared-sample grouped estimate is identical whether
// labels come from the compiled parallel batch or the interpreter.
func TestCompiledGroupedMatchesInterpreted(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tb, err := NewTable("D", "id:int,x:float,y:float,grp:string")
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"north", "south", "east"}
	for i := 0; i < 110; i++ {
		if err := tb.AppendRow(int64(i), r.Float64()*100, r.Float64()*100, groups[r.Intn(3)]); err != nil {
			t.Fatal(err)
		}
	}
	const sqlQ = `SELECT grp, COUNT(*) FROM (
		SELECT o1.grp, o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.grp, o1.id HAVING COUNT(*) < k) GROUP BY grp`
	for _, method := range []string{"srs", "lss", "oracle"} {
		sess, err := NewSession(NewMemorySource(tb),
			WithMethod(method), WithBudget(0.2), WithSeed(5), WithExact(true))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Prepare(sqlQ)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 15},
			interpreted(), WithParallelism(1))
		if err != nil {
			t.Fatalf("%s interpreted: %v", method, err)
		}
		for _, p := range []int{1, 4, runtime.NumCPU()} {
			got, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 15}, WithParallelism(p))
			if err != nil {
				t.Fatalf("%s compiled p=%d: %v", method, p, err)
			}
			if !got.Labeling.Compiled {
				t.Fatalf("%s p=%d: expected compiled, fell back: %s", method, p, got.Labeling.Fallback)
			}
			gw, gg := *want, *got
			gw.Timings, gg.Timings = PhaseTimings{}, PhaseTimings{}
			gw.Labeling, gg.Labeling = Labeling{}, Labeling{}
			if !reflect.DeepEqual(gg, gw) {
				t.Fatalf("%s p=%d: grouped estimate diverges:\n got %+v\nwant %+v", method, p, gg, gw)
			}
		}
	}
}

// TestFallbackStillWorks exercises the fallback boundary with a query the
// compiler rejects (a scalar subquery inside the predicate): estimates must
// still be produced by the interpreter, and the labeling report must name
// the reason.
func TestFallbackStillWorks(t *testing.T) {
	tb := compileTestTable(t, 80, 9)
	sess, err := NewSession(NewMemorySource(tb), WithMethod("srs"), WithBudget(0.5), WithSeed(3), WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	// The scalar subquery over D keeps Q3 outside the compilable subset.
	q, err := sess.Prepare(`SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= (SELECT MIN(y) FROM D) AND o2.y >= o1.y
		GROUP BY o1.id HAVING COUNT(*) < k`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background(), map[string]any{"k": 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeling.Compiled {
		t.Fatal("expected the interpreter fallback")
	}
	if res.Labeling.Fallback == "" {
		t.Fatal("fallback reason missing")
	}
	if res.TrueCount == nil {
		t.Fatal("exact count missing")
	}
	// Cross-check against the explicitly interpreted run.
	ref, err := q.Execute(context.Background(), map[string]any{"k": 10}, interpreted())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != ref.Count || *res.TrueCount != *ref.TrueCount {
		t.Fatalf("fallback result diverges: %v/%v vs %v/%v", res.Count, *res.TrueCount, ref.Count, *ref.TrueCount)
	}
}

// TestCompiledPreparedOnce checks that compilation happens at Prepare (the
// program is shared by executions) and that one interpreted Execute does
// not poison the prepared program.
func TestCompiledPreparedOnce(t *testing.T) {
	tb := compileTestTable(t, 60, 13)
	sess, err := NewSession(NewMemorySource(tb), WithMethod("srs"), WithBudget(0.5))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q.prog == nil {
		t.Fatalf("skyband query should compile at Prepare (reason: %s)", q.progErr)
	}
	off, err := q.Execute(context.Background(), map[string]any{"k": 9}, interpreted())
	if err != nil {
		t.Fatal(err)
	}
	if off.Labeling.Compiled {
		t.Fatal("interpreted() still reports compiled labeling")
	}
	on, err := q.Execute(context.Background(), map[string]any{"k": 9})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Labeling.Compiled {
		t.Fatalf("compiled path lost after a disabled execute: %s", on.Labeling.Fallback)
	}
	if on.Count != off.Count {
		t.Fatalf("count differs: %v vs %v", on.Count, off.Count)
	}
}
