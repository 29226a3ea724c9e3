package lsample

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// formatGroups renders group results value-for-value (dereferencing the CI
// and TrueCount pointers) so byte-identical runs compare equal.
func formatGroups(gs []GroupResult) string {
	var sb strings.Builder
	for _, g := range gs {
		fmt.Fprintf(&sb, "%v|%d|%v|%v|%d|%t", g.Key, g.Objects, g.Count, g.Proportion, g.Sampled, g.Exact)
		if g.CI != nil {
			fmt.Fprintf(&sb, "|ci=%v,%v,%v", g.CI.Lo, g.CI.Hi, g.CI.Level)
		}
		if g.TrueCount != nil {
			fmt.Fprintf(&sb, "|tc=%d", *g.TrueCount)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

const groupedSQL = `
	SELECT region, COUNT(*) FROM (
		SELECT o1.id, o1.region FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id, o1.region HAVING COUNT(*) < k
	) GROUP BY region`

// groupedTable builds D(id, x, y, region) with three regions of uneven
// sizes.
func groupedTable(t *testing.T, n int) *Table {
	t.Helper()
	tb, err := NewTable("D", "id:int,x:float,y:float,region:string")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "east", "north", "east", "west"}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(int64(i), r.Float64()*100, r.Float64()*100, regions[i%len(regions)]); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func groupedSession(t *testing.T, n int, opts ...Option) *Session {
	t.Helper()
	sess, err := NewSession(NewMemorySource(groupedTable(t, n)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestExecuteGroupsBasic(t *testing.T) {
	sess := groupedSession(t, 150, WithMethod("lss"), WithBudget(0.3), WithSeed(5), WithStrata(3))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsGrouped() {
		t.Fatal("query not detected as grouped")
	}
	if cols := q.GroupColumns(); len(cols) != 1 || cols[0] != "region" {
		t.Fatalf("GroupColumns = %v", cols)
	}
	res, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20}, WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Groups))
	}
	keys := make([]string, len(res.Groups))
	objects, total := 0, 0.0
	for i, g := range res.Groups {
		keys[i] = g.Key[0]
		objects += g.Objects
		total += g.Count
		if g.TrueCount == nil {
			t.Fatalf("group %v: no TrueCount under WithExact", g.Key)
		}
		if g.CI == nil {
			t.Fatalf("group %v: no CI", g.Key)
		}
		if g.Count < 0 || g.Count > float64(g.Objects) {
			t.Fatalf("group %v: count %v outside [0, %d]", g.Key, g.Count, g.Objects)
		}
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("groups not ordered by key: %v", keys)
	}
	if objects != res.Objects || res.Objects != 150 {
		t.Fatalf("group objects sum %d, total %d, want 150", objects, res.Objects)
	}
	if total != res.Total {
		t.Fatalf("sum of group counts %v != Total %v", total, res.Total)
	}
	if res.FeatureColumns == nil {
		t.Fatal("lss run reported no feature columns")
	}
	if res.SamplesUsed <= int64(res.Budget) {
		t.Fatalf("SamplesUsed %d should include the exact pass beyond budget %d", res.SamplesUsed, res.Budget)
	}
}

// TestExecuteGroupsDeterministicAcrossParallelism pins the PR's core
// determinism contract: for a fixed seed, per-group counts are
// byte-identical whether the classifier runs sequentially or on all cores.
func TestExecuteGroupsDeterministicAcrossParallelism(t *testing.T) {
	run := func(p int) string {
		sess := groupedSession(t, 150, WithMethod("lss"), WithBudget(0.3), WithSeed(7), WithStrata(3))
		q, err := sess.Prepare(groupedSQL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20}, WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s|%v|%d", formatGroups(res.Groups), res.Total, res.SamplesUsed)
	}
	seq := run(1)
	for _, p := range []int{4, runtime.NumCPU()} {
		if got := run(p); got != seq {
			t.Fatalf("p=%d differs from p=1:\n%s\nvs\n%s", p, got, seq)
		}
	}
}

func TestExecuteGroupsRepeatableWithinQuery(t *testing.T) {
	sess := groupedSession(t, 120, WithMethod("srs"), WithBudget(0.2), WithSeed(3))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20})
	if err != nil {
		t.Fatal(err)
	}
	if formatGroups(a.Groups) != formatGroups(b.Groups) {
		t.Fatal("repeated ExecuteGroups with the same seed diverged")
	}
}

func TestGroupedFeatureStateBuildsOnce(t *testing.T) {
	sess := groupedSession(t, 120, WithMethod("lss"), WithBudget(0.3), WithSeed(2), WithStrata(3))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 15}); err != nil {
			t.Fatal(err)
		}
	}
	q.featMu.Lock()
	built := len(q.feats)
	q.featMu.Unlock()
	if built != 1 {
		t.Fatalf("feature state built %d times, want 1", built)
	}
}

func TestExecuteGroupsWrongEntryPoints(t *testing.T) {
	sess := groupedSession(t, 60)
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(context.Background(), map[string]any{"k": 20}); err == nil ||
		!strings.Contains(err.Error(), "ExecuteGroups") {
		t.Fatalf("Execute on grouped query: err = %v", err)
	}
	plain, err := sess.Prepare(`SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.IsGrouped() {
		t.Fatal("plain query detected as grouped")
	}
	if _, err := plain.ExecuteGroups(context.Background(), map[string]any{"k": 20}); err == nil ||
		!strings.Contains(err.Error(), "use Execute") {
		t.Fatalf("ExecuteGroups on plain query: err = %v", err)
	}
}

func TestExecuteGroupsUnsupportedMethod(t *testing.T) {
	sess := groupedSession(t, 60, WithMethod("lws"))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20}); err == nil ||
		!strings.Contains(err.Error(), "does not support GROUP BY") {
		t.Fatalf("err = %v, want unsupported-method", err)
	}
}

func TestCountGroupsOracleMatchesExact(t *testing.T) {
	sess := groupedSession(t, 100, WithSeed(1))
	res, err := sess.CountGroups(context.Background(), groupedSQL,
		map[string]any{"k": 20}, WithMethod("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	srs, err := sess.CountGroups(context.Background(), groupedSQL,
		map[string]any{"k": 20}, WithMethod("srs"), WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(srs.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(res.Groups), len(srs.Groups))
	}
	for i, g := range res.Groups {
		if !g.Exact {
			t.Fatalf("oracle group %v not exact", g.Key)
		}
		if want := float64(*srs.Groups[i].TrueCount); g.Count != want {
			t.Fatalf("group %v: oracle %v vs exact %v", g.Key, g.Count, want)
		}
	}
}

func TestExecuteGroupsMultiColumn(t *testing.T) {
	tb, err := NewTable("D", "id:int,x:float,region:string,tier:int")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 90; i++ {
		if err := tb.AppendRow(int64(i), r.Float64(), []string{"a", "b"}[i%2], int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(NewMemorySource(tb))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.CountGroups(context.Background(), `
		SELECT region, tier, COUNT(*) FROM (
			SELECT o.id, o.region, o.tier FROM D o, D o2
			WHERE o2.x >= o.x GROUP BY o.id, o.region, o.tier HAVING COUNT(*) < 30
		) GROUP BY region, tier`, nil, WithMethod("srs"), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.GroupColumns; len(got) != 2 || got[0] != "region" || got[1] != "tier" {
		t.Fatalf("GroupColumns = %v", got)
	}
	if len(res.Groups) != 6 {
		t.Fatalf("got %d groups, want 6 (2 regions x 3 tiers)", len(res.Groups))
	}
	var keys [][]string
	for _, g := range res.Groups {
		if len(g.Key) != 2 {
			t.Fatalf("key %v has %d columns", g.Key, len(g.Key))
		}
		keys = append(keys, g.Key)
	}
	if !sort.SliceIsSorted(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	}) {
		t.Fatalf("multi-column keys not ordered: %v", keys)
	}
}

func TestExecuteGroupsCtxCanceled(t *testing.T) {
	sess := groupedSession(t, 120, WithMethod("srs"), WithBudget(0.5), WithSeed(1))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.ExecuteGroups(ctx, map[string]any{"k": 20}); err == nil {
		t.Fatal("canceled ctx did not abort grouped execution")
	}
}
