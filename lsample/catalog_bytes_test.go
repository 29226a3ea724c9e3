package lsample

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// The ledger's SQL workloads count over 300 objects at a budget of 0.35 —
// 105 evaluations, 26 of them the lss learn sample. What one cold plan
// leaves behind in the reuse catalog at that shape is what lsserve's
// resident memory is made of under a mixed load.
const (
	ledgerObjects = 300
	ledgerBudget  = 0.35
)

// planFootprint materializes plans cold plans of the method (one per seed)
// through a fresh catalog and returns, per plan, the live heap they left
// behind and the bytes the catalog accounts for them. A first plan warms
// everything the prepared query builds once and is kept out of both.
func planFootprint(tb testing.TB, method string, plans int) (live, accounted float64) {
	tb.Helper()
	cat := NewCatalog(0)
	sess, err := NewSession(NewMemorySource(testTable(tb, ledgerObjects, 7)),
		WithCatalog(cat), WithMethod(method), WithBudget(ledgerBudget), WithParallelism(1))
	if err != nil {
		tb.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]any{"k": 8}
	cold := func(seed uint64) {
		est, err := q.Execute(context.Background(), params, WithSeed(seed))
		if err != nil {
			tb.Fatal(err)
		}
		if est.Reuse != ReuseNone {
			tb.Fatalf("seed %d: reuse = %q, want a cold plan", seed, est.Reuse)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	cold(1)
	h0, b0 := heap(), cat.Stats().Bytes
	for i := 0; i < plans; i++ {
		cold(uint64(2 + i))
	}
	h1, s1 := heap(), cat.Stats()
	if s1.Entries != plans+1 {
		tb.Fatalf("%d entries resident after %d cold plans", s1.Entries, plans+1)
	}
	runtime.KeepAlive(cat)
	return float64(h1-h0) / float64(plans), float64(s1.Bytes-b0) / float64(plans)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCatalogAccountsResidentBytes: the number -catalog-mb bounds is the
// number that is resident. 300 cold lss plans and 300 cold srs plans at the
// ledger shape must leave a live heap within 25 % of Stats().Bytes, and an
// lss plan — the learn sample's keys and labels plus the label memo, no
// score map — must stay under 3.5 KB.
func TestCatalogAccountsResidentBytes(t *testing.T) {
	plans := 300
	if raceEnabled() || testing.Short() {
		plans = 12
	}
	for _, method := range []string{"lss", "srs"} {
		live, accounted := planFootprint(t, method, plans)
		t.Logf("%s: %.0f B live, %.0f B accounted per plan over %d plans", method, live, accounted, plans)
		if accounted <= 0 {
			t.Errorf("%s: catalog accounts %.0f B per plan", method, accounted)
		}
		if plans < 300 {
			continue
		}
		if ratio := accounted / live; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: catalog accounts %.0f B per plan, %.0f B are live (ratio %.2f, want within 25 %%)", method, accounted, live, ratio)
		}
		if method == "lss" && live > 3500 {
			t.Errorf("lss plan holds %.0f B live, want O(budget): at most 3 500 B at the ledger shape", live)
		}
	}
	if raceEnabled() {
		t.Log("-race: the heap comparison is skipped — the detector changes allocation sizes; accounting and reuse still ran")
	}
}

// TestCatalogEntryIsBudgetSized: at 10 000 objects and a 2 % budget an lss
// entry is still the size of its budget — under 8 KB accounted, where a
// score per object was over 300 KB.
func TestCatalogEntryIsBudgetSized(t *testing.T) {
	const n = 10000
	// Joining a one-row table keeps the interpreter's first-object check —
	// a scan of the whole cross product — at 10 000 rows instead of 10⁸; an
	// entry's size does not depend on what its predicate costs.
	one, err := NewTable("T", "v:float")
	if err != nil {
		t.Fatal(err)
	}
	if err := one.AppendRow(0.0); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	sess, err := NewSession(NewMemorySource(testTable(t, n, 7), one), WithCatalog(cat), WithMethod("lss"), WithBudget(0.02), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(`SELECT o1.id FROM D o1, T t WHERE o1.x + o1.y + t.v < k GROUP BY o1.id HAVING COUNT(*) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := q.Execute(context.Background(), map[string]any{"k": 90})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := q.Execute(context.Background(), map[string]any{"k": 90})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Reuse != ReuseDirect || warm.SamplesUsed != 0 || !sameEstimate(cold, warm) {
		t.Errorf("repeat over %d objects: reuse=%q evals=%d %v vs %v, want direct at 0 evals and the same bytes",
			n, warm.Reuse, warm.SamplesUsed, warm.Count, cold.Count)
	}
	if s := cat.Stats(); s.Entries != 1 || s.Bytes >= 8<<10 {
		t.Errorf("lss entry over %d objects at a budget of %d: %d B accounted, want under 8 KB (stats %+v)", n, cold.Budget, s.Bytes, s)
	}
}

// BenchmarkCatalogPlan reports what one cold plan costs the catalog at the
// ledger shape: live-B/plan is the heap it leaves behind, accounted-B/plan
// what Stats().Bytes charges for it (the two agree to ± 25 %, see
// TestCatalogAccountsResidentBytes). ns/op is 100 cold counts.
func BenchmarkCatalogPlan(b *testing.B) {
	for _, method := range []string{"lss", "srs"} {
		b.Run(method, func(b *testing.B) {
			var live, accounted float64
			for i := 0; i < b.N; i++ {
				live, accounted = planFootprint(b, method, 100)
			}
			b.ReportMetric(live, "live-B/plan")
			b.ReportMetric(accounted, "accounted-B/plan")
		})
	}
}
