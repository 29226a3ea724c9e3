package lsample

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// The ledger's SQL workloads count over 300 objects at a budget of 0.35 —
// 105 evaluations a count. What those counts leave behind in the reuse
// catalog at that shape is what lsserve's resident memory is made of under
// a mixed load.
const (
	ledgerObjects = 300
	ledgerBudget  = 0.35
)

// entryFootprint fills a fresh catalog with entries: one per table
// snapshot, each bought by seeds counts of the method over its own 300-row
// table (a seed apiece). The skyband count's threshold is the parameter k,
// 8 for the first seed and 4 more for each next, so an entry keeps one count
// space that every k shares; literal counts at COUNT(*) < 8 instead, which
// keeps a one-bit space. It returns, per entry, the labels bought, the live
// heap left behind — tables, sessions and queries are garbage by then — and
// the bytes the catalog accounts. A first entry warms what the process
// builds once and is kept out of all three.
func entryFootprint(tb testing.TB, method string, literal bool, entries, seeds int) (labels, live, accounted float64) {
	tb.Helper()
	cat := NewCatalog(0)
	query := skybandQuery
	if literal {
		query = strings.Replace(skybandQuery, "< k", "< 8", 1)
	}
	fill := func(tseed uint64) (bought int64) {
		sess, err := NewSession(NewMemorySource(testTable(tb, ledgerObjects, tseed)),
			WithCatalog(cat), WithMethod(method), WithBudget(ledgerBudget), WithParallelism(1))
		if err != nil {
			tb.Fatal(err)
		}
		q, err := sess.Prepare(query)
		if err != nil {
			tb.Fatal(err)
		}
		for seed := 1; seed <= seeds; seed++ {
			var params map[string]any
			if !literal {
				params = map[string]any{"k": 4 + 4*seed}
			}
			est, err := q.Execute(context.Background(), params, WithSeed(uint64(seed)))
			if err != nil {
				tb.Fatal(err)
			}
			if first := seed == 1; first != (est.Reuse == ReuseNone) {
				tb.Fatalf("table %d seed %d: reuse = %q, want none on the entry's first count only", tseed, seed, est.Reuse)
			}
			bought += est.SamplesUsed
		}
		return bought
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	fill(1)
	h0, b0 := heap(), cat.Stats().Bytes
	var bought int64
	for i := 0; i < entries; i++ {
		bought += fill(uint64(2 + i))
	}
	h1, s1 := heap(), cat.Stats()
	if s1.Entries != entries+1 {
		tb.Fatalf("%d entries resident after counting over %d tables", s1.Entries, entries+1)
	}
	runtime.KeepAlive(cat)
	n := float64(entries)
	return float64(bought) / n, float64(h1-h0) / n, float64(s1.Bytes-b0) / n
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
// number that is resident. There is one entry per (snapshot, query, feature
// set), whatever the seeds, budgets, methods and thresholds that counted
// through it, and it costs what its labels cost: 150 lss and 150 srs
// entries holding a count space (k = 8 and 12) and 150 srs entries holding
// a one-bit space (a literal 8), each bought by two seeds at the ledger
// shape, must leave a live heap within 25 % of Stats().Bytes and under a Go
// map's worst case per label bought.
func TestCatalogAccountsResidentBytes(t *testing.T) {
	entries := 150
	if raceEnabled() || testing.Short() {
		entries = 6
	}
	for _, arm := range []struct {
		method  string
		literal bool
	}{{"lss", false}, {"srs", false}, {"srs", true}} {
		method := arm.method
		if arm.literal {
			method += " literal"
		}
		labels, live, accounted := entryFootprint(t, arm.method, arm.literal, entries, 2)
		t.Logf("%s: %.0f labels, %.0f B live, %.0f B accounted per entry over %d entries", method, labels, live, accounted, entries)
		if accounted <= 0 {
			t.Errorf("%s: catalog accounts %.0f B per entry", method, accounted)
		}
		if entries < 150 {
			continue
		}
		if ratio := accounted / live; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: catalog accounts %.0f B per entry, %.0f B are live (ratio %.2f, want within 25 %%)", method, accounted, live, ratio)
		}
		// 17 B a slot at between 1.15 and 2.6 slots a label, plus the entry.
		if bound := 800 + 45*labels; live > bound {
			t.Errorf("%s: an entry of %.0f labels holds %.0f B live, want O(labels bought): at most %.0f B", method, labels, live, bound)
		}
	}
	if raceEnabled() {
		t.Log("-race: the heap comparison is skipped — the detector changes allocation sizes; accounting and reuse still ran")
	}
}

// TestCatalogEntryIsBudgetSized: at 10 000 objects and a 2 % budget an
// entry is the size of the 200 labels bought — under 8 KB accounted, where
// a score per object was over 300 KB — and a repeat adds nothing to it.
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
	afterCold := cat.Stats().Bytes
	warm, err := q.Execute(context.Background(), map[string]any{"k": 90})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Reuse != ReuseDirect || warm.SamplesUsed != 0 || !sameEstimate(cold, warm) {
		t.Errorf("repeat over %d objects: reuse=%q evals=%d %v vs %v, want direct at 0 evals and the same bytes",
			n, warm.Reuse, warm.SamplesUsed, warm.Count, cold.Count)
	}
	if s := cat.Stats(); s.Entries != 1 || s.Bytes >= 8<<10 || s.Bytes != afterCold {
		t.Errorf("entry over %d objects at a budget of %d: %d B accounted (%d after the cold count), want the same and under 8 KB (stats %+v)",
			n, cold.Budget, s.Bytes, afterCold, s)
	}
}

// BenchmarkCatalogEntry reports what an entry costs the catalog at the
// ledger shape after two seeds counted through it: live-B/entry is the heap
// it leaves behind, accounted-B/entry what Stats().Bytes charges for it (the
// two agree to ± 25 %, see TestCatalogAccountsResidentBytes), labels/entry
// what was bought. ns/op is 100 cold counts over 50 tables.
func BenchmarkCatalogEntry(b *testing.B) {
	for _, method := range []string{"lss", "srs"} {
		b.Run(method, func(b *testing.B) {
			var labels, live, accounted float64
			for i := 0; i < b.N; i++ {
				labels, live, accounted = entryFootprint(b, method, false, 50, 2)
			}
			b.ReportMetric(labels, "labels/entry")
			b.ReportMetric(live, "live-B/entry")
			b.ReportMetric(accounted, "accounted-B/entry")
		})
	}
}
