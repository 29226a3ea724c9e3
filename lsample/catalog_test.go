package lsample

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// catalogSession builds a session over testTable(n, tseed) with a fresh
// reuse catalog attached, returning the prepared skyband query and the
// catalog.
func catalogSession(t *testing.T, n int, tseed uint64, opts ...Option) (*PreparedQuery, *Catalog) {
	t.Helper()
	cat := NewCatalog(0)
	all := append([]Option{WithCatalog(cat)}, opts...)
	sess, err := NewSession(NewMemorySource(testTable(t, n, tseed)), all...)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	return q, cat
}

func sameEstimate(a, b *Estimate) bool {
	if a.Count != b.Count || a.Proportion != b.Proportion {
		return false
	}
	if (a.CI == nil) != (b.CI == nil) {
		return false
	}
	if a.CI != nil && (a.CI.Lo != b.CI.Lo || a.CI.Hi != b.CI.Hi) {
		return false
	}
	return true
}

func TestCatalogDirectReuseByteIdentical(t *testing.T) {
	// A rerun of the originating plan must be answered entirely from the
	// materialized entry — byte-identical estimate, zero fresh predicate
	// evaluations — and the estimate itself must not depend on catalog
	// state: a cold run on a second empty catalog produces the same bytes.
	params := map[string]any{"k": 8}
	opts := []Option{WithMethod("lss"), WithBudget(0.25), WithSeed(11)}

	q, cat := catalogSession(t, 200, 7, opts...)
	cold, err := q.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Reuse != ReuseNone {
		t.Fatalf("cold run reuse = %q, want %q", cold.Reuse, ReuseNone)
	}
	if cold.SamplesUsed == 0 {
		t.Fatal("cold run spent no predicate evaluations")
	}

	warm, err := q.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Reuse != ReuseDirect {
		t.Errorf("second run reuse = %q, want %q", warm.Reuse, ReuseDirect)
	}
	if !sameEstimate(cold, warm) {
		t.Errorf("direct reuse diverged: %v %v vs %v %v", warm.Count, warm.CI, cold.Count, cold.CI)
	}
	if warm.SamplesUsed != 0 {
		t.Errorf("direct reuse spent %d evals, want 0", warm.SamplesUsed)
	}
	if warm.ReusedLabels == 0 {
		t.Error("direct reuse reported no memoized labels")
	}

	q2, _ := catalogSession(t, 200, 7, opts...)
	cold2, err := q2.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(cold, cold2) || cold2.SamplesUsed != cold.SamplesUsed {
		t.Errorf("cold run depends on catalog instance: %v (%d evals) vs %v (%d evals)",
			cold2.Count, cold2.SamplesUsed, cold.Count, cold.SamplesUsed)
	}

	s := cat.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

func TestCatalogExtensionByteIdenticalAcrossParallelism(t *testing.T) {
	// Doubling the budget over a materialized entry is the extension path:
	// the hash bottom-k sample is a strict prefix extension, so the result
	// must be byte-identical to a cold run at the larger budget — at any
	// parallelism — while spending fewer fresh evaluations.
	params := map[string]any{"k": 8}
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			opts := []Option{WithMethod("lss"), WithSeed(11), WithParallelism(p)}

			qCold, _ := catalogSession(t, 200, 7, opts...)
			scratch, err := qCold.Execute(context.Background(), params, WithBudget(0.4))
			if err != nil {
				t.Fatal(err)
			}

			qExt, _ := catalogSession(t, 200, 7, opts...)
			small, err := qExt.Execute(context.Background(), params, WithBudget(0.2))
			if err != nil {
				t.Fatal(err)
			}
			ext, err := qExt.Execute(context.Background(), params, WithBudget(0.4))
			if err != nil {
				t.Fatal(err)
			}
			if ext.Reuse != ReuseExtension {
				t.Errorf("reuse = %q, want %q", ext.Reuse, ReuseExtension)
			}
			if !sameEstimate(scratch, ext) {
				t.Errorf("extension diverged from scratch at 2x budget: %v %v vs %v %v",
					ext.Count, ext.CI, scratch.Count, scratch.CI)
			}
			if ext.SamplesUsed >= scratch.SamplesUsed {
				t.Errorf("extension spent %d evals, cold spent %d — no savings",
					ext.SamplesUsed, scratch.SamplesUsed)
			}
			if small.Reuse != ReuseNone {
				t.Errorf("first run reuse = %q, want %q", small.Reuse, ReuseNone)
			}
		})
	}
}

func TestCatalogSRSAndOracleDirectReuse(t *testing.T) {
	params := map[string]any{"k": 8}
	for _, method := range []string{"srs", "oracle"} {
		t.Run(method, func(t *testing.T) {
			q, _ := catalogSession(t, 150, 7, WithMethod(method), WithBudget(0.3), WithSeed(5))
			cold, err := q.Execute(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := q.Execute(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Reuse != ReuseDirect || warm.SamplesUsed != 0 {
				t.Errorf("warm run: reuse=%q evals=%d, want direct at 0 evals", warm.Reuse, warm.SamplesUsed)
			}
			if !sameEstimate(cold, warm) {
				t.Errorf("%s direct reuse diverged: %v vs %v", method, warm.Count, cold.Count)
			}
		})
	}
}

func TestCatalogQ3ParamChangeSharesEntry(t *testing.T) {
	// k appears only in the HAVING predicate (Q3), so k=8 and k=12 share
	// one catalog entry: the second run reuses the trained classifier as
	// its stratification (direct reuse) but must relabel under the new
	// predicate — fresh evaluations, correct new estimate.
	q, cat := catalogSession(t, 200, 7, WithMethod("lss"), WithBudget(0.25), WithSeed(11))
	first, err := q.Execute(context.Background(), map[string]any{"k": 8}, WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Execute(context.Background(), map[string]any{"k": 12}, WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	if s := cat.Stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want 1 (predicate variants share the plan)", s.Entries)
	}
	if second.Reuse != ReuseDirect {
		t.Errorf("reuse = %q, want %q (classifier reused across predicates)", second.Reuse, ReuseDirect)
	}
	if second.SamplesUsed == 0 {
		t.Error("predicate change must relabel: want fresh evaluations")
	}
	if *first.TrueCount >= *second.TrueCount {
		t.Errorf("true counts not increasing with k: k=8 → %d, k=12 → %d",
			*first.TrueCount, *second.TrueCount)
	}
}

func TestCatalogEvictStaleOnSnapshotChange(t *testing.T) {
	q, cat := catalogSession(t, 120, 7, WithMethod("lss"), WithBudget(0.3), WithSeed(3))
	params := map[string]any{"k": 8}
	if _, err := q.Execute(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	if s := cat.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
	// Same name, different snapshot: the entry must go.
	if n := cat.EvictStale(map[string]*Table{"D": testTable(t, 120, 7)}); n != 1 {
		t.Errorf("EvictStale dropped %d entries, want 1", n)
	}
	res, err := q.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reuse != ReuseNone {
		t.Errorf("post-invalidation run reuse = %q, want %q", res.Reuse, ReuseNone)
	}
	// The rematerialized entry matches its own snapshot set, so it stays.
	if n := cat.EvictStale(q.snaps); n != 0 {
		t.Errorf("EvictStale dropped %d entries for the current snapshots, want 0", n)
	}
}

func TestCatalogConcurrentLookupMaterializeEvict(t *testing.T) {
	// Hammer one shared catalog from many goroutines: mixed budgets and
	// predicates materialize, extend, and directly reuse entries while
	// another goroutine churns the byte budget and invalidates snapshots.
	// Every execution must succeed, and identical plans must agree.
	cat := NewCatalog(0)
	sess, err := NewSession(NewMemorySource(testTable(t, 150, 7)),
		WithCatalog(cat), WithMethod("lss"), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := q.Execute(context.Background(), map[string]any{"k": 8}, WithBudget(0.2))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				budget := 0.2 + 0.1*float64((g+i)%3)
				k := 8 + 4*((g+i)%2)
				res, err := q.Execute(context.Background(),
					map[string]any{"k": k}, WithBudget(budget))
				if err != nil {
					errs <- fmt.Errorf("g=%d i=%d: %w", g, i, err)
					return
				}
				if budget == 0.2 && k == 8 && !sameEstimate(ref, res) {
					errs <- fmt.Errorf("g=%d i=%d: plan (0.2, k=8) diverged: %v vs %v",
						g, i, res.Count, ref.Count)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			cat.SetMaxBytes(int64(1<<14 + i*1<<12))
			cat.EvictStale(map[string]*Table{})
		}
		cat.SetMaxBytes(0)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// entryDesign reads the lss design of the catalog's only entry.
func entryDesign(t *testing.T, cat *Catalog) (budget, kLearn int, keys []int64, labels []bool) {
	t.Helper()
	ks := cat.inner.Keys()
	if len(ks) != 1 {
		t.Fatalf("%d entries resident, want 1", len(ks))
	}
	e := cat.inner.Acquire(ks[0])
	e.Lock()
	budget, kLearn, keys, labels = e.Budget, e.KLearn, e.LearnKeys, e.LearnLabels
	e.Unlock()
	cat.inner.Release(e, "")
	return
}

// TestCatalogEntryHoldsLabelsNotScores walks one entry through a cold run,
// a repeat, a budget extension, a smaller-budget recompute and a changed Q3
// parameter. After each the entry's design is the learn sample's keys and
// training labels at the best budget seen — O(budget), never a score per
// object — and the answer is the golden row recorded before designs were
// stored this way: a reuse refits the classifier from the stored labels,
// which reproduces the scores the labels were bought for.
func TestCatalogEntryHoldsLabelsNotScores(t *testing.T) {
	q, cat := catalogSession(t, 160, 7, WithMethod("lss"), WithSeed(11))
	var trained []bool // the k=8 labels of the 20-key learn sample
	for _, st := range []struct {
		golden string // row of goldenCatalog this step must reproduce
		k      int
		budget float64
		kLearn int // the entry's learn-sample size afterwards
	}{
		{"cold", 8, 0.25, 10},
		{"repeat", 8, 0.25, 10},
		{"extension", 8, 0.5, 20},
		{"smaller", 8, 0.25, 20},  // recomputed at 10, the better design stays
		{"q3-param", 12, 0.5, 20}, // trained on k=8 labels, relabeled under k=12
	} {
		est, err := q.Execute(context.Background(), map[string]any{"k": st.k}, WithBudget(st.budget))
		if err != nil {
			t.Fatalf("%s: %v", st.golden, err)
		}
		if want, ok := goldenCatalog["shards=0/lss/"+st.golden]; ok && st.golden != "q3-param" && goldenRow(est) != want {
			t.Errorf("%s:\n got  %s\n want %s", st.golden, goldenRow(est), want)
		}
		budget, kLearn, keys, labels := entryDesign(t, cat)
		if kLearn != st.kLearn || len(keys) != kLearn || len(labels) != kLearn || budget != 4*kLearn {
			t.Fatalf("%s: entry holds budget %d, learn size %d, %d keys, %d labels; want learn size %d with as many keys and labels",
				st.golden, budget, kLearn, len(keys), len(labels), st.kLearn)
		}
		switch st.golden {
		case "extension":
			trained = append([]bool(nil), labels...)
		case "q3-param":
			if est.Reuse != ReuseDirect || est.SamplesUsed != int64(est.Budget-kLearn) {
				t.Errorf("q3-param: reuse=%q evals=%d, want direct with only the %d-key estimation sample relabeled",
					est.Reuse, est.SamplesUsed, est.Budget-kLearn)
			}
			for i := range labels {
				if labels[i] != trained[i] {
					t.Fatalf("q3-param: training label %d changed under another predicate fingerprint", i)
				}
			}
		}
	}
}

// TestCatalogConcurrentColdPlansShareOneDesign: two identical cold plans
// racing for an empty catalog serialize on the entry — one materializes,
// the other reuses its labels and refits — and leave one entry holding one
// design. Run under -race.
func TestCatalogConcurrentColdPlansShareOneDesign(t *testing.T) {
	q, cat := catalogSession(t, 160, 7, WithMethod("lss"), WithBudget(0.25), WithSeed(11))
	params := map[string]any{"k": 8}
	var wg sync.WaitGroup
	ests := make([]*Estimate, 2)
	errs := make([]error, 2)
	for g := range ests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ests[g], errs[g] = q.Execute(context.Background(), params)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sameEstimate(ests[0], ests[1]) {
		t.Errorf("racing identical plans diverged: %v vs %v", ests[0].Count, ests[1].Count)
	}
	if goldenRow(ests[0]) != goldenCatalog["shards=0/lss/cold"] && goldenRow(ests[1]) != goldenCatalog["shards=0/lss/cold"] {
		t.Errorf("neither racer reproduced the cold golden row: %s / %s", goldenRow(ests[0]), goldenRow(ests[1]))
	}
	if a, b := ests[0].Reuse, ests[1].Reuse; !(a == ReuseNone && b == ReuseDirect) && !(a == ReuseDirect && b == ReuseNone) {
		t.Errorf("reuse = %q and %q, want one materialization and one direct reuse", a, b)
	}
	if ests[0].SamplesUsed+ests[1].SamplesUsed != 39 {
		t.Errorf("the racers spent %d + %d evaluations, want the cold plan's 39 once", ests[0].SamplesUsed, ests[1].SamplesUsed)
	}
	if s := cat.Stats(); s.Entries != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 miss, 1 hit", s)
	}
	if _, kLearn, keys, labels := entryDesign(t, cat); kLearn != 10 || len(keys) != 10 || len(labels) != 10 {
		t.Errorf("entry design: learn size %d, %d keys, %d labels; want 10 of each", kLearn, len(keys), len(labels))
	}
}

// TestHashPlanLearnSpan: the hash plan's learn step explains itself the way
// the classic path's does — rows trained on, where their labels came from
// (bought now, or the entry's stored design), the fit and the scoring apart,
// objects scored and the forest's scoring path — so the refit a reuse pays
// reads off explain output instead of hiding in the driver's self time.
func TestHashPlanLearnSpan(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1})
	q, _ := catalogSession(t, 160, 7, WithMethod("lss"), WithBudget(0.25), WithSeed(11), WithTracer(tracer))
	params := map[string]any{"k": 8}
	learn := func(under string, opts ...Option) map[string]any {
		t.Helper()
		if _, err := q.Execute(context.Background(), params, opts...); err != nil {
			t.Fatal(err)
		}
		parents := spansNamed(tracer.Traces(1)[0], under)
		if len(parents) != 1 {
			t.Fatalf("%d %q spans, want 1", len(parents), under)
		}
		spans := spansNamed(parents[0], "learn")
		if len(spans) != 1 {
			t.Fatalf("%d learn spans under %q, want 1", len(spans), under)
		}
		a := spans[0].Attrs
		fit, _ := a["fit_ms"].(float64)
		score, _ := a["score_ms"].(float64)
		if a["train_rows"] != 10 || a["scored"] != 160 || fit <= 0 || score <= 0 || a["score_path"] == nil {
			t.Fatalf("learn attrs under %q = %v, want 10 train rows, 160 scored, fit and score times and a score path", under, a)
		}
		if total := durMS(spans[0].Duration); fit+score > total*1.001 {
			t.Fatalf("fit %v + score %v ms exceed the learn span's %v ms", fit, score, total)
		}
		return a
	}
	if a := learn("catalog"); a["labels"] != "fresh" {
		t.Errorf("cold run: labels = %v, want fresh", a["labels"])
	}
	if a := learn("catalog"); a["labels"] != "design" {
		t.Errorf("repeat: labels = %v, want design (the refit trains on the entry's stored labels)", a["labels"])
	}
	if a := learn("shard.drive", WithShards(3)); a["labels"] != "fresh" {
		t.Errorf("sharded run: labels = %v, want fresh (per-shard entries hold labels only)", a["labels"])
	}
}
