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
	// A table absent from current entirely: the entry must go.
	if n := cat.EvictStale(map[string]*Table{"E": q.snaps["D"]}); n != 1 {
		t.Errorf("EvictStale dropped %d entries with their table absent, want 1", n)
	}
}

func TestCatalogConcurrentLookupMaterializeEvict(t *testing.T) {
	// Hammer one shared catalog from many goroutines: mixed budgets and
	// predicates materialize, extend, and directly reuse entries while a
	// byte budget under one entry's size evicts it whenever its last pin
	// goes and another goroutine invalidates snapshots. Every execution
	// must succeed, and identical plans must agree.
	cat := NewCatalog(1 << 10)
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
			cat.EvictStale(map[string]*Table{})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHashPlanLearnSpan: the hash plan's learn step explains itself the way
// the classic path's does — rows trained on, the fit and the scoring apart,
// objects scored and the forest's scoring path — so the refit a reuse pays
// reads off explain output instead of hiding in the driver's self time.
func TestHashPlanLearnSpan(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1})
	q, _ := catalogSession(t, 160, 7, WithMethod("lss"), WithBudget(0.25), WithSeed(11), WithTracer(tracer))
	params := map[string]any{"k": 8}
	learn := func(under string, opts ...Option) {
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
	}
	learn("catalog")
	learn("catalog") // a repeat refits from memoized labels
	learn("shard.drive", WithShards(3))
}

// TestCatalogFreshSeedsShareOneEntry: a label is a fact about (snapshot,
// key, predicate), so forty seeds nobody has run before count through one
// entry. Each answers exactly as a catalog-free run of its seed does, all
// of them together buy at most one evaluation per object, and once the
// population is labeled the entry stops growing. Grouped counts run the
// hash plan under WithShards, where the same holds per shard.
func TestCatalogFreshSeedsShareOneEntry(t *testing.T) {
	const n, seeds = 160, 40
	ctx := context.Background()
	params := map[string]any{"k": 8}

	q, cat := catalogSession(t, n, 7, WithMethod("lss"), WithBudget(0.25))
	var bought, bytesLabeled int64
	for seed := uint64(1); seed <= seeds; seed++ {
		est, err := q.Execute(ctx, params, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := q.Execute(ctx, params, WithSeed(seed), WithCatalog(nil), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(est, ref) || est.Budget != ref.Budget {
			t.Fatalf("seed %d: %v %v through the catalog, %v %v without one", seed, est.Count, est.CI, ref.Count, ref.CI)
		}
		want := ReuseExtension
		switch {
		case seed == 1:
			want = ReuseNone
		case est.SamplesUsed == 0:
			want = ReuseDirect
		}
		if est.Reuse != want || (want == ReuseDirect) != (est.Labeling.String() == "label memo (no predicate built)") {
			t.Errorf("seed %d bought %d labels: reuse = %q, labeling %q, want %q", seed, est.SamplesUsed, est.Reuse, est.Labeling, want)
		}
		if bought += est.SamplesUsed; bought == n && bytesLabeled == 0 {
			bytesLabeled = cat.Stats().Bytes
		}
	}
	if bought != n {
		t.Fatalf("%d seeds bought %d labels over %d objects, want each object labeled exactly once", seeds, bought, n)
	}
	if s := cat.Stats(); s.Entries != 1 || s.Bytes != bytesLabeled {
		t.Errorf("after %d seeds: %d entries, %d B (%d B when the population was labeled), want one entry that stopped growing",
			seeds, s.Entries, s.Bytes, bytesLabeled)
	}

	gcat := NewCatalog(0)
	sess := groupedSession(t, 150, WithCatalog(gcat), WithMethod("lss"), WithBudget(0.3), WithStrata(3), WithShards(2))
	gq, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	bought = 0
	for seed := uint64(1); seed <= seeds; seed++ {
		est, err := gq.ExecuteGroups(ctx, params, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := gq.ExecuteGroups(ctx, params, WithSeed(seed), WithCatalog(nil), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := formatGroups(est.Groups), formatGroups(ref.Groups); got != want || est.Total != ref.Total {
			t.Fatalf("grouped seed %d through the catalog:\n%swithout one:\n%s", seed, got, want)
		}
		bought += est.SamplesUsed
	}
	if s := gcat.Stats(); bought > 150 || s.Entries != 2 {
		t.Errorf("grouped: %d seeds bought %d labels over 150 objects in %d entries, want at most one each in one entry per shard", seeds, bought, s.Entries)
	}
}

// TestCatalogAnswerIgnoresCatalogContents: whatever an entry already holds
// — the same count under another threshold k, at a larger budget or at a
// smaller one — a count answers exactly as it does on an empty catalog, and
// predicate variants still share the one entry. (At seed 12 the lss learn
// sample's labels differ between k=8 and k=12, so a classifier kept from
// the other predicate would show.) The entry's one space is a count space:
// a count after another k buys fewer labels than the cold run, and none at
// all after an oracle pass at k=16, whose walks settle every object for
// k=12.
func TestCatalogAnswerIgnoresCatalogContents(t *testing.T) {
	ctx := context.Background()
	for _, method := range GroupMethods() {
		cold, _ := catalogSession(t, 160, 7, WithMethod(method), WithSeed(12))
		want, err := cold.Execute(ctx, map[string]any{"k": 12}, WithBudget(0.25), WithExact(true))
		if err != nil {
			t.Fatal(err)
		}
		for _, before := range []goldenStep{{k: 8, budget: 0.25}, {k: 8, budget: 0.5}, {k: 16, budget: 0.25}, {k: 12, budget: 0.5}, {k: 12, budget: 0.1}} {
			q, cat := catalogSession(t, 160, 7, WithMethod(method), WithSeed(12))
			first, err := q.Execute(ctx, map[string]any{"k": before.k}, WithBudget(before.budget), WithExact(true))
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Execute(ctx, map[string]any{"k": 12}, WithBudget(0.25), WithExact(true))
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimate(got, want) || *got.TrueCount != *want.TrueCount || got.Budget != want.Budget {
				t.Errorf("%s, k=12 after k=%d at %.2f: %v %v, on an empty catalog %v %v",
					method, before.k, before.budget, got.Count, got.CI, want.Count, want.CI)
			}
			if before.k != 12 && (got.SamplesUsed >= want.SamplesUsed || *first.TrueCount == *got.TrueCount) {
				t.Errorf("%s, k=12 after k=%d: %d evaluations and true count %d after %d, want fewer than the cold run's %d under its own predicate",
					method, before.k, got.SamplesUsed, *got.TrueCount, *first.TrueCount, want.SamplesUsed)
			}
			if before.k == 16 && method == "oracle" && got.SamplesUsed != 0 {
				t.Errorf("oracle, k=12 after k=16: %d evaluations, want every label settled by k=16's walks", got.SamplesUsed)
			}
			if s := cat.Stats(); s.Entries != 1 {
				t.Errorf("%s: %d entries, want 1 (predicate variants share the entry and its count space)", method, s.Entries)
			}
		}
	}
}

// TestCatalogMemoAnswerBuildsNoPredicate: a count whose every label is
// memoized opens no predicate.build span and says so; the first that misses
// a label builds, pays the interpreter's cross-check, and — the program
// planted here labels object 0 the other way — labels every fresh key
// through the interpreter with the reason recorded, so its answer is still
// the catalog-free one. A later miss on the resident executor labels
// through that same interpreter and reports the same reason.
func TestCatalogMemoAnswerBuildsNoPredicate(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1})
	cat := NewCatalog(0)
	sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)),
		WithCatalog(cat), WithMethod("lss"), WithBudget(0.25), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	honest, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	planted := plantDisagreement(t, sess)

	ctx := context.Background()
	params := map[string]any{"k": 8}
	count := func(seed uint64) (*Estimate, []*TraceSpan) {
		t.Helper()
		est, err := planted.Execute(ctx, params, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := honest.Execute(ctx, params, WithSeed(seed), WithCatalog(nil), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(est, ref) {
			t.Errorf("seed %d: %v %v, a catalog-free run of the honest program %v %v", seed, est.Count, est.CI, ref.Count, ref.CI)
		}
		return est, spansNamed(tracer.Traces(2)[1], "predicate.build") // newest first: the reference run, then est's
	}
	fresh := func(seed uint64, wantBuilds int) {
		t.Helper()
		est, builds := count(seed)
		if est.SamplesUsed == 0 || len(builds) != wantBuilds {
			t.Fatalf("seed %d: %d evaluations, %d predicate.build spans, want fresh labels from %d builds", seed, est.SamplesUsed, len(builds), wantBuilds)
		}
		const reason = "first-object cross-check failed"
		for _, b := range builds {
			if a := b.Attrs; a["compiled"] != false || a["fallback"] != reason {
				t.Errorf("seed %d: predicate.build attrs %v, want the interpreter fallback with its reason", seed, a)
			}
		}
		if est.Labeling.Compiled || est.Labeling.Fallback != reason {
			t.Errorf("seed %d: labeling = %+v, want the interpreter with %q", seed, est.Labeling, reason)
		}
	}
	fresh(1, 1)
	est, builds := count(1)
	if est.SamplesUsed != 0 || est.Reuse != ReuseDirect || len(builds) != 0 {
		t.Errorf("repeat: %d evaluations, reuse %q, %d predicate.build spans, want a direct reuse that builds nothing", est.SamplesUsed, est.Reuse, len(builds))
	}
	if got := est.Labeling.String(); got != "label memo (no predicate built)" {
		t.Errorf("repeat: labeling reads %q", got)
	}
	fresh(2, 0)
}

// TestCatalogConcurrentSeedsShareOneEntry: counts of different seeds run
// through one entry at the same time (run under -race). The entry is locked
// only to read and to write back, so two of them may evaluate the same key;
// none may read a wrong label or lose one it wrote: every count answers as
// a catalog-free run of its seed, and afterwards the memo answers all of
// them again without one evaluation.
func TestCatalogConcurrentSeedsShareOneEntry(t *testing.T) {
	const seeds = 8
	q, cat := catalogSession(t, 200, 7, WithMethod("lss"), WithBudget(0.2))
	ctx := context.Background()
	params := map[string]any{"k": 8}
	refs := make([]*Estimate, seeds)
	for i := range refs {
		var err error
		if refs[i], err = q.Execute(ctx, params, WithSeed(uint64(i+1)), WithCatalog(nil), WithShards(1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, err := q.Execute(ctx, params, WithSeed(uint64(i+1)))
			if err != nil {
				t.Error(err)
				return
			}
			if !sameEstimate(est, ref) || est.SamplesUsed > ref.SamplesUsed {
				t.Errorf("seed %d: %v %v at %d evaluations, a catalog-free run %v %v at %d",
					i+1, est.Count, est.CI, est.SamplesUsed, ref.Count, ref.CI, ref.SamplesUsed)
			}
		}()
	}
	wg.Wait()
	for i, ref := range refs {
		est, err := q.Execute(ctx, params, WithSeed(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(est, ref) || est.SamplesUsed != 0 || est.Reuse != ReuseDirect {
			t.Errorf("seed %d again: %v at %d evaluations, reuse %q; want %v from the memo alone", i+1, est.Count, est.SamplesUsed, est.Reuse, ref.Count)
		}
	}
	if s := cat.Stats(); s.Entries != 1 {
		t.Errorf("%d seeds left %d entries, want 1", seeds, s.Entries)
	}
}

// TestCatalogThresholdSweep (ROADMAP item 19): one snapshot and one
// catalog counted at k = 5, 10, …, 50 give every answer a fresh catalog
// gives, and buy fewer labels than per-threshold spaces would — each of
// which buys what a fresh catalog buys at its k. The order matters for
// HAVING COUNT(*) < k: a walk that stops at the k-th dominator records only
// "at least k", which settles every smaller threshold and no larger one, so
// a descending sweep answers nearly everything from the first k's walks
// while an ascending one reuses only the exact counts below each k.
func TestCatalogThresholdSweep(t *testing.T) {
	ctx := context.Background()
	plan := []Option{WithMethod("lss"), WithBudget(ledgerBudget), WithSeed(3)}
	perThreshold := map[int]*Estimate{}
	for k := 5; k <= 50; k += 5 {
		fresh, _ := catalogSession(t, ledgerObjects, 7, plan...)
		est, err := fresh.Execute(ctx, map[string]any{"k": k})
		if err != nil {
			t.Fatal(err)
		}
		perThreshold[k] = est
	}
	for _, c := range []struct {
		order   string
		from    int
		step    int
		minSave float64
	}{{"ascending", 5, 5, 0.15}, {"descending", 50, -5, 0.80}} {
		q, cat := catalogSession(t, ledgerObjects, 7, plan...)
		var bought, per int64
		for k := c.from; k >= 5 && k <= 50; k += c.step {
			got, err := q.Execute(ctx, map[string]any{"k": k})
			if err != nil {
				t.Fatal(err)
			}
			want := perThreshold[k]
			if !sameEstimate(got, want) || got.Budget != want.Budget {
				t.Errorf("%s k=%d: %v %v, a fresh catalog %v %v", c.order, k, got.Count, got.CI, want.Count, want.CI)
			}
			bought += got.SamplesUsed
			per += want.SamplesUsed
		}
		saved := 1 - float64(bought)/float64(per)
		t.Logf("%s sweep: %d evaluations, per-threshold spaces %d: %.1f %% saved", c.order, bought, per, 100*saved)
		if saved < c.minSave {
			t.Errorf("%s sweep saved %.1f %% of %d evaluations, want at least %.0f %%", c.order, 100*saved, per, 100*c.minSave)
		}
		if s := cat.Stats(); s.Entries != 1 {
			t.Errorf("%s sweep left %d entries, want the one", c.order, s.Entries)
		}
	}
}

// TestCatalogConcurrentThresholdsShareOneSpace: counts at four thresholds
// and four seeds race on one entry's count space (run under -race). Each
// answers as a catalog-free run does, the entry ends with that one space,
// and every count again is answered by the memo alone — a bound a racing
// writer tightened still settles what it settled.
func TestCatalogConcurrentThresholdsShareOneSpace(t *testing.T) {
	q, cat := catalogSession(t, 200, 7, WithMethod("lss"), WithBudget(0.2))
	ctx := context.Background()
	type run struct {
		k    int
		seed uint64
		ref  *Estimate
	}
	var runs []*run
	for _, k := range []int{6, 8, 10, 12} {
		for seed := uint64(1); seed <= 4; seed++ {
			ref, err := q.Execute(ctx, map[string]any{"k": k}, WithSeed(seed), WithCatalog(nil), WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, &run{k, seed, ref})
		}
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, err := q.Execute(ctx, map[string]any{"k": r.k}, WithSeed(r.seed))
			if err != nil {
				t.Error(err)
				return
			}
			if !sameEstimate(est, r.ref) || est.SamplesUsed > r.ref.SamplesUsed {
				t.Errorf("k=%d seed %d: %v %v at %d evaluations, a catalog-free run %v %v at %d",
					r.k, r.seed, est.Count, est.CI, est.SamplesUsed, r.ref.Count, r.ref.CI, r.ref.SamplesUsed)
			}
		}()
	}
	wg.Wait()
	for _, r := range runs {
		est, err := q.Execute(ctx, map[string]any{"k": r.k}, WithSeed(r.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(est, r.ref) || est.SamplesUsed != 0 || est.Reuse != ReuseDirect {
			t.Errorf("k=%d seed %d again: %v at %d evaluations, reuse %q; want %v from the memo alone",
				r.k, r.seed, est.Count, est.SamplesUsed, est.Reuse, r.ref.Count)
		}
	}
	if s := cat.Stats(); s.Entries != 1 {
		t.Fatalf("%d entries, want 1", s.Entries)
	}
	for _, e := range cat.entries {
		e.Lock()
		n, counted := len(e.spaces), 0
		for _, sp := range e.spaces {
			if sp.counts != nil {
				counted++
			}
		}
		e.Unlock()
		if n != 1 || counted != 1 {
			t.Errorf("the entry holds %d spaces, %d of them count spaces; want one count space for every k", n, counted)
		}
	}
}
