package lsample

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// liveWorkload is the streaming test fixture: an items object table whose
// label is determined by how many events reference it, so the predicate is
// hash-indexable, key-correlated, and learnable from (f1, f2).
type liveWorkload struct {
	items  *LiveTable
	events *LiveTable
	rng    *rand.Rand
	nextID int64
}

const liveQuery = `SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > 4`

func newLiveWorkload(t testing.TB, n int, seed int64) *liveWorkload {
	t.Helper()
	items, err := NewLiveTable("items", "id:int,f1:float,f2:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	events, err := NewLiveTable("events", "item:int,v:float", "")
	if err != nil {
		t.Fatal(err)
	}
	w := &liveWorkload{items: items, events: events, rng: rand.New(rand.NewSource(seed))}
	w.appendItems(t, n)
	return w
}

// appendItems appends n new items plus their events: item i gets
// round(f1/12) events, so "more than 4 events" ≈ "f1 ≥ 54" — learnable.
func (w *liveWorkload) appendItems(t testing.TB, n int) {
	t.Helper()
	var ib, eb DeltaBatch
	for i := 0; i < n; i++ {
		id := w.nextID
		w.nextID++
		f1 := w.rng.Float64() * 100
		f2 := w.rng.Float64() * 100
		ib.Append(id, f1, f2)
		for e := 0; e < int(f1/12); e++ {
			eb.Append(id, w.rng.Float64()*10)
		}
	}
	if _, err := w.items.Apply(&ib); err != nil {
		t.Fatal(err)
	}
	if eb.Len() > 0 {
		if _, err := w.events.Apply(&eb); err != nil {
			t.Fatal(err)
		}
	}
}

// addEventsFor appends extra events referencing existing items (which can
// flip those items' labels).
func (w *liveWorkload) addEventsFor(t testing.TB, ids []int64, perID int) {
	t.Helper()
	var eb DeltaBatch
	for _, id := range ids {
		for e := 0; e < perID; e++ {
			eb.Append(id, w.rng.Float64()*10)
		}
	}
	if _, err := w.events.Apply(&eb); err != nil {
		t.Fatal(err)
	}
}

func (w *liveWorkload) session(t testing.TB, opts ...Option) *Session {
	t.Helper()
	src := NewLiveSource()
	src.AddLive(w.items)
	src.AddLive(w.events)
	sess, err := NewSession(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestRefreshDeltaPricedAndMatchesCold is the PR's acceptance criterion: on
// a 1% append delta a refresh spends ≤ 5% of the predicate evaluations of a
// cold re-estimate over the same state (WithRelabel) while returning the
// byte-identical estimate.
func TestRefreshDeltaPricedAndMatchesCold(t *testing.T) {
	w := newLiveWorkload(t, 3000, 11)
	sess := w.session(t, WithMethod("lss"), WithBudget(0.1), WithSeed(7), WithParallelism(1))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cold, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Retrained {
		t.Fatalf("first refresh must train fresh: %+v", cold)
	}
	if cold.SamplesUsed < int64(cold.Budget)/2 {
		t.Fatalf("cold refresh labels = %d, budget %d", cold.SamplesUsed, cold.Budget)
	}

	w.appendItems(t, 30) // 1% append delta

	inc, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.InvalidatedAll {
		t.Fatal("append delta must not invalidate the memo")
	}
	if inc.Retrained {
		t.Fatal("1% churn must not retrain under the default threshold")
	}
	if inc.DeltaRows == 0 {
		t.Fatal("delta rows not detected")
	}

	base, err := lq.Refresh(ctx, nil, WithRelabel(true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Count != inc.Count || base.CI.Lo != inc.CI.Lo || base.CI.Hi != inc.CI.Hi {
		t.Fatalf("refresh estimate %v %v diverged from relabeled cold estimate %v %v",
			inc.Count, *inc.CI, base.Count, *base.CI)
	}
	if base.SamplesUsed < int64(base.Budget)/2 {
		t.Fatalf("relabel baseline spent only %d evals", base.SamplesUsed)
	}
	limit := base.SamplesUsed / 20 // 5%
	if inc.SamplesUsed > limit {
		t.Fatalf("refresh spent %d evals, want ≤ %d (5%% of cold %d)", inc.SamplesUsed, limit, base.SamplesUsed)
	}
	if inc.ReusedLabels == 0 {
		t.Fatal("refresh reused no labels")
	}
}

// TestRefreshKeyCorrelatedInvalidation pins the join-index insight: events
// appended for existing items invalidate exactly those items' labels, so
// the refreshed estimate still matches the relabeled baseline byte for
// byte while spending only delta-proportional evaluations.
func TestRefreshKeyCorrelatedInvalidation(t *testing.T) {
	w := newLiveWorkload(t, 2000, 13)
	sess := w.session(t, WithMethod("lss"), WithBudget(0.1), WithSeed(3), WithParallelism(1))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lq.Refresh(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Push 6 extra events to 40 existing items: enough to flip any of them
	// positive regardless of their old event count.
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i * 37 % 2000)
	}
	w.addEventsFor(t, ids, 6)

	inc, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.InvalidatedAll {
		t.Fatal("key-correlated event appends must not invalidate everything")
	}
	base, err := lq.Refresh(ctx, nil, WithRelabel(true))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count != base.Count {
		t.Fatalf("incremental %v != relabeled %v after label-flipping delta", inc.Count, base.Count)
	}
	if inc.SamplesUsed > base.SamplesUsed/5 {
		t.Fatalf("affected-key refresh spent %d of %d cold evals", inc.SamplesUsed, base.SamplesUsed)
	}
}

// TestRefreshUncorrelatedInvalidatesAll uses a self-join (skyband) query:
// one alias of D is not pinned to the object key, so any append may flip
// any label and the refresh must discard the memo — and still match the
// relabeled baseline.
func TestRefreshUncorrelatedInvalidatesAll(t *testing.T) {
	d, err := NewLiveTable("D", "id:int,x:float,y:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var b DeltaBatch
	for i := 0; i < 400; i++ {
		b.Append(int64(i), rng.Float64()*100, rng.Float64()*100)
	}
	if _, err := d.Apply(&b); err != nil {
		t.Fatal(err)
	}
	src := NewLiveSource()
	src.AddLive(d)
	sess, err := NewSession(src, WithMethod("lss"), WithBudget(0.2), WithSeed(9), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	const sky = `SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < 25`
	lq, err := sess.PrepareLive(sky)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lq.Refresh(ctx, nil); err != nil {
		t.Fatal(err)
	}
	var b2 DeltaBatch
	for i := 400; i < 420; i++ {
		b2.Append(int64(i), rng.Float64()*100, rng.Float64()*100)
	}
	if _, err := d.Apply(&b2); err != nil {
		t.Fatal(err)
	}
	inc, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.InvalidatedAll {
		t.Fatal("self-join append must invalidate all labels")
	}
	base, err := lq.Refresh(ctx, nil, WithRelabel(true))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count != base.Count {
		t.Fatalf("estimate %v != relabeled %v", inc.Count, base.Count)
	}
}

// TestRefreshUpdateDeleteCoarsePath: updates/deletes compact storage (a new
// epoch), which refresh prices as a cold re-estimate — memo discarded,
// classifier retrained — but the estimate stays correct.
func TestRefreshUpdateDeleteCoarsePath(t *testing.T) {
	w := newLiveWorkload(t, 1000, 17)
	sess := w.session(t, WithMethod("srs"), WithBudget(0.2), WithSeed(21))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lq.Refresh(ctx, nil); err != nil {
		t.Fatal(err)
	}
	var b DeltaBatch
	b.Update(3, int64(3), 99.0, 1.0)
	b.Delete(5)
	if _, err := w.items.Apply(&b); err != nil {
		t.Fatal(err)
	}
	inc, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.InvalidatedAll {
		t.Fatal("compaction must invalidate the memo")
	}
	if inc.Objects != 999 {
		t.Fatalf("objects = %d, want 999 after one delete", inc.Objects)
	}
	base, err := lq.Refresh(ctx, nil, WithRelabel(true))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count != base.Count {
		t.Fatalf("estimate %v != relabeled %v", inc.Count, base.Count)
	}
}

// TestRefreshOracleDeltaPriced: the oracle refresh is a delta-priced exact
// count — after an append delta it matches WithExact ground truth while
// evaluating only delta-affected objects.
func TestRefreshOracleDeltaPriced(t *testing.T) {
	w := newLiveWorkload(t, 800, 23)
	sess := w.session(t, WithMethod("oracle"), WithSeed(2))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SamplesUsed != 800 {
		t.Fatalf("cold oracle labels = %d, want 800", cold.SamplesUsed)
	}
	w.appendItems(t, 25)
	inc, err := lq.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.SamplesUsed != 25 {
		t.Fatalf("oracle refresh labeled %d objects, want exactly the 25 new ones", inc.SamplesUsed)
	}
	// Ground truth via a frozen one-shot estimate on the same data.
	frozen := NewMemorySource(w.items.Snapshot(), w.events.Snapshot())
	fsess, err := NewSession(frozen, WithMethod("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := fsess.Count(ctx, liveQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count != truth.Count {
		t.Fatalf("oracle refresh count %v != ground truth %v", inc.Count, truth.Count)
	}
}

// TestRefreshExactCountsTruth: WithExact(true) sets TrueCount on every
// method Refresh serves, not only on an empty population, and equals the
// oracle's count both cold and after an append. The exact pass buys every
// label into the memo and moves no estimate.
func TestRefreshExactCountsTruth(t *testing.T) {
	ctx := context.Background()
	for _, method := range []string{"srs", "lss"} {
		t.Run(method, func(t *testing.T) {
			w := newLiveWorkload(t, 300, 3)
			prepare := func(opts ...Option) *LiveQuery {
				lq, err := w.session(t, opts...).PrepareLive(liveQuery)
				if err != nil {
					t.Fatal(err)
				}
				return lq
			}
			exact := prepare(WithMethod(method), WithBudget(0.1), WithSeed(4), WithExact(true))
			plain := prepare(WithMethod(method), WithBudget(0.1), WithSeed(4))
			oracle := prepare(WithMethod("oracle"))
			for step := range 2 {
				if step == 1 {
					w.appendItems(t, 30)
				}
				got, err := exact.Refresh(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := plain.Refresh(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				truth, err := oracle.Refresh(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.TrueCount == nil {
					t.Fatalf("step %d: WithExact(true) refresh returned no TrueCount", step)
				}
				if *got.TrueCount != *truth.TrueCount {
					t.Errorf("step %d: TrueCount %d, oracle %d", step, *got.TrueCount, *truth.TrueCount)
				}
				if got.Count != ref.Count || *got.CI != *ref.CI {
					t.Errorf("step %d: exact refresh estimates %v %v, plain %v %v", step, got.Count, *got.CI, ref.Count, *ref.CI)
				}
				if step == 0 && got.SamplesUsed != int64(got.Objects) {
					t.Errorf("cold exact refresh labeled %d of %d objects", got.SamplesUsed, got.Objects)
				}
			}
		})
	}
}

// TestRefreshDeterministicAcrossParallelism pins the determinism contract:
// identical live histories refreshed at p=1, p=4, and p=NumCPU produce
// byte-identical estimates at every step.
func TestRefreshDeterministicAcrossParallelism(t *testing.T) {
	type step struct {
		count, lo, hi float64
		fresh         int64
	}
	run := func(p int) []step {
		w := newLiveWorkload(t, 1200, 31)
		sess := w.session(t, WithMethod("lss"), WithBudget(0.1), WithSeed(19), WithParallelism(p))
		lq, err := sess.PrepareLive(liveQuery)
		if err != nil {
			t.Fatal(err)
		}
		var out []step
		for i := 0; i < 3; i++ {
			r, err := lq.Refresh(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, step{r.Count, r.CI.Lo, r.CI.Hi, r.SamplesUsed})
			w.appendItems(t, 12)
		}
		return out
	}
	p1 := run(1)
	for _, p := range []int{4, runtime.NumCPU()} {
		got := run(p)
		for i := range p1 {
			if got[i] != p1[i] {
				t.Fatalf("p=%d step %d: %+v != p=1 %+v", p, i, got[i], p1[i])
			}
		}
	}
}

// TestRefreshChurnThresholdRetrains checks the 0.1 churn threshold both
// ways: a 1% append keeps the classifier, a 30% append retrains it.
func TestRefreshChurnThresholdRetrains(t *testing.T) {
	w := newLiveWorkload(t, 1000, 37)
	sess := w.session(t, WithMethod("lss"), WithBudget(0.1), WithSeed(4), WithParallelism(1))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lq.Refresh(ctx, nil); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		items   int
		retrain bool
	}{{10, false}, {300, true}} {
		w.appendItems(t, step.items)
		r, err := lq.Refresh(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Retrained != step.retrain {
			t.Errorf("append of %d items to 1000: retrained = %t, want %t", step.items, r.Retrained, step.retrain)
		}
	}
}

// TestRefreshSpanReportsLearnStep: the refresh span says what the learn
// step cost when it ran one — rows, fit time and forest size on a retrain,
// objects scored and score time whenever objects were scored — and nothing
// about a fit on a refresh that reused the classifier.
func TestRefreshSpanReportsLearnStep(t *testing.T) {
	w := newLiveWorkload(t, 1000, 41)
	tracer := NewTracer(TracerOptions{SampleRate: 1})
	sess := w.session(t, WithMethod("lss"), WithBudget(0.1), WithSeed(4), WithParallelism(1), WithTracer(tracer))
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	refreshAttrs := func() map[string]any {
		t.Helper()
		if _, err := lq.Refresh(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		root := tracer.Traces(1)[0]
		if root.Name != "refresh" {
			t.Fatalf("newest trace is %q, want refresh", root.Name)
		}
		return root.Attrs
	}
	a := refreshAttrs()
	if a["train_rows"] != 25 || a["trees"] != 100 || a["scored"] != 1000 || a["fit_ms"] == nil || a["score_ms"] == nil || a["score_path"] != "grid" {
		t.Fatalf("cold refresh attrs = %v, want 25 train rows, 100 trees, 1000 scored on the grid, fit and score times", a)
	}
	w.appendItems(t, 10)
	a = refreshAttrs()
	if a["retrained"] != false || a["train_rows"] != nil || a["fit_ms"] != nil || a["scored"] != 10 || a["score_path"] != "walk" || a["cells"] != nil {
		t.Fatalf("1%% append refresh attrs = %v, want no fit and the 10 new objects walked, too few to build a grid for", a)
	}
}

// TestPreparedQueryPinnedDuringIngest: a PreparedQuery binds a snapshot;
// later ingest must not change its results, while a new Prepare sees the
// new data.
func TestPreparedQueryPinnedDuringIngest(t *testing.T) {
	w := newLiveWorkload(t, 500, 43)
	sess := w.session(t, WithMethod("oracle"))
	q1, err := sess.Prepare(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := q1.Execute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.appendItems(t, 100)
	after, err := q1.Execute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Count != after.Count || after.Objects != 500 {
		t.Fatalf("prepared query not pinned: %v/%d then %v/%d", before.Count, before.Objects, after.Count, after.Objects)
	}
	q2, err := sess.Prepare(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := q2.Execute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Objects != 600 {
		t.Fatalf("fresh prepare sees %d objects, want 600", fresh.Objects)
	}
}

// TestRefreshRejectsUnsupported: grouped queries and non-refreshable
// methods fail early with ErrInvalid.
func TestRefreshRejectsUnsupported(t *testing.T) {
	w := newLiveWorkload(t, 100, 47)
	sess := w.session(t)
	if _, err := sess.PrepareLive(`SELECT f1, COUNT(*) FROM (` + liveQuery + `) GROUP BY f1`); err == nil {
		t.Fatal("grouped queries must be rejected by PrepareLive")
	}
	lq, err := sess.PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lq.Refresh(context.Background(), nil, WithMethod("lws")); err == nil {
		t.Fatal("lws must be rejected by Refresh")
	}
}

// TestRefreshParamChangeResetsState: changing bound parameter values
// changes the predicate, so memoized labels must not be reused.
func TestRefreshParamChangeResetsState(t *testing.T) {
	items, err := NewLiveTable("items", "id:int,f1:float,f2:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	events, err := NewLiveTable("events", "item:int,v:float", "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	var ib, eb DeltaBatch
	for i := 0; i < 600; i++ {
		f1 := rng.Float64() * 100
		ib.Append(int64(i), f1, rng.Float64()*100)
		for e := 0; e < int(f1/12); e++ {
			eb.Append(int64(i), rng.Float64()*10)
		}
	}
	if _, err := items.Apply(&ib); err != nil {
		t.Fatal(err)
	}
	if _, err := events.Apply(&eb); err != nil {
		t.Fatal(err)
	}
	src := NewLiveSource()
	src.AddLive(items)
	src.AddLive(events)
	sess, err := NewSession(src, WithMethod("srs"), WithBudget(0.3), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > k`
	lq, err := sess.PrepareLive(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1, err := lq.Refresh(ctx, map[string]any{"k": 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lq.Refresh(ctx, map[string]any{"k": 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedLabels != 0 {
		t.Fatal("changed parameter value must reset the label memo")
	}
	r3, err := lq.Refresh(ctx, map[string]any{"k": 2})
	if err != nil {
		t.Fatal(err)
	}
	if r3.SamplesUsed != 0 || r3.Count != r2.Count {
		t.Fatalf("stable params must fully reuse: fresh=%d count %v vs %v", r3.SamplesUsed, r3.Count, r2.Count)
	}
	_ = r1
	_ = fmt.Sprint()
}
