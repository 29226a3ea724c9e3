package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
	"repro/lsample"
)

// skybandQuery is Example 2's k-skyband counting query: objects with fewer
// than k dominators.
const skybandQuery = `SELECT o1.id FROM D o1, D o2
	WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
	GROUP BY o1.id HAVING COUNT(*) < k`

// testTable builds D(id, x, y) with n uniform points.
func testTable(n int, seed uint64) *lsample.Table {
	r := xrand.New(seed)
	t, err := lsample.NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if err := t.AppendRow(int64(i), r.Float64()*100, r.Float64()*100); err != nil {
			panic(err)
		}
	}
	return t
}

// trueSkyband counts rows of t with at least one but fewer than k
// dominators, by brute force. The lower bound mirrors the query's GROUP BY
// semantics: a row with zero dominators produces no join rows, hence no
// group, so the self-join form does not count it.
func trueSkyband(t *lsample.Table, k int) int {
	n := t.NumRows()
	xi, yi := t.ColIndex("x"), t.ColIndex("y")
	count := 0
	for i := 0; i < n; i++ {
		dom := 0
		for j := 0; j < n; j++ {
			if t.Float(j, xi) >= t.Float(i, xi) && t.Float(j, yi) >= t.Float(i, yi) &&
				(t.Float(j, xi) > t.Float(i, xi) || t.Float(j, yi) > t.Float(i, yi)) {
				dom++
			}
		}
		if dom > 0 && dom < k {
			count++
		}
	}
	return count
}

func newTestService(t *testing.T, n int, opts Options) *Service {
	t.Helper()
	reg := NewRegistry()
	reg.Register(testTable(n, 7))
	return New(reg, opts)
}

// occupyAdmission takes one global admission slot under a key no request
// uses; the returned func releases it.
func occupyAdmission(t *testing.T, svc *Service) func() {
	t.Helper()
	if err := svc.admit.acquire(context.Background(), "\x00occupied", time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("occupying admission: %v", err)
	}
	return svc.admit.release
}

func TestCountOracleMatchesBruteForce(t *testing.T) {
	const n, k = 120, 10
	svc := newTestService(t, n, Options{})
	res, err := svc.Count(&CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "oracle",
		Budget: 1,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := trueSkyband(testTable(n, 7), k)
	if int(res.Estimate) != want {
		t.Errorf("oracle estimate %v, brute force %d", res.Estimate, want)
	}
	if res.Objects != n {
		t.Errorf("objects = %d, want %d", res.Objects, n)
	}
	if len(res.FeatureCols) != 0 {
		t.Errorf("oracle is feature-free but reported feature_cols %v", res.FeatureCols)
	}
}

func TestCountLearnedEstimateReasonable(t *testing.T) {
	const n, k = 120, 10
	svc := newTestService(t, n, Options{})
	res, err := svc.Count(&CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": float64(k)},
		Method: "lss",
		Budget: 0.3,
		Seed:   3,
		Exact:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueCount == nil {
		t.Fatal("exact=true did not return true_count")
	}
	if want := trueSkyband(testTable(n, 7), k); *res.TrueCount != want {
		t.Errorf("true_count = %d, brute force %d", *res.TrueCount, want)
	}
	if !res.HasCI {
		t.Error("LSS should return a confidence interval")
	}
	if got, want := res.FeatureCols, []string{"x", "y"}; !reflect.DeepEqual(got, want) {
		t.Errorf("feature_cols = %v, want %v (auto-selected from the predicate)", got, want)
	}
	// The estimate must at least be a plausible count; tightness is the
	// experiments' job, not this plumbing test's.
	if res.Estimate < 0 || res.Estimate > float64(n) {
		t.Errorf("estimate %v outside [0, %d]", res.Estimate, n)
	}
	if res.Evals > int64(res.Budget)+int64(*res.TrueCount)+int64(res.Objects) {
		t.Errorf("evals %d exceed budget %d plus the exact pass", res.Evals, res.Budget)
	}
}

func TestCountDeterministicUnderConcurrency(t *testing.T) {
	const clients = 8
	svc := newTestService(t, 100, Options{MaxInFlight: clients})
	req := func() *CountRequest {
		return &CountRequest{
			SQL:     skybandQuery,
			Params:  map[string]any{"k": 8},
			Method:  "lss",
			Budget:  0.25,
			Seed:    11,
			NoCache: true, // force every client through the full pipeline
		}
	}
	results := make([]*CountResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Count(req())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	ref := results[0]
	for i, r := range results[1:] {
		if r.Estimate != ref.Estimate || r.CILo != ref.CILo || r.CIHi != ref.CIHi || r.Evals != ref.Evals {
			t.Errorf("client %d diverged: estimate %v (CI %v..%v, evals %d) vs %v (CI %v..%v, evals %d)",
				i+1, r.Estimate, r.CILo, r.CIHi, r.Evals, ref.Estimate, ref.CILo, ref.CIHi, ref.Evals)
		}
	}
	if hits := svc.m.cacheHits.Value(); hits != 0 {
		t.Errorf("no_cache requests recorded %d cache hits", hits)
	}
	if misses := svc.m.cacheMisses.Value(); misses != 0 {
		t.Errorf("no_cache requests recorded %d cache misses without consulting the cache", misses)
	}
}

func TestCountCacheHitAndInvalidation(t *testing.T) {
	svc := newTestService(t, 80, Options{})
	req := &CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": 8},
		Method: "lss",
		Budget: 0.25,
		Seed:   5,
	}
	first, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request claims to be cached")
	}
	// Same query, different formatting: must hit via the fingerprint.
	second, err := svc.Count(&CountRequest{
		SQL:    "select   o1.id from D o1, D o2 where o2.x>=o1.x and o2.y >= o1.y and (o2.x > o1.x or o2.y > o1.y) group by o1.id having count(*) < k",
		Params: map[string]any{"k": 8},
		Method: "lss",
		Budget: 0.25,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("reformatted identical query missed the cache")
	}
	if second.Estimate != first.Estimate {
		t.Errorf("cached estimate %v != original %v", second.Estimate, first.Estimate)
	}
	if hits := svc.m.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// Different seed or params must miss.
	for _, alt := range []*CountRequest{
		{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 6},
		{SQL: skybandQuery, Params: map[string]any{"k": 9}, Method: "lss", Budget: 0.25, Seed: 5},
	} {
		r, err := svc.Count(alt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Errorf("request %+v unexpectedly hit the cache", alt)
		}
	}

	// Re-registering the dataset bumps its version: cached results for the
	// old data must not be served.
	svc.Registry.Register(testTable(80, 99))
	third, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("cache served a result for a replaced dataset")
	}
}

func TestCountCoalescesConcurrentIdenticalRequests(t *testing.T) {
	// Many clients hitting a cold cache with one identical request must
	// share a single estimation — even with MaxInFlight=1 and a queue
	// timeout far shorter than clients*estimation time, nobody gets 503.
	const clients = 8
	svc := newTestService(t, 100, Options{MaxInFlight: 1, QueueTimeout: 50 * time.Millisecond})
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 11}
	results := make([]*CountResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Count(req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if runs := svc.m.estimatesRun.Value(); runs != 1 {
		t.Errorf("estimates_run = %d, want 1 (coalesced)", runs)
	}
	for i, r := range results[1:] {
		if r.Estimate != results[0].Estimate {
			t.Errorf("client %d estimate %v != %v", i+1, r.Estimate, results[0].Estimate)
		}
	}
}

func TestCountResolvesSubqueryTables(t *testing.T) {
	// A table referenced only inside a predicate subquery must be in the
	// evaluator catalog, and its version must participate in cache
	// invalidation.
	reg := NewRegistry()
	reg.Register(testTable(60, 7))
	e, err := lsample.NewTable("E", "id:int")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Register(e)
	svc := New(reg, Options{})
	req := &CountRequest{
		SQL: `SELECT o1.id FROM D o1, D o2
			WHERE o2.x >= o1.x AND EXISTS (SELECT id FROM E WHERE id = o1.id)
			GROUP BY o1.id HAVING COUNT(*) < k`,
		Params: map[string]any{"k": 30},
		Method: "oracle",
		Budget: 1,
	}
	first, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Objects != 60 {
		t.Errorf("objects = %d, want 60", first.Objects)
	}
	// Only ids 0..9 exist in E, so at most 10 objects can satisfy q.
	if first.Estimate > 10 {
		t.Errorf("estimate %v > 10 despite EXISTS filter over E", first.Estimate)
	}

	// Replacing E must strand the cached result.
	reg.Register(e)
	second, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("cache survived re-registration of a subquery-only table")
	}
}

func TestCountLearnedMethodWithSubqueryLocalColumns(t *testing.T) {
	// A subquery over another table whose columns are referenced
	// unqualified must not pollute (or 400) feature selection for the
	// object table.
	reg := NewRegistry()
	reg.Register(testTable(60, 7))
	e, err := lsample.NewTable("E", "w:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.AppendRow(float64(i * 20)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Register(e)
	svc := New(reg, Options{})
	res, err := svc.Count(&CountRequest{
		SQL: `SELECT o.id FROM D o
			WHERE EXISTS (SELECT w FROM E WHERE w < o.x)
			GROUP BY o.id HAVING COUNT(*) >= k`,
		Params: map[string]any{"k": 1},
		Method: "lss",
		Budget: 0.3,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x"}; !reflect.DeepEqual(res.FeatureCols, want) {
		t.Errorf("feature_cols = %v, want %v (E's w must not be a feature of D)", res.FeatureCols, want)
	}
}

func TestCountCtxCanceled(t *testing.T) {
	svc := newTestService(t, 80, Options{MaxInFlight: 1, QueueTimeout: time.Minute})
	release := occupyAdmission(t, svc) // leave admission saturated
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := svc.CountCtx(ctx, &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("canceled request waited instead of returning promptly")
	}
}

func TestCountWaiterSurvivesLeaderCancellation(t *testing.T) {
	// A waiter coalesced onto a leader whose client disconnects must not
	// inherit the leader's context error; it retries and becomes the
	// leader itself.
	svc := newTestService(t, 80, Options{MaxInFlight: 1, QueueTimeout: time.Minute})
	release := occupyAdmission(t, svc) // block admission so the leader parks queued
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 5}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.CountCtx(leaderCtx, req)
		leaderErr <- err
	}()
	waiterRes := make(chan error, 1)
	time.Sleep(50 * time.Millisecond) // let the leader register its flight
	go func() {
		_, err := svc.Count(req)
		waiterRes <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter attach to the flight

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	release() // free admission for the retrying waiter
	if err := <-waiterRes; err != nil {
		t.Fatalf("waiter err = %v, want success after retry", err)
	}
}

func TestPreparedQueryReusedAcrossRequests(t *testing.T) {
	svc := newTestService(t, 80, Options{})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := svc.Count(&CountRequest{
			SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: seed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	n := svc.preps.len()
	if n != 1 {
		t.Errorf("prepared queries = %d, want 1 shared across requests on the same data", n)
	}

	// Re-registering the dataset makes the old snapshot unreachable; the
	// next request prepares fresh and the stale entry is dropped.
	svc.Registry.Register(testTable(80, 99))
	if _, err := svc.Count(&CountRequest{
		SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	n = svc.preps.len()
	if n != 1 {
		t.Errorf("prepared queries after re-register = %d, want 1 (stale entry evicted)", n)
	}
}

func TestCountAdmissionControl(t *testing.T) {
	svc := newTestService(t, 80, Options{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	release := occupyAdmission(t, svc) // occupy the only slot
	_, err := svc.Count(&CountRequest{
		SQL:    skybandQuery,
		Params: map[string]any{"k": 8},
		Seed:   1,
	})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if rej := svc.m.rejected.Value(); rej != 1 {
		t.Errorf("rejected = %d, want 1", rej)
	}
	release()
	if _, err := svc.Count(&CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Seed: 1}); err != nil {
		t.Fatalf("after releasing the slot: %v", err)
	}
}

func TestCountBadRequests(t *testing.T) {
	svc := newTestService(t, 50, Options{})
	cases := []struct {
		name string
		req  *CountRequest
	}{
		{"empty sql", &CountRequest{}},
		{"parse error", &CountRequest{SQL: "SELEC nope"}},
		{"unknown dataset", &CountRequest{SQL: "SELECT id FROM Nope GROUP BY id HAVING COUNT(*) > 0"}},
		{"no group by", &CountRequest{SQL: "SELECT id FROM D"}},
		{"bad budget", &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Budget: 1.5}},
		{"unknown method", &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "nope"}},
		{"bad param type", &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": true}}},
	}
	for _, tc := range cases {
		if _, err := svc.Count(tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if errs := svc.m.errors.Value(); errs != int64(len(cases)) {
		t.Errorf("error counter = %d, want %d", errs, len(cases))
	}
}

func TestCountFeatureFreeMethods(t *testing.T) {
	// The predicate references no numeric columns (only the parameter k),
	// so learned methods cannot run — but srs and oracle need no features
	// and must still serve the query.
	svc := newTestService(t, 60, Options{})
	q := "SELECT o.id FROM D o GROUP BY o.id HAVING COUNT(*) < k"
	for _, method := range []string{"srs", "oracle"} {
		res, err := svc.Count(&CountRequest{
			SQL: q, Params: map[string]any{"k": 5}, Method: method, Budget: 0.5, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		// Every row is its own group of size 1 < 5, so the count is |O|.
		if method == "oracle" && res.Estimate != 60 {
			t.Errorf("oracle estimate = %v, want 60", res.Estimate)
		}
		if len(res.FeatureCols) != 0 {
			t.Errorf("%s: unexpected feature cols %v", method, res.FeatureCols)
		}
	}
	if _, err := svc.Count(&CountRequest{
		SQL: q, Params: map[string]any{"k": 5}, Method: "lss", Seed: 1,
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("lss on a featureless query: err = %v, want ErrBadRequest", err)
	}
}

func TestCountCacheKeyIncludesClassifierAndStrata(t *testing.T) {
	svc := newTestService(t, 80, Options{})
	base := CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 5}
	if _, err := svc.Count(&base); err != nil {
		t.Fatal(err)
	}
	knn := base
	knn.Classifier = "knn"
	r, err := svc.Count(&knn)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("different classifier hit the rf cache entry")
	}
	strata := base
	strata.Strata = 8
	r, err = svc.Count(&strata)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("different strata hit the default-strata cache entry")
	}

	// Spelling out the defaults is the same request: must hit the entry
	// created by the defaulted base request.
	explicit := base
	explicit.Classifier = "rf"
	explicit.Strata = 4
	r, err = svc.Count(&explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Error("explicit rf/4 request missed the defaulted request's cache entry")
	}
}

func TestCountGroupKeyNotUnique(t *testing.T) {
	reg := NewRegistry()
	tb, err := lsample.NewTable("D", "id:int,x:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tb.AppendRow(int64(i%10), float64(i)); err != nil { // ids repeat
			t.Fatal(err)
		}
	}
	reg.Register(tb)
	svc := New(reg, Options{})
	_, err = svc.Count(&CountRequest{
		SQL:    "SELECT id FROM D WHERE x > k GROUP BY id HAVING COUNT(*) > 0",
		Params: map[string]any{"k": 5},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest for non-unique group key", err)
	}
}

func TestRegistryResolveVersions(t *testing.T) {
	reg := NewRegistry()
	reg.Register(testTable(5, 1))
	p1, err := reg.Resolve([]string{"D"})
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(testTable(5, 2))
	p2, err := reg.Resolve([]string{"D"})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Versions == p2.Versions {
		t.Errorf("version string unchanged after re-register: %s", p1.Versions)
	}
	if reg.Serves(p1.Vector) || !reg.Serves(p2.Vector) {
		t.Errorf("Serves(old, new) = %t, %t; want false, true", reg.Serves(p1.Vector), reg.Serves(p2.Vector))
	}
	if _, err := reg.Resolve([]string{"D", "E"}); !errors.Is(err, ErrBadRequest) {
		t.Error("unknown table should be a bad request")
	}
}

func BenchmarkServeCount(b *testing.B) {
	reg := NewRegistry()
	reg.Register(testTable(300, 7))
	for _, cached := range []bool{false, true} {
		name := "cold"
		if cached {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			svc := New(reg, Options{MaxInFlight: 8})
			req := &CountRequest{
				SQL:     skybandQuery,
				Params:  map[string]any{"k": 10},
				Method:  "lss",
				Budget:  0.1,
				NoCache: !cached,
			}
			if cached {
				if _, err := svc.Count(req); err != nil {
					b.Fatal(err)
				}
			}
			base := svc.m.predicateEvals.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !cached {
					req.Seed = uint64(i) // defeat any caching; vary the run
				}
				if _, err := svc.Count(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(svc.m.predicateEvals.Value()-base)/float64(b.N), "evals/op")
		})
	}
}

// TestCountContainsLabelingPoolPanic: a predicate fault — a division by
// zero on an object the first-object checks never see — raised on a
// labeling-pool worker goroutine at Parallelism > 1 (classic path, which a
// service without a reuse catalog takes) or on a driver scatter goroutine
// (hash plan, cached or no_cache) is the request's error: 400 bad_request
// on either path, no logged stack, nothing left in flight. It used to be a
// panic the request-level recover turned into a 500, and before that it
// killed the process.
func TestCountContainsLabelingPoolPanic(t *testing.T) {
	tb, err := lsample.NewTable("D", "id:int,x:float,y:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		y := float64(i%7 + 1)
		if i == 5 {
			y = 0 // a non-first row divides by zero
		}
		if err := tb.AppendRow(int64(i), float64(i), y); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	reg.Register(tb)
	var logs bytes.Buffer
	svc := New(reg, Options{Parallelism: 4, Logger: obs.NewLogger(&logs)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	classic := New(reg, Options{Parallelism: 4, CatalogBytes: -1, Logger: obs.NewLogger(&logs)})
	cts := httptest.NewServer(classic.Handler())
	defer cts.Close()

	req := &CountRequest{
		// HAVING runs per object group, so construction-time validation of
		// object 0 never sees row 5's divisor.
		SQL: `SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x
			GROUP BY o1.id HAVING COUNT(*) / MIN(o1.y) < k`,
		Params: map[string]any{"k": 8},
		Method: "oracle",
	}
	for _, tc := range []struct {
		path    string
		svc     *Service
		url     string
		noCache bool
	}{
		{"classic path", classic, cts.URL, false},
		{"hash plan", svc, ts.URL, false},
		{"hash plan, no_cache", svc, ts.URL, true},
	} {
		req.NoCache = tc.noCache
		_, err := tc.svc.CountCtx(context.Background(), req)
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s: CountCtx err = %v, want the division by zero as a bad request", tc.path, err)
		}
		resp, payload := postJSON(t, tc.url+"/v1/count", req)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(payload, []byte(`"bad_request"`)) {
			t.Fatalf("%s: status %d body %s, want 400 bad_request", tc.path, resp.StatusCode, payload)
		}
	}
	req.NoCache = false
	if strings.Contains(logs.String(), "panic serving count request") {
		t.Errorf("a predicate fault was logged as a panic:\n%s", logs.String())
	}
	if svc.m.errors.Value() != 4 || svc.admit.inflight() != 0 {
		t.Errorf("hash plan: errors = %d, inflight = %d after four faulting requests; want 4, 0", svc.m.errors.Value(), svc.admit.inflight())
	}
	if classic.m.errors.Value() != 2 || classic.admit.inflight() != 0 {
		t.Errorf("classic path: errors = %d, inflight = %d after two faulting requests; want 2, 0", classic.m.errors.Value(), classic.admit.inflight())
	}

	// A coordinator's workers meet the fault inside a shard op; the worker
	// answers 400, which the coordinator passes on as permanent instead of
	// failing over from one faulting worker to the next.
	_, worker := newWorkerServer(t, tb)
	coord := newCoordinator(t, CoordinatorOptions{Shards: 2}, worker)
	if _, err := coord.Count(context.Background(), req); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("coordinator: err = %v, want the division by zero as a bad request", err)
	}

	// Anything else that panics under a request is a bug, and the
	// request-level recover still contains it: a logged 500, slot released.
	svc.preps = nil // the estimation dereferences it after admission
	resp, payload := postJSON(t, ts.URL+"/v1/count", req)
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(payload, []byte(`"internal"`)) {
		t.Fatalf("status %d body %s, want 500 internal", resp.StatusCode, payload)
	}
	if !strings.Contains(logs.String(), "panic serving count request") || svc.admit.inflight() != 0 {
		t.Errorf("the contained bug was not logged, or left %d in flight", svc.admit.inflight())
	}
}
