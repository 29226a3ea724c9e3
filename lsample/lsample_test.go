package lsample

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/xrand"
)

// skybandQuery is Example 2's k-skyband counting query.
const skybandQuery = `SELECT o1.id FROM D o1, D o2
	WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
	GROUP BY o1.id HAVING COUNT(*) < k`

// testTable builds D(id, x, y) with n uniform points.
func testTable(t testing.TB, n int, seed uint64) *Table {
	t.Helper()
	r := xrand.New(seed)
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

// ellipse builds a synthetic population and predicate for Estimator tests.
func ellipse(n int, seed uint64) ([][]float64, func(int) bool) {
	r := xrand.New(seed)
	features := make([][]float64, n)
	for i := range features {
		features[i] = []float64{r.Float64()*4 - 2, r.Float64()*4 - 2}
	}
	pred := func(i int) bool {
		x, y := features[i][0], features[i][1]
		return x*x/2.2+y*y/0.7 <= 1
	}
	return features, pred
}

func TestMethodNamesBuild(t *testing.T) {
	for _, name := range Methods() {
		cfg, err := newConfig(defaultConfig(), []Option{WithMethod(name)})
		if err != nil {
			t.Fatalf("WithMethod(%q): %v", name, err)
		}
		m, err := cfg.buildMethod()
		if err != nil {
			t.Errorf("buildMethod(%q): %v", name, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("buildMethod(%q): empty method name", name)
		}
	}
	if _, err := NewEstimator(WithMethod("nope")); !errors.Is(err, ErrInvalid) {
		t.Error("unknown method should be ErrInvalid")
	}
	if _, err := NewEstimator(WithClassifier("nope")); !errors.Is(err, ErrInvalid) {
		t.Error("unknown classifier should be ErrInvalid")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []Option{
		WithBudget(0),
		WithBudget(1.5),
		WithStrata(1),
	}
	for i, opt := range bad {
		if _, err := NewEstimator(opt); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad option %d: err = %v, want ErrInvalid", i, err)
		}
	}
	if _, err := ParseInterval("nope"); !errors.Is(err, ErrInvalid) {
		t.Error("unknown interval should be ErrInvalid")
	}
	for s, want := range map[string]Interval{"": Wald, "wald": Wald, "wilson": Wilson} {
		iv, err := ParseInterval(s)
		if err != nil || iv != want {
			t.Errorf("ParseInterval(%q) = %v, %v", s, iv, err)
		}
	}
}

func TestConvertParamsCanonicalForms(t *testing.T) {
	vals, strs, err := convertParams(map[string]any{"k": float64(25), "d": 1.5, "s": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if vals["k"].Kind != engine.KInt || strs["k"] != "25" { // whole float becomes int
		t.Errorf("k: got %v / %q", vals["k"], strs["k"])
	}
	if strs["d"] != "1.5" || strs["s"] != "'abc'" {
		t.Errorf("canonical strings: %v", strs)
	}
	if _, _, err := convertParams(map[string]any{"b": []any{}}); err == nil {
		t.Error("want error for unsupported param type")
	}
	// A json.Number binds as a float64 of its text would, except that an
	// int64 binds exactly past 2^53.
	for text, want := range map[string]string{
		"25": "25", "25.0": "25", "1e2": "100", "-0": "0", "2.5": "2.5", "1e15": "1e+15",
		"9007199254740993": "9007199254740993", "1e400": "",
	} {
		vals, strs, err := convertParams(map[string]any{"p": json.Number(text)})
		switch {
		case want == "":
			if err == nil {
				t.Errorf("json %s: bound %v, want an error", text, vals["p"])
			}
		case err != nil || strs["p"] != want:
			t.Errorf("json %s: bound %v as %q (%v), want %q", text, vals["p"], strs["p"], err, want)
		}
	}
	if vals, _, _ := convertParams(map[string]any{"p": json.Number("9007199254740993")}); vals["p"] != engine.IntVal(1<<53+1) {
		t.Errorf("json 9007199254740993 bound %v, want the int 2^53 + 1", vals["p"])
	}
}

func TestPreparedQueryFeatureSelectOnce(t *testing.T) {
	// Repeated execution with different bound parameters must do the
	// decompose/feature-select work exactly once.
	sess, err := NewSession(NewMemorySource(testTable(t, 100, 7)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery, WithMethod("lss"), WithBudget(0.25), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{6, 8, 10} {
		res, err := q.Execute(context.Background(), map[string]any{"k": k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Count < 0 || res.Count > 100 {
			t.Errorf("k=%d: estimate %v outside [0, 100]", k, res.Count)
		}
		if want := []string{"x", "y"}; !reflect.DeepEqual(res.FeatureColumns, want) {
			t.Errorf("k=%d: feature columns %v, want %v", k, res.FeatureColumns, want)
		}
	}
	q.featMu.Lock()
	builds := len(q.feats)
	q.featMu.Unlock()
	if builds != 1 {
		t.Errorf("feature-state builds = %d, want 1 across 3 executions", builds)
	}
}

func TestPreparedQueryDeterministic(t *testing.T) {
	// Fixed (params, seed) ⇒ byte-identical estimates, at any parallelism.
	sess, err := NewSession(NewMemorySource(testTable(t, 100, 7)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery, WithMethod("lss"), WithBudget(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"k": 8}
	ref, err := q.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		got, err := q.Execute(context.Background(), params, WithParallelism(p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got.Count != ref.Count || got.CI.Lo != ref.CI.Lo || got.CI.Hi != ref.CI.Hi ||
			got.SamplesUsed != ref.SamplesUsed {
			t.Errorf("p=%d diverged: %v [%v, %v] (%d evals) vs %v [%v, %v] (%d evals)",
				p, got.Count, got.CI.Lo, got.CI.Hi, got.SamplesUsed,
				ref.Count, ref.CI.Lo, ref.CI.Hi, ref.SamplesUsed)
		}
	}
	if ref.Fingerprint == "" {
		t.Error("SQL-path estimate missing fingerprint")
	}
}

func TestEstimatorMatchesDirectCorePath(t *testing.T) {
	// The SDK facade must be a zero-cost wrapper: for the same seed its
	// estimates are byte-identical to constructing the core method by hand
	// the way pre-SDK callers did.
	features, pred := ellipse(2000, 7)
	const seed = 42

	est, err := NewEstimator(WithMethod("lss"), WithBudget(0.1), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), features, pred)
	if err != nil {
		t.Fatal(err)
	}

	obj, err := core.NewObjectSet(features, predicate.NewFunc(pred))
	if err != nil {
		t.Fatal(err)
	}
	m := &core.LSS{NewClassifier: core.ForestClassifier(0), Strata: 4}
	want, err := m.Estimate(context.Background(), obj, 200, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Estimate || got.CI.Lo != want.CI.Lo || got.CI.Hi != want.CI.Hi ||
		got.SamplesUsed != want.Evals {
		t.Errorf("SDK path diverged from direct core path: %v [%v, %v] (%d) vs %v [%v, %v] (%d)",
			got.Count, got.CI.Lo, got.CI.Hi, got.SamplesUsed,
			want.Estimate, want.CI.Lo, want.CI.Hi, want.Evals)
	}
}

func TestEstimateCtxCancelMidRun(t *testing.T) {
	// Canceling mid-run must abort before the next predicate evaluation
	// and surface a wrapped context.Canceled.
	features, pred := ellipse(2000, 9)
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	cancelingPred := func(i int) bool {
		if evals.Add(1) == 5 {
			cancel()
		}
		return pred(i)
	}
	est, err := NewEstimator(WithMethod("srs"), WithBudget(0.5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = est.Estimate(ctx, features, cancelingPred)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if n := evals.Load(); n > 5 {
		t.Errorf("predicate evaluated %d times after cancellation at 5", n-5)
	}
}

func TestExecuteCtxCanceled(t *testing.T) {
	// The SQL path honors cancellation too: a pre-canceled context returns
	// promptly with a wrapped context.Canceled.
	sess, err := NewSession(NewMemorySource(testTable(t, 60, 7)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery, WithMethod("lss"), WithBudget(0.3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Execute(ctx, map[string]any{"k": 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestWilsonIntervalDiffers(t *testing.T) {
	features, pred := ellipse(1500, 3)
	run := func(iv Interval) *Estimate {
		t.Helper()
		est, err := NewEstimator(WithMethod("srs"), WithBudget(0.1), WithSeed(5), WithInterval(iv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := est.Estimate(context.Background(), features, pred)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wald, wilson := run(Wald), run(Wilson)
	if wald.Count != wilson.Count {
		t.Errorf("point estimates differ: %v vs %v", wald.Count, wilson.Count)
	}
	if wald.CI.Lo == wilson.CI.Lo && wald.CI.Hi == wilson.CI.Hi {
		t.Error("Wilson CI identical to Wald; WithInterval did not reach the estimator")
	}
}

func TestEstimatorExact(t *testing.T) {
	features, pred := ellipse(800, 5)
	truth := 0
	for i := range features {
		if pred(i) {
			truth++
		}
	}
	est, err := NewEstimator(WithMethod("srs"), WithBudget(0.1), WithSeed(2), WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), features, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueCount == nil || *res.TrueCount != truth {
		t.Fatalf("TrueCount = %v, want %d", res.TrueCount, truth)
	}
	if res.SamplesUsed < int64(len(features)) {
		t.Errorf("exact pass reported %d evals, want ≥ %d", res.SamplesUsed, len(features))
	}
}

// TestOpenCSVAndSyntheticTable covers the two table constructors a
// MemorySource is filled from besides NewTable.
func TestOpenCSVAndSyntheticTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("id,x,y\n0,1.5,2\n1,3,4\n2,5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what       string
		open       func() (*Table, error)
		rows, cols int // rows 0: the call must fail with ErrInvalid; cols 0: not checked
	}{
		{"csv", func() (*Table, error) { return OpenCSV("D", "id:int,x:float,y:float", path) }, 3, 3},
		{"neighbors", func() (*Table, error) { return SyntheticTable("neighbors", 500, 3) }, 500, 0},
		{"sports", func() (*Table, error) { return SyntheticTable("sports", 500, 3) }, 500, 0},
		{"unknown kind", func() (*Table, error) { return SyntheticTable("nope", 500, 3) }, 0, 0},
	} {
		tb, err := tc.open()
		if tc.rows == 0 {
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: err = %v, want ErrInvalid", tc.what, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if tb.NumRows() != tc.rows || (tc.cols > 0 && tb.NumCols() != tc.cols) {
			t.Errorf("%s: table is %dx%d, want %d rows (and %d columns unless 0)", tc.what, tb.NumRows(), tb.NumCols(), tc.rows, tc.cols)
		}
	}
}

func TestQueryShape(t *testing.T) {
	fp1, tables, err := QueryShape(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "D" {
		t.Errorf("tables = %v, want [D]", tables)
	}
	// Reformatting must not change the shape.
	fp2, _, err := QueryShape("select   o1.id from D o1, D o2 where o2.x>=o1.x and o2.y >= o1.y and (o2.x > o1.x or o2.y > o1.y) group by o1.id having count(*) < k")
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("reformatted query changed shape: %q vs %q", fp1, fp2)
	}
	if _, _, err := QueryShape("SELEC nope"); !errors.Is(err, ErrInvalid) {
		t.Error("parse error should be ErrInvalid")
	}
}

func TestExactPassCtxCanceled(t *testing.T) {
	// The WithExact full scan honors cancellation too: cancel once the
	// estimation is done and the exact pass has started.
	features, pred := ellipse(600, 11)
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	cancelingPred := func(i int) bool {
		if evals.Add(1) == 20 { // past the 10-eval estimation budget
			cancel()
		}
		return pred(i)
	}
	est, err := NewEstimator(WithMethod("srs"), WithBudget(0.01), WithSeed(1), WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	_, err = est.Estimate(ctx, features, cancelingPred)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if n := evals.Load(); n > 20 {
		t.Errorf("exact pass evaluated %d objects after cancellation at 20", n-20)
	}
}

// TestLearnSpanSplitsFitAndScore: the learn span of an explained count
// carries the phase's fixed cost (rows trained on, time inside Fit, forest
// size) apart from its per-object cost (objects scored, time scoring), so
// the split reads off explain output. A method that does not learn leaves
// the span bare; one that scores as part of the count itself (qlcc) reports
// no scoring in its learn phase.
func TestLearnSpanSplitsFitAndScore(t *testing.T) {
	features, pred := ellipse(2000, 7)
	learnSpan := func(method string) *TraceSpan {
		t.Helper()
		tracer := NewTracer(TracerOptions{SampleRate: 1})
		est, err := NewEstimator(WithMethod(method), WithBudget(0.1), WithSeed(42), WithTracer(tracer))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est.Estimate(context.Background(), features, pred); err != nil {
			t.Fatal(err)
		}
		for _, c := range tracer.Traces(1)[0].Children {
			if c.Name != "estimate" {
				continue
			}
			for _, p := range c.Children {
				if p.Name == "learn" {
					return p
				}
			}
		}
		t.Fatal("no estimate/learn span")
		return nil
	}

	sp := learnSpan("lss")
	a := sp.Attrs
	fit, _ := a["fit_ms"].(float64)
	score, _ := a["score_ms"].(float64)
	if a["train_rows"] != 50 || a["scored"] != 1950 || a["trees"] != 100 || fit <= 0 || score <= 0 {
		t.Fatalf("lss learn attrs = %v, want 50 train rows, 1950 scored, 100 trees, fit and score times", a)
	}
	if nodes, _ := a["nodes"].(int); nodes < 100 {
		t.Fatalf("lss learn attrs = %v, want the forest's node count", a)
	}
	if total := durMS(sp.Duration); fit+score > total*1.001 {
		t.Fatalf("fit %v + score %v ms exceed the learn span's %v ms", fit, score, total)
	}
	// 2 000 rows × 100 trees is far past the size rule: the grid scored,
	// and no tuple was evaluated more often than there are rows.
	thresholds, _ := a["thresholds"].(int)
	cells, _ := a["cells"].(int)
	tuples, _ := a["tuples"].(int)
	if a["score_path"] != "grid" || thresholds < 2 || cells < 100 || tuples < 1 || tuples > 2000 {
		t.Fatalf("lss learn attrs = %v, want the grid path with its thresholds, cells and tuples", a)
	}
	if a := learnSpan("qlcc").Attrs; a["train_rows"] != 200 || a["fit_ms"] == nil || a["scored"] != nil || a["score_ms"] != nil || a["score_path"] != "grid" {
		t.Fatalf("qlcc learn attrs = %v, want 200 train rows, a fit time, no scoring of the phase's own and the count's path", a)
	}
	if a := learnSpan("srs").Attrs; len(a) != 0 {
		t.Fatalf("srs learn attrs = %v, want none", a)
	}
}

// TestDesignSpanExplainsItself: the lss design span names the designer that
// produced the strata with its |B| and |T|, and says so when equal-count
// strata silently replaced an infeasible optimal design. Tracing does not
// change the estimate.
func TestDesignSpanExplainsItself(t *testing.T) {
	features, pred := ellipse(2000, 7)
	designSpan := func(budget float64) (map[string]any, float64) {
		t.Helper()
		tracer := NewTracer(TracerOptions{SampleRate: 1})
		est, err := NewEstimator(WithMethod("lss"), WithBudget(budget), WithSeed(42), WithTracer(tracer))
		if err != nil {
			t.Fatal(err)
		}
		e, err := est.Estimate(context.Background(), features, pred)
		if err != nil {
			t.Fatal(err)
		}
		traces := tracer.Traces(1)
		if len(traces) != 1 {
			t.Fatalf("recorded %d traces", len(traces))
		}
		for _, c := range traces[0].Children {
			if c.Name != "estimate" {
				continue
			}
			for _, p := range c.Children {
				if p.Name == "design" {
					return p.Attrs, e.Count
				}
			}
		}
		t.Fatal("no estimate/design span")
		return nil, 0
	}

	attrs, traced := designSpan(0.1)
	if attrs["algo"] != "dynpgm" || attrs["fallback"] != nil {
		t.Fatalf("design attrs = %v, want algo dynpgm and no fallback", attrs)
	}
	if b, _ := attrs["candidates"].(int); b < 4 {
		t.Fatalf("design attrs = %v, want candidates |B|", attrs)
	}
	if b, _ := attrs["bounds"].(int); b < 2 {
		t.Fatalf("design attrs = %v, want bounds |T|", attrs)
	}
	plain, err := NewEstimator(WithMethod("lss"), WithBudget(0.1), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := plain.Estimate(context.Background(), features, pred); err != nil || e.Count != traced {
		t.Fatalf("untraced estimate %v (err %v), traced %v", e, err, traced)
	}

	// 12 labels leave a 3-object pilot: no 4-stratification has 2 per stratum.
	attrs, _ = designSpan(12.0 / 2000)
	fb, _ := attrs["fallback"].(string)
	if attrs["algo"] != "fixed-height" || !strings.HasPrefix(fb, "dynpgm: ") || attrs["candidates"] != nil {
		t.Fatalf("design attrs = %v, want the fixed-height fallback naming dynpgm", attrs)
	}
}
