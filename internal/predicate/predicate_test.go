package predicate

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/qcompile"
	"repro/internal/sql"
	"repro/internal/xrand"
)

func TestFuncCounting(t *testing.T) {
	p := NewFunc(func(i int) bool { return i%2 == 0 })
	if !p.Eval(0) || p.Eval(1) {
		t.Fatal("wrong results")
	}
	if p.Evals() != 2 {
		t.Fatalf("Evals = %d", p.Evals())
	}
}

func TestLabels(t *testing.T) {
	p := NewLabels([]bool{true, false, true})
	if !p.Eval(0) || p.Eval(1) || !p.Eval(2) {
		t.Fatal("wrong labels")
	}
	if p.Evals() != 3 {
		t.Fatalf("Evals = %d", p.Evals())
	}
}

func TestSkybandAgainstGeom(t *testing.T) {
	r := xrand.New(1)
	n := 150
	xs := make([]float64, n)
	ys := make([]float64, n)
	pts := make([]geom.Point2, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(r.IntN(15))
		ys[i] = float64(r.IntN(15))
		pts[i] = geom.Point2{X: xs[i], Y: ys[i]}
	}
	counts := geom.DominanceCounts(pts)
	for _, k := range []int{1, 3, 10} {
		p := NewSkyband(xs, ys, k)
		for i := 0; i < n; i++ {
			want := counts[i] < k
			if got := p.Eval(i); got != want {
				t.Fatalf("k=%d object %d: got %v, want %v (dom=%d)", k, i, got, want, counts[i])
			}
		}
		if int(p.Evals()) != n {
			t.Fatalf("Evals = %d", p.Evals())
		}
	}
}

func TestNeighborsAgainstKDTree(t *testing.T) {
	r := xrand.New(2)
	n := 120
	xs := make([]float64, n)
	ys := make([]float64, n)
	coords := make([][]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64() * 10
		ys[i] = r.Float64() * 10
		coords[i] = []float64{xs[i], ys[i]}
	}
	tree := geom.NewKDTree(coords)
	for _, tc := range []struct {
		d float64
		k int
	}{{1, 2}, {3, 10}, {0.5, 0}} {
		p := NewNeighbors(xs, ys, tc.d, tc.k)
		for i := 0; i < n; i++ {
			// kd-tree count includes the point itself.
			want := tree.CountWithin(coords[i], tc.d)-1 <= tc.k
			if got := p.Eval(i); got != want {
				t.Fatalf("d=%v k=%d object %d: got %v, want %v", tc.d, tc.k, i, got, want)
			}
		}
	}
}

// TestCountAndTrueLabels checks that Label over every index returns the
// true label vector, whose positives are the count.
func TestCountAndTrueLabels(t *testing.T) {
	labels, err := Label(NewLabels([]bool{true, false, true, true}), AllIndices(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, l := range labels {
		if l {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	labels, err = Label(NewLabels([]bool{true, false}), AllIndices(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !labels[0] || labels[1] {
		t.Fatalf("true labels = %v", labels)
	}
}

// TestLabel checks both paths of the one labeling loop: a BatchPredicate
// is labeled in labelChunk-sized batches with stop between them, any other
// predicate one evaluation at a time with stop between evaluations, and
// both give the same labels at one evaluation per index.
func TestLabel(t *testing.T) {
	n := 2*labelChunk + 5
	want := func(i int) bool { return i%3 == 0 }
	idxs := make([]int, n)
	for j := range idxs {
		idxs[j] = (j * 7) % n
	}
	for _, tc := range []struct {
		name  string
		pred  Predicate
		stops int   // calls of stop on a full run
		step  int64 // evaluations between two calls
	}{
		{"sequential", NewFunc(want), n, 1},
		{"batch", NewCompiled(func() func(int) bool { return want }, nil, 1), 3, labelChunk},
	} {
		stops := 0
		labels, err := Label(tc.pred, idxs, func() error { stops++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range idxs {
			if labels[j] != want(i) {
				t.Fatalf("%s: label %d of object %d wrong", tc.name, j, i)
			}
		}
		if tc.pred.Evals() != int64(n) || stops != tc.stops {
			t.Fatalf("%s: %d evaluations and %d stop checks, want %d and %d", tc.name, tc.pred.Evals(), stops, n, tc.stops)
		}
		// A stop error aborts the rest: the sequential path after one
		// evaluation, the batch path after one chunk.
		before, calls := tc.pred.Evals(), 0
		errStop := errors.New("stop")
		if _, err := Label(tc.pred, idxs, func() error {
			if calls++; calls > 1 {
				return errStop
			}
			return nil
		}); !errors.Is(err, errStop) {
			t.Fatalf("%s: stop error %v", tc.name, err)
		}
		if got := tc.pred.Evals() - before; got != tc.step {
			t.Fatalf("%s: %d evaluations before the stop, want %d", tc.name, got, tc.step)
		}
	}
	if labels, err := Label(NewFunc(want), nil, nil); err != nil || len(labels) != 0 {
		t.Fatalf("empty set: %v, %v", labels, err)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	NewSkyband([]float64{1}, []float64{1, 2}, 1)
}

func TestEngineExists(t *testing.T) {
	// Wire the full path: SQL → decompose → engine-backed predicate, and
	// check it against the native skyband predicate.
	r := xrand.New(3)
	n := 40
	tb := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int},
		{Name: "x", Kind: dataset.Float},
		{Name: "y", Kind: dataset.Float},
	})
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(r.IntN(8))
		ys[i] = float64(r.IntN(8))
		tb.MustAppendRow(int64(i), xs[i], ys[i])
	}
	stmt, err := sql.Parse(`
		SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < 3`)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.Decompose(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(engine.Catalog{"D": tb})
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEngineExists(ev, dec, objects)
	if err != nil {
		t.Fatal(err)
	}
	// The EXISTS form counts only objects with >=1 dominator (groups with
	// zero join partners vanish); compare per-object against dominator
	// counts in [1, 3).
	native := NewSkyband(xs, ys, 3)
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: xs[i], Y: ys[i]}
	}
	dom := geom.DominanceCounts(pts)
	for i := 0; i < objects.NumRows(); i++ {
		id := objects.Value(i, 0).I
		want := dom[id] >= 1 && dom[id] < 3
		if got := ep.Eval(i); got != want {
			t.Fatalf("object id=%d: engine=%v, want %v (dom=%d, native=%v)",
				id, got, want, dom[id], native.Eval(int(id)))
		}
	}
	if ep.Evals() != int64(objects.NumRows()) {
		t.Fatalf("Evals = %d", ep.Evals())
	}
}

func BenchmarkSkybandEval(b *testing.B) {
	r := xrand.New(4)
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64() * 1000
		ys[i] = r.Float64() * 1000
	}
	p := NewSkyband(xs, ys, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eval(i % n)
	}
}

func BenchmarkNeighborsEval(b *testing.B) {
	r := xrand.New(5)
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64() * 100
		ys[i] = r.Float64() * 100
	}
	p := NewNeighbors(xs, ys, 5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eval(i % n)
	}
}

// TestConcurrentEvalCounting hammers one predicate from many goroutines and
// checks that no evaluation is lost: the counter is atomic, so a predicate
// with thread-safe Eval is safe to share across a labeling worker pool.
// Run with -race (the repository's `make race` / CI gate does) to pin the
// absence of the old unsynchronized n++ data race.
func TestConcurrentEvalCounting(t *testing.T) {
	r := xrand.New(9)
	n := 512
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	p := NewSkyband(xs, ys, 8)
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				p.Eval((w*perWorker + j) % n)
			}
		}(w)
	}
	wg.Wait()
	if got := p.Evals(); got != workers*perWorker {
		t.Fatalf("Evals = %d, want %d (lost updates)", got, workers*perWorker)
	}
}

// TestCompiledEvalBatch checks the parallel batch path against sequential
// Eval for every worker count, including the eval counter, and bounds what
// a parallel batch allocates: chunks borrow their evaluation closure from
// the pool, so a batch costs O(workers) closures, not one per chunk.
func TestCompiledEvalBatch(t *testing.T) {
	n := 4096 // 64 chunks
	var made atomic.Int64
	newFn := func() func(int) bool {
		made.Add(1)
		scratch := make([]int, 4) // closures own scratch, as qcompile's do
		return func(i int) bool {
			scratch[i%4] = i
			return i%3 == 0 || i%7 == 0
		}
	}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = (i * 13) % n
	}
	want := make([]bool, n)
	for j, i := range idxs {
		want[j] = newFn()(i)
	}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU(), 0} {
		p := NewCompiled(newFn, nil, workers)
		out := make([]bool, n)
		p.EvalBatch(idxs, out)
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("workers=%d: out[%d]=%v, want %v", workers, j, out[j], want[j])
			}
		}
		if p.Evals() != int64(n) {
			t.Fatalf("workers=%d: Evals=%d, want %d", workers, p.Evals(), n)
		}
	}

	if raceEnabled() {
		return // under -race sync.Pool drops a quarter of all Puts by design
	}
	const workers = 4
	chunks := n / batchChunk
	p := NewCompiled(newFn, nil, workers)
	out := make([]bool, n)
	made.Store(0)
	allocs := testing.AllocsPerRun(10, func() { p.EvalBatch(idxs, out) })
	// Per batch: the pool's own bookkeeping (a handful per worker goroutine)
	// plus whatever closures the pool could not hand back.
	if perBatch := float64(made.Load()) / 11; perBatch > workers || allocs > 8*workers {
		t.Errorf("a %d-chunk batch at %d workers built %.1f closures and made %.0f allocations; want O(workers), not O(chunks)",
			chunks, workers, perBatch, allocs)
	}
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

// TestAsBatchSequentialOnly checks that predicates without a native batch
// path (user callbacks, the interpreted engine predicate) are not batchable,
// so Label evaluates them one object at a time, while Compiled is.
func TestAsBatchSequentialOnly(t *testing.T) {
	for name, p := range map[string]Predicate{
		"Func":         NewFunc(func(int) bool { return true }),
		"EngineExists": (*EngineExists)(nil),
	} {
		if _, ok := p.(BatchPredicate); ok {
			t.Fatalf("%s must not be batchable", name)
		}
	}
	var p Predicate = NewCompiled(func() func(int) bool { return func(int) bool { return true } }, nil, 1)
	if _, ok := p.(BatchPredicate); !ok {
		t.Fatal("Compiled must be batchable")
	}
}

// skybandQ3 builds the k-skyband Q3 over n random points: the decomposed
// query, its object set, and an evaluator with k bound.
func skybandQ3(t *testing.T, n int, k int64) (*engine.Evaluator, *engine.Decomposed, *engine.ResultSet) {
	t.Helper()
	r := xrand.New(17)
	tb := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int},
		{Name: "x", Kind: dataset.Float},
		{Name: "y", Kind: dataset.Float},
	})
	for i := 0; i < n; i++ {
		tb.MustAppendRow(int64(i), float64(r.IntN(16)), float64(r.IntN(16)))
	}
	stmt, err := sql.Parse(`
		SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.Decompose(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(engine.Catalog{"D": tb})
	ev.SetParam("k", engine.IntVal(k))
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev, dec, objects
}

// TestPredicatesSafeForConcurrentUse (run under -race): goroutines share one
// Compiled — sequential and over four batch workers — and one EngineExists,
// mixing Eval, EvalBatch on inline (≤ 64) and chunked (> 64) index sets and
// CountBatch; every label and count equals a sequential reference, and the
// evaluation counter loses nothing.
func TestPredicatesSafeForConcurrentUse(t *testing.T) {
	const goroutines, reps = 6, 3
	run := func(name string, p Predicate, want []bool, rep func(g int)) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < reps; r++ {
					for j := range want {
						i := (j + g) % len(want)
						if got := p.Eval(i); got != want[i] {
							t.Errorf("%s: Eval(%d) = %v, want %v", name, i, got, want[i])
						}
					}
					if rep != nil {
						rep(g)
					}
				}
			}()
		}
		wg.Wait()
	}

	ev, dec, objects := skybandQ3(t, 200, 5)
	prog, err := qcompile.Compile(dec, ev.Cat)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prog.Bind(ev.Params, objects)
	if err != nil {
		t.Fatal(err)
	}
	n := objects.NumRows()
	want, wantCount := make([]bool, n), make([]Count, n)
	eval, count := bound.NewEvalFn(), bound.NewCountFn()
	for i := range want {
		want[i] = eval(i)
		wantCount[i].N, wantCount[i].Exact = count(i)
	}
	for _, workers := range []int{1, 4} {
		p := NewCompiled(bound.NewEvalFn, bound.NewCountFn, workers)
		name := fmt.Sprintf("compiled, %d workers", workers)
		run(name, p, want, func(g int) {
			for _, size := range []int{batchChunk / 2, n} { // inline, then chunked when workers > 1
				idxs := make([]int, size)
				for j := range idxs {
					idxs[j] = (j*7 + g) % n
				}
				labels := make([]bool, size)
				p.EvalBatch(idxs, labels)
				counts := make([]Count, size)
				p.CountBatch(idxs, counts)
				for j, i := range idxs {
					if labels[j] != want[i] || counts[j] != wantCount[i] {
						t.Errorf("%s, batch of %d: object %d labeled %v counted %+v, want %v %+v",
							name, size, i, labels[j], counts[j], want[i], wantCount[i])
					}
				}
			}
		})
		if got, per := p.Evals(), int64(n+2*(batchChunk/2+n)); got != goroutines*reps*per {
			t.Errorf("%s: Evals = %d, want %d", name, got, goroutines*reps*per)
		}
	}

	// The interpreter scans the whole join per object: keep its arm small.
	ev, dec, objects = skybandQ3(t, 40, 5)
	ep, err := NewEngineExists(ev, dec, objects)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngineExists(ev, dec, objects)
	if err != nil {
		t.Fatal(err)
	}
	want = make([]bool, objects.NumRows())
	for i := range want {
		want[i] = ref.Eval(i)
	}
	run("interpreted", ep, want, nil)
	if got := ep.Evals(); got != int64(goroutines*reps*len(want)) {
		t.Errorf("interpreted: Evals = %d, want %d", got, goroutines*reps*len(want))
	}
}
