package predicate

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
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
	p.ResetCount()
	if p.Evals() != 0 {
		t.Fatal("ResetCount failed")
	}
}

func TestLabels(t *testing.T) {
	p := NewLabels([]bool{true, false, true})
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
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
		if p.K() != k {
			t.Fatalf("K() = %d", p.K())
		}
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

func TestMemo(t *testing.T) {
	calls := 0
	inner := NewFunc(func(i int) bool { calls++; return i > 2 })
	m := NewMemo(inner, 5)
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if got := m.Eval(i); got != (i > 2) {
				t.Fatalf("Eval(%d) = %v", i, got)
			}
		}
	}
	if calls != 5 {
		t.Fatalf("underlying calls = %d, want 5", calls)
	}
	if m.Evals() != 5 {
		t.Fatalf("Evals = %d", m.Evals())
	}
	m.ResetCount()
	if m.Evals() != 0 {
		t.Fatal("ResetCount")
	}
}

func TestCountAndTrueLabels(t *testing.T) {
	p := NewLabels([]bool{true, false, true, true})
	if got := Count(p, 4); got != 3 {
		t.Fatalf("Count = %d", got)
	}
	labels := TrueLabels(NewLabels([]bool{true, false}), 2)
	if !labels[0] || labels[1] {
		t.Fatalf("TrueLabels = %v", labels)
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
	p.ResetCount()
	if p.Evals() != 0 {
		t.Fatalf("ResetCount left %d", p.Evals())
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
		p := NewCompiled(newFn, workers)
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
	p := NewCompiled(newFn, workers)
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

// TestMemoBatch checks that the memo's batch view evaluates each unknown
// object exactly once and serves repeats from the cache.
func TestMemoBatch(t *testing.T) {
	n := 100
	base := NewCompiled(func() func(int) bool {
		return func(i int) bool { return i%2 == 0 }
	}, 1)
	m := NewMemo(base, n)
	bp, ok := AsBatch(m)
	if !ok {
		t.Fatal("memo over a batch predicate should expose a batch view")
	}
	idxs := []int{3, 4, 4, 7, 3, 10}
	out := make([]bool, len(idxs))
	bp.EvalBatch(idxs, out)
	for j, i := range idxs {
		if out[j] != (i%2 == 0) {
			t.Fatalf("out[%d] wrong", j)
		}
	}
	if base.Evals() != 4 { // 3, 4, 7, 10 — duplicates deduplicated
		t.Fatalf("underlying evals = %d, want 4", base.Evals())
	}
	bp.EvalBatch([]int{3, 4, 99}, make([]bool, 3))
	if base.Evals() != 5 { // only 99 is new
		t.Fatalf("underlying evals = %d, want 5", base.Evals())
	}
}

// TestAsBatchSequentialOnly checks that predicates without a native batch
// path (user callbacks, the interpreted engine predicate) are not reported
// as batchable.
func TestAsBatchSequentialOnly(t *testing.T) {
	if _, ok := AsBatch(NewFunc(func(int) bool { return true })); ok {
		t.Fatal("Func must not be batchable")
	}
	if _, ok := AsBatch(NewMemo(NewFunc(func(int) bool { return true }), 4)); ok {
		t.Fatal("Memo over a sequential predicate must not be batchable")
	}
}
