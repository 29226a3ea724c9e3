package qcompile

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// TestCompiledRowLoopAllocatesNothing is TestInterpretedRowLoopAllocatesNothing
// (internal/engine) for the closures: evaluating object 0 allocates the same
// over 20 and 60 rows per table for the skyband, the neighbor count
// (arithmetic and scalar-function kernels) and the EXISTS equi-join, so the
// compiled row loop allocates nothing per row.
func TestCompiledRowLoopAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	for name, q := range map[string]string{
		"skyband": `SELECT o1.id FROM D o1, D o2
			WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
			GROUP BY o1.id HAVING COUNT(*) < k`,
		"neighbor": `SELECT o1.id FROM D o1, D o2
			WHERE SQRT(POWER(o2.x - o1.x, 2) + POWER(o2.y - o1.y, 2)) <= d
			GROUP BY o1.id HAVING COUNT(*) < k`,
		"exists": `SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t
			GROUP BY d.id HAVING COUNT(*) >= m`,
	} {
		allocs := func(n int) float64 {
			eval := objectZero(t, q, n)
			if !eval(0) {
				t.Fatalf("%s, n=%d: object 0 is false, want true", name, n)
			}
			return testing.AllocsPerRun(20, func() { eval(0) })
		}
		if small, large := allocs(20), allocs(60); small != large {
			t.Errorf("%s: object 0 allocates %.0f times over 20 rows per table and %.0f over 60", name, small, large)
		}
	}
}

// objectZero compiles q over n random points D(id, x, y) in the unit square
// with point 0 at the origin and R(key, v), n rows of key 0, and returns an
// evaluation closure. Parameters make object 0 satisfy each query with
// every row of its group: every point dominates it and lies within d = 2
// of it, k is above any count, every r.v is above t, and m = 1.
func objectZero(t *testing.T, q string, n int) func(int) bool {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float}, {Name: "y", Kind: dataset.Float}})
	rt := dataset.New("R", dataset.Schema{{Name: "key", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float}})
	d.MustAppendRow(int64(0), 0.0, 0.0)
	for i := 1; i < n; i++ {
		d.MustAppendRow(int64(i), r.Float64(), r.Float64())
	}
	for i := 0; i < n; i++ {
		rt.MustAppendRow(int64(0), r.Float64())
	}
	cat := engine.Catalog{"D": d, "R": rt}
	params := map[string]engine.Value{
		"k": engine.IntVal(int64(n + 1)), "d": engine.FloatVal(2), "t": engine.FloatVal(-1), "m": engine.IntVal(1),
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.Decompose(engine.ExtractInner(stmt))
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(cat)
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(dec, cat)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prog.Bind(params, objects)
	if err != nil {
		t.Fatal(err)
	}
	return bound.NewEvalFn()
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
