package engine

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/sql"
	"repro/internal/xrand"
)

// The skyband and the neighbor count as Q1s over D(id, x, y), and the
// EXISTS equi-join over D and R(key, v).
const (
	skybandQ1 = `SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`
	neighborQ1 = `SELECT o1.id FROM D o1, D o2
		WHERE SQRT(POWER(o2.x - o1.x, 2) + POWER(o2.y - o1.y, 2)) <= d
		GROUP BY o1.id HAVING COUNT(*) < k`
	existsQ1 = `SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t
		GROUP BY d.id HAVING COUNT(*) >= m`
)

// objectQ3 decomposes q over n random points in the unit square with point
// 0 at the origin, so every other point dominates object 0 and lies within
// d = 2 of it: each of the n × n joined rows with o1 = object 0 reaches the
// GROUP BY. k is above any count, so object 0 satisfies the predicate at
// every n. R holds n rows of key 0 and v in [0, 1) above t, so in the
// EXISTS join the n rows of object 0 compare r.v with the parameter t and
// d.id with the object's _o.id, and m = 1 makes object 0 satisfy it.
func objectQ3(tb testing.TB, q string, n int) (*Evaluator, *Decomposed, *ResultSet) {
	tb.Helper()
	r := xrand.New(uint64(n))
	pts := make([]geom.Point2, n)
	for i := 1; i < n; i++ {
		pts[i] = geom.Point2{X: r.Float64(), Y: r.Float64()}
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := Decompose(stmt)
	if err != nil {
		tb.Fatal(err)
	}
	rt := dataset.New("R", dataset.Schema{{Name: "key", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float}})
	for i := 0; i < n; i++ {
		rt.MustAppendRow(int64(0), r.Float64())
	}
	ev := NewEvaluator(Catalog{"D": pointsTable(pts), "R": rt})
	ev.SetParam("k", IntVal(int64(n+1)))
	ev.SetParam("d", FloatVal(2))
	ev.SetParam("t", FloatVal(-1))
	ev.SetParam("m", IntVal(1))
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ev, dec, objects
}

// TestScopeCacheResolvesLikeTheFullPath checks that remembering where a
// column reference resolved — or that no binding has it — keeps name
// resolution exact: shadowing, resolution one scope up, parameters,
// references that resolve nowhere, and one node read under many scopes.
func TestScopeCacheResolvesLikeTheFullPath(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 5}, {X: 2, Y: 4}, {X: 3, Y: 3}, {X: 4, Y: 2}})
	e := dataset.New("E", dataset.Schema{{Name: "k", Kind: dataset.Int}})
	e.MustAppendRow(int64(1))
	e.MustAppendRow(int64(3))
	cat := Catalog{"D": d, "E": e}
	ids := func(res *ResultSet) []int64 {
		var out []int64
		for _, row := range res.Rows {
			out = append(out, row[0].I)
		}
		return out
	}

	t.Run("inner alias shadows outer", func(t *testing.T) {
		// The inner a is the subquery's own row: EXISTS holds for every
		// outer row, and the outer a.x < 3 keeps ids 0 and 1.
		q := "SELECT a.id FROM D a WHERE a.x < 3 AND EXISTS (SELECT a.id FROM D a WHERE a.x > 3)"
		if got := ids(run(t, cat, q, nil)); !slices.Equal(got, []int64{0, 1}) {
			t.Fatalf("got %v, want [0 1]", got)
		}
		// One node read in both scopes resolves in each to its own a.
		stmt := mustParse(t, q)
		and := stmt.Where.(*sql.BinaryExpr)
		inner := and.R.(*sql.SubqueryExpr).Query.Where.(*sql.BinaryExpr)
		inner.L = and.L.(*sql.BinaryExpr).L
		res, err := NewEvaluator(cat).Run(stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(res); !slices.Equal(got, []int64{0, 1}) {
			t.Fatalf("shared node: got %v, want [0 1]", got)
		}
	})

	t.Run("unqualified column one scope up", func(t *testing.T) {
		// E has no id, so the inner id is the outer row's.
		res := run(t, cat, "SELECT d.id FROM D d WHERE EXISTS (SELECT e.k FROM E e WHERE e.k = id)", nil)
		if got := ids(res); !slices.Equal(got, []int64{1, 3}) {
			t.Fatalf("got %v, want [1 3]", got)
		}
	})

	t.Run("parameter", func(t *testing.T) {
		for _, th := range []int64{1, 3} {
			res := run(t, cat, "SELECT id FROM D WHERE x > t", map[string]Value{"t": IntVal(th)})
			if got := int64(len(res.Rows)); got != 4-th {
				t.Fatalf("t=%d: %d rows, want %d", th, got, 4-th)
			}
		}
	})

	// where parses q and returns its WHERE with a scope binding D as d, and
	// the binding's row cursor.
	where := func(t *testing.T, q string) (sql.Expr, *Scope, *binding) {
		t.Helper()
		sc := NewScope(nil)
		return mustParse(t, q).Where, sc, sc.Bind("d", NewTableRelation(d))
	}

	t.Run("parameter in WHERE", func(t *testing.T) {
		// The scope remembers that no binding has t; its value is still
		// read from the parameters on every row.
		cond, sc, b := where(t, "SELECT d.id FROM D d WHERE d.x > t")
		ev := NewEvaluator(cat)
		for _, th := range []int64{2, 0, 3} {
			ev.SetParam("t", IntVal(th))
			for row := 0; row < d.NumRows(); row++ {
				b.row = row
				v, err := ev.Eval(cond, sc)
				if err != nil {
					t.Fatal(err)
				}
				if want := d.Float(row, 1) > float64(th); v.B != want {
					t.Fatalf("t=%d, row %d: %v, want %v", th, row, v.B, want)
				}
				if len(sc.keys) != 2 || sc.refs[1].b != nil {
					t.Fatalf("t=%d, row %d: scope remembers %d references, want d.x and the unresolved t", th, row, len(sc.keys))
				}
			}
		}
	})

	t.Run("unresolved name errors on every evaluation", func(t *testing.T) {
		for _, q := range []string{
			"SELECT d.id FROM D d WHERE d.x > zz", // neither a column nor a parameter
			"SELECT d.id FROM D d WHERE d.zz > 1", // misqualified: d has no zz
			"SELECT d.id FROM D d WHERE e.x > 1",  // no binding named e
		} {
			cond, sc, b := where(t, q)
			ev := NewEvaluator(cat)
			for row := 0; row < d.NumRows(); row++ {
				b.row = row
				if _, err := ev.Eval(cond, sc); err == nil {
					t.Fatalf("%s, row %d: no error", q, row)
				}
			}
		}
	})

	t.Run("one node under many object scopes", func(t *testing.T) {
		const n = 40
		ev, dec, objects := objectQ3(t, skybandQ1, n)
		ev.SetParam("k", IntVal(3))
		pts := make([]geom.Point2, n)
		tab := ev.Cat["D"]
		for i := range pts {
			pts[i] = geom.Point2{X: tab.Float(i, 1), Y: tab.Float(i, 2)}
		}
		p := ev.ObjectPredicate(dec, objects)
		for i := n - 1; i >= 0; i-- { // reverse order: no object sees another's rows
			id := objects.Rows[i][0].I
			dominators := 0
			for _, q := range pts {
				if q.X >= pts[id].X && q.Y >= pts[id].Y && (q.X > pts[id].X || q.Y > pts[id].Y) {
					dominators++
				}
			}
			got, err := p(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := dominators > 0 && dominators < 3; got != want {
				t.Fatalf("object %d (%d dominators): %v, want %v", id, dominators, got, want)
			}
		}
	})
}

// TestScopeKeepsNoFailedResolution checks that a reference that fails to
// resolve fails again on every evaluation in the same scope, while one that
// resolved follows its binding's row.
func TestScopeKeepsNoFailedResolution(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}})
	rel := NewTableRelation(d)
	ev := NewEvaluator(Catalog{"D": d})
	sc := NewScope(nil)
	a := sc.Bind("a", rel)
	sc.Bind("b", rel)
	for _, c := range []struct {
		ref  *sql.ColumnRef
		want string
	}{
		{&sql.ColumnRef{Name: "x"}, `engine: ambiguous column "x"`},
		{&sql.ColumnRef{Qualifier: "a", Name: "z"}, `engine: table "a" has no column "z"`},
		{&sql.ColumnRef{Name: "z"}, "engine: unresolved column z"},
	} {
		for i := 0; i < 3; i++ {
			if _, err := ev.Eval(c.ref, sc); err == nil || err.Error() != c.want {
				t.Fatalf("evaluation %d of %s: error %v, want %q", i, c.ref, err, c.want)
			}
		}
	}
	ref := &sql.ColumnRef{Qualifier: "a", Name: "x"}
	for row, want := range []float64{1, 2} {
		a.row = row
		if v, err := ev.Eval(ref, sc); err != nil || v.F != want {
			t.Fatalf("row %d: a.x = %v, %v; want %v", row, v, err, want)
		}
	}
}

// TestConditionErrorsUnchanged pins the error texts of WHERE and HAVING:
// a non-boolean clause is wrapped with its name, a non-boolean operand of
// AND, OR or NOT and a failed comparison are not.
func TestConditionErrorsUnchanged(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 2}, {X: 3, Y: 4}})
	for _, c := range []struct{ q, want string }{
		{"SELECT id FROM D WHERE x", "engine: WHERE is not boolean: engine: value 1 is not boolean"},
		{"SELECT id FROM D WHERE x + 1", "engine: WHERE is not boolean: engine: value 2 is not boolean"},
		{"SELECT id FROM D o GROUP BY o.id HAVING COUNT(*)", "engine: HAVING is not boolean: engine: value 1 is not boolean"},
		{"SELECT id FROM D o GROUP BY o.id HAVING MIN(o.y)", "engine: HAVING is not boolean: engine: value 2 is not boolean"},
		{"SELECT id FROM D WHERE x > 0 AND y", "engine: value 2 is not boolean"},
		{"SELECT id FROM D WHERE x > 5 OR y", "engine: value 2 is not boolean"},
		{"SELECT id FROM D WHERE y AND x > 5", "engine: value 2 is not boolean"},
		{"SELECT id FROM D WHERE NOT x", "engine: value 1 is not boolean"},
		{"SELECT id FROM D WHERE x = 'a'", "engine: cannot compare 1 with 'a'"},
		{"SELECT id FROM D o GROUP BY o.id HAVING COUNT(*) > 0 AND MIN(o.x)", "engine: value 1 is not boolean"},
		{"SELECT id FROM D WHERE x / 0 > 1", "engine: division by zero"},
	} {
		_, err := NewEvaluator(Catalog{"D": d}).Run(mustParse(t, c.q), nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.q, err, c.want)
		}
	}
	// Short-circuits and NULL comparisons raise nothing.
	for _, q := range []string{
		"SELECT id FROM D WHERE x > 5 AND y",
		"SELECT id FROM D WHERE x > 0 OR y",
		"SELECT id FROM D WHERE NOT (x = (SELECT id FROM D WHERE id > 5))",
	} {
		if _, err := NewEvaluator(Catalog{"D": d}).Run(mustParse(t, q), nil); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestInterpretedRowLoopAllocatesNothing checks that evaluating one object
// allocates the same at 20 × 20 and 60 × 60 joined rows: the interpreter's
// row loop — WHERE, scalar functions, GROUP BY key, aggregate, and the
// direct comparison's column, parameter and _o cell leaves — allocates
// nothing per row.
func TestInterpretedRowLoopAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	for name, q := range map[string]string{"skyband": skybandQ1, "neighbor": neighborQ1, "exists": existsQ1} {
		allocs := func(n int) float64 {
			ev, dec, objects := objectQ3(t, q, n)
			p := ev.ObjectPredicate(dec, objects)
			if ok, err := p(0); err != nil || !ok {
				t.Fatalf("%s, n=%d: object 0 = %v, %v; want true", name, n, ok, err)
			}
			return testing.AllocsPerRun(20, func() { _, _ = p(0) })
		}
		if small, large := allocs(20), allocs(60); small != large {
			t.Errorf("%s: object 0 allocates %.0f times over 20 × 20 rows and %.0f over 60 × 60", name, small, large)
		}
	}
}

// BenchmarkFirstObjectValidation times what predicate.NewEngineExists pays
// to cross-check a compiled program: a Q3 interpreted for object 0 over a
// 300-row table, 300 × 300 joined rows, reported per row. The skyband arm
// compares numeric leaves only; the neighbor arm's WHERE adds arithmetic and
// scalar functions, which still build a Value per node.
func BenchmarkFirstObjectValidation(b *testing.B) {
	const n = 300
	for _, arm := range []struct{ name, q string }{{"skyband", skybandQ1}, {"neighbor", neighborQ1}} {
		b.Run(arm.name, func(b *testing.B) {
			ev, dec, objects := objectQ3(b, arm.q, n)
			p := ev.ObjectPredicate(dec, objects)
			for b.Loop() {
				if _, err := p(0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/row")
		})
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
