package engine

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/sql"
	"repro/internal/xrand"
)

// pointsTable builds the paper's D(id, x, y) table.
func pointsTable(pts []geom.Point2) *dataset.Table {
	t := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int},
		{Name: "x", Kind: dataset.Float},
		{Name: "y", Kind: dataset.Float},
	})
	for i, p := range pts {
		t.MustAppendRow(int64(i), p.X, p.Y)
	}
	return t
}

func mustParse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmt
}

func run(t *testing.T, cat Catalog, q string, params map[string]Value) *ResultSet {
	t.Helper()
	ev := NewEvaluator(cat)
	for k, v := range params {
		ev.SetParam(k, v)
	}
	res, err := ev.Run(mustParse(t, q), nil)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return res
}

func TestSimpleSelect(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}})
	cat := Catalog{"D": d}
	res := run(t, cat, "SELECT id, x FROM D WHERE x > 2", nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].F != 3 {
		t.Fatalf("first row = %v", res.Rows[0])
	}
	if res.Cols[0] != "id" || res.Cols[1] != "x" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 2}})
	res := run(t, Catalog{"D": d}, "SELECT * FROM D", nil)
	if len(res.Cols) != 3 || len(res.Rows) != 1 {
		t.Fatalf("star select = %v / %v", res.Cols, res.Rows)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 3, Y: 4}})
	res := run(t, Catalog{"D": d},
		"SELECT SQRT(POWER(x,2) + POWER(y,2)) AS dist, x + y, x * y - 2, ABS(0 - x) FROM D", nil)
	r := res.Rows[0]
	if r[0].F != 5 {
		t.Fatalf("dist = %v", r[0])
	}
	if r[1].F != 7 {
		t.Fatalf("x+y = %v", r[1])
	}
	if r[2].F != 10 {
		t.Fatalf("x*y-2 = %v", r[2])
	}
	if r[3].F != 3 {
		t.Fatalf("abs = %v", r[3])
	}
	if res.Cols[0] != "dist" {
		t.Fatalf("alias lost: %v", res.Cols)
	}
}

func TestIntegerArithmetic(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 0, Y: 0}})
	res := run(t, Catalog{"D": d}, "SELECT id + 2, id * 3, 7 / 2 FROM D", nil)
	r := res.Rows[0]
	if r[0].Kind != KInt || r[0].I != 2 {
		t.Fatalf("int add = %v", r[0])
	}
	if r[2].Kind != KFloat || r[2].F != 3.5 {
		t.Fatalf("division should be float: %v", r[2])
	}
}

func TestGroupByHaving(t *testing.T) {
	tb := dataset.New("t", dataset.Schema{
		{Name: "grp", Kind: dataset.String},
		{Name: "v", Kind: dataset.Float},
	})
	tb.MustAppendRow("a", 1.0)
	tb.MustAppendRow("a", 2.0)
	tb.MustAppendRow("b", 10.0)
	tb.MustAppendRow("b", 20.0)
	tb.MustAppendRow("c", 5.0)
	res := run(t, Catalog{"t": tb},
		"SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY grp HAVING COUNT(*) >= 2", nil)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].S != "a" || row[1].I != 2 || row[2].F != 3 || row[3].F != 1.5 || row[4].F != 1 || row[5].F != 2 {
		t.Fatalf("group a = %v", row)
	}
	row = res.Rows[1]
	if row[0].S != "b" || row[2].F != 30 {
		t.Fatalf("group b = %v", row)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	tb := dataset.New("t", dataset.Schema{{Name: "v", Kind: dataset.Float}})
	res := run(t, Catalog{"t": tb}, "SELECT COUNT(*) FROM t", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("COUNT over empty = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	tb := dataset.New("t", dataset.Schema{{Name: "v", Kind: dataset.Int}})
	for _, v := range []int64{1, 1, 2, 3, 3, 3} {
		tb.MustAppendRow(v)
	}
	res := run(t, Catalog{"t": tb}, "SELECT COUNT(DISTINCT v) FROM t", nil)
	if res.Rows[0][0].I != 3 {
		t.Fatalf("COUNT(DISTINCT) = %v", res.Rows[0][0])
	}
}

func TestSelectDistinct(t *testing.T) {
	tb := dataset.New("t", dataset.Schema{{Name: "v", Kind: dataset.Int}})
	for _, v := range []int64{1, 1, 2, 3, 3} {
		tb.MustAppendRow(v)
	}
	res := run(t, Catalog{"t": tb}, "SELECT DISTINCT v FROM t", nil)
	if len(res.Rows) != 3 {
		t.Fatalf("DISTINCT rows = %d", len(res.Rows))
	}
}

func TestJoin(t *testing.T) {
	a := dataset.New("a", dataset.Schema{{Name: "k", Kind: dataset.Int}})
	b := dataset.New("b", dataset.Schema{{Name: "k", Kind: dataset.Int}})
	for _, v := range []int64{1, 2, 3} {
		a.MustAppendRow(v)
	}
	for _, v := range []int64{2, 3, 4} {
		b.MustAppendRow(v)
	}
	res := run(t, Catalog{"a": a, "b": b}, "SELECT u.k FROM a u, b v WHERE u.k = v.k", nil)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
}

func TestParams(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}})
	res := run(t, Catalog{"D": d}, "SELECT COUNT(*) FROM D WHERE x >= thresh",
		map[string]Value{"thresh": FloatVal(2)})
	if res.Rows[0][0].I != 2 {
		t.Fatalf("param count = %v", res.Rows[0][0])
	}
}

func TestScalarSubquery(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 5, Y: 5}})
	// Points whose dominator count (strict) is < 1, i.e. the skyline.
	res := run(t, Catalog{"D": d},
		`SELECT id FROM D o WHERE
		   (SELECT COUNT(*) FROM D WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < 1`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("skyline = %v", res.Rows)
	}
}

func TestExistsSubquery(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}})
	res := run(t, Catalog{"D": d},
		"SELECT id FROM D o WHERE EXISTS (SELECT id FROM D WHERE x > o.x)", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("exists = %v", res.Rows)
	}
}

func TestExample2FullQuery(t *testing.T) {
	// The paper's Example 2 self-join form, validated against the
	// specialized dominance counter on random data.
	r := xrand.New(42)
	pts := make([]geom.Point2, 60)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(r.IntN(12)), Y: float64(r.IntN(12))}
	}
	d := pointsTable(pts)
	for _, k := range []int{1, 3, 8} {
		want := geom.SkybandSize(pts, k)
		ev := NewEvaluator(Catalog{"D": d})
		ev.SetParam("k", IntVal(int64(k)))
		got, err := ev.CountQuery(mustParse(t, `
			SELECT COUNT(*) FROM
			  (SELECT o1.id FROM D o1, D o2
			   WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
			   GROUP BY o1.id HAVING COUNT(*) < k) s`))
		if err != nil {
			t.Fatal(err)
		}
		// The self-join form counts only points with ≥1 dominator group
		// member... actually groups with zero joined rows vanish, so the
		// skyband points with zero dominators are NOT in the join result.
		// The standard fix counts them separately; verify the relationship:
		// join-form count = |{o : 1 <= dom(o) < k}|.
		counts := geom.DominanceCounts(pts)
		wantJoin := 0
		for _, c := range counts {
			if c >= 1 && c < k {
				wantJoin++
			}
		}
		if got != wantJoin {
			t.Fatalf("k=%d: join-form count = %d, want %d (full skyband %d)", k, got, wantJoin, want)
		}
	}
}

func TestExample2PredicateForm(t *testing.T) {
	// The predicate form (Example 2's q(o)) counts the full skyband,
	// including zero-dominator points.
	r := xrand.New(43)
	pts := make([]geom.Point2, 50)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(r.IntN(10)), Y: float64(r.IntN(10))}
	}
	d := pointsTable(pts)
	for _, k := range []int{1, 2, 5} {
		ev := NewEvaluator(Catalog{"D": d})
		ev.SetParam("k", IntVal(int64(k)))
		res, err := ev.Run(mustParse(t, `
			SELECT COUNT(*) FROM D o WHERE
			  (SELECT COUNT(*) FROM D WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < k`), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Rows[0][0].I
		if want := geom.SkybandSize(pts, k); int(got) != want {
			t.Fatalf("k=%d: predicate-form count = %d, want %d", k, got, want)
		}
	}
}

func TestExample1NeighborQuery(t *testing.T) {
	// Example 1: count points with at most k neighbors within distance d,
	// validated against the kd-tree.
	r := xrand.New(44)
	pts := make([]geom.Point2, 40)
	coords := make([][]float64, 40)
	for i := range pts {
		pts[i] = geom.Point2{X: r.Float64() * 10, Y: r.Float64() * 10}
		coords[i] = []float64{pts[i].X, pts[i].Y}
	}
	tree := geom.NewKDTree(coords)
	d := pointsTable(pts)
	dist, k := 2.0, 3
	want := 0
	for i := range coords {
		if tree.CountWithin(coords[i], dist) <= k {
			want++
		}
	}
	ev := NewEvaluator(Catalog{"D": d})
	ev.SetParam("d", FloatVal(dist))
	ev.SetParam("k", IntVal(int64(k)))
	res, err := ev.Run(mustParse(t, `
		SELECT COUNT(*) FROM D o WHERE
		  (SELECT COUNT(*) FROM D WHERE SQRT(POWER(o.x - x, 2) + POWER(o.y - y, 2)) <= d) <= k`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; int(got) != want {
		t.Fatalf("neighbor count = %d, want %d", got, want)
	}
}

func TestDerivedTable(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}})
	res := run(t, Catalog{"D": d},
		"SELECT COUNT(*) FROM (SELECT id FROM D WHERE x > 1) s", nil)
	if res.Rows[0][0].I != 2 {
		t.Fatalf("derived count = %v", res.Rows[0][0])
	}
}

func TestErrors(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}})
	cat := Catalog{"D": d}
	bad := []string{
		"SELECT nope FROM D",
		"SELECT x FROM Unknown",
		"SELECT o.nope FROM D o",
		"SELECT x FROM D HAVING x > 1",
		"SELECT SUM(x) FROM D WHERE SUM(x) > 0",
		"SELECT x / 0 FROM D",
		"SELECT SQRT(0 - 1) FROM D",
		"SELECT UNKNOWNFUNC(x) FROM D",
		"SELECT x FROM D WHERE x",
		"SELECT NOT x FROM D",
		"SELECT x FROM D WHERE x = 'str'",
		"SELECT (SELECT id, x FROM D) FROM D",
	}
	for _, q := range bad {
		ev := NewEvaluator(cat)
		if _, err := ev.Run(mustParse(t, q), nil); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}})
	ev := NewEvaluator(Catalog{"D": d})
	if _, err := ev.Run(mustParse(t, "SELECT x FROM D a, D b"), nil); err == nil {
		t.Fatal("ambiguous column should error")
	}
}

func TestScalarSubqueryMultiRow(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}})
	ev := NewEvaluator(Catalog{"D": d})
	if _, err := ev.Run(mustParse(t, "SELECT (SELECT id FROM D) FROM D"), nil); err == nil {
		t.Fatal("multi-row scalar subquery should error")
	}
}

func TestStatsCounters(t *testing.T) {
	d := pointsTable([]geom.Point2{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}})
	ev := NewEvaluator(Catalog{"D": d})
	if _, err := ev.Run(mustParse(t, "SELECT id FROM D o WHERE EXISTS (SELECT id FROM D WHERE x > o.x)"), nil); err != nil {
		t.Fatal(err)
	}
	if ev.Stats.SubqueryRuns != 3 {
		t.Fatalf("SubqueryRuns = %d, want 3", ev.Stats.SubqueryRuns)
	}
	if ev.Stats.RowsScanned < 9 {
		t.Fatalf("RowsScanned = %d, want >= 9", ev.Stats.RowsScanned)
	}
}

func TestDecomposeExample2(t *testing.T) {
	r := xrand.New(45)
	pts := make([]geom.Point2, 50)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(r.IntN(9)), Y: float64(r.IntN(9))}
	}
	d := pointsTable(pts)
	stmt := mustParse(t, `
		SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`)
	dec, err := Decompose(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Objects.Distinct || len(dec.Objects.Select) != 1 {
		t.Fatalf("Q2 malformed: %s", dec.Objects.String())
	}
	ev := NewEvaluator(Catalog{"D": d})
	ev.SetParam("k", IntVal(3))

	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objects.Rows) != len(pts) {
		t.Fatalf("|O| = %d, want %d", len(objects.Rows), len(pts))
	}

	pred := ev.ObjectPredicate(dec, objects)
	got := 0
	for i := range objects.Rows {
		ok, err := pred(i)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got++
		}
	}
	// Full-query ground truth.
	want, err := ev.CountQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decomposed count = %d, full count = %d", got, want)
	}
}

func TestDecomposeWithThetaL(t *testing.T) {
	// θL (x > 0 on the grouped table) must move to Q2 and stay in Q3.
	stmt := mustParse(t, `
		SELECT o1.id FROM D o1, D o2
		WHERE o1.x > 0 AND o2.x >= o1.x
		GROUP BY o1.id HAVING COUNT(*) < 5`)
	dec, err := Decompose(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Objects.Where == nil {
		t.Fatal("θL should appear in Q2")
	}
	q2s := dec.Objects.String()
	if want := "SELECT DISTINCT o1.id AS id FROM D o1 WHERE (o1.x > 0)"; q2s != want {
		t.Fatalf("Q2 = %s, want %s", q2s, want)
	}
}

func TestDecomposeErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT id FROM D",                        // no GROUP BY
		"SELECT x + 1 FROM D GROUP BY x + 1",      // non-column group
		"SELECT id FROM D a, D b GROUP BY id",     // ambiguous unqualified
		"SELECT q.id FROM D a, D b GROUP BY q.id", // unknown alias
	} {
		stmt := mustParse(t, q)
		if _, err := Decompose(stmt); err == nil {
			t.Fatalf("expected decompose error for %q", q)
		}
	}
}

func TestDecomposeUnqualifiedSingleTable(t *testing.T) {
	tb := dataset.New("t", dataset.Schema{
		{Name: "g", Kind: dataset.Int},
		{Name: "v", Kind: dataset.Float},
	})
	for i := 0; i < 10; i++ {
		tb.MustAppendRow(int64(i%3), float64(i))
	}
	stmt := mustParse(t, "SELECT g FROM t GROUP BY g HAVING SUM(v) > 10")
	dec, err := Decompose(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(Catalog{"t": tb})
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objects.Rows) != 3 {
		t.Fatalf("objects = %d, want 3", len(objects.Rows))
	}
	pred := ev.ObjectPredicate(dec, objects)
	got := 0
	for i := range objects.Rows {
		ok, err := pred(i)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got++
		}
	}
	want, err := ev.CountQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestExtractInner(t *testing.T) {
	outer := mustParse(t, "SELECT COUNT(*) FROM (SELECT id FROM D GROUP BY id HAVING COUNT(*) < 3) s")
	inner := ExtractInner(outer)
	if len(inner.GroupBy) != 1 {
		t.Fatalf("inner not extracted: %s", inner.String())
	}
	plain := mustParse(t, "SELECT id FROM D")
	if ExtractInner(plain) != plain {
		t.Fatal("non-count query should be unchanged")
	}
}

func TestValueHelpers(t *testing.T) {
	if v, err := IntVal(3).AsFloat(); err != nil || v != 3 {
		t.Fatal("IntVal.AsFloat")
	}
	if _, err := StringVal("x").AsFloat(); err == nil {
		t.Fatal("string AsFloat should error")
	}
	if _, err := IntVal(1).AsBool(); err == nil {
		t.Fatal("int AsBool should error")
	}
	if Null.String() != "NULL" || BoolVal(true).String() != "TRUE" {
		t.Fatal("String rendering")
	}
	if c, _ := compare(ptr(IntVal(2)), ptr(FloatVal(2.0))); c != 0 {
		t.Fatal("mixed numeric compare")
	}
	if _, err := compare(ptr(IntVal(1)), ptr(StringVal("a"))); err == nil {
		t.Fatal("int vs string should error")
	}
	if c, _ := compare(ptr(BoolVal(false)), ptr(BoolVal(true))); c != -1 {
		t.Fatal("bool compare")
	}
	if c, _ := compare(ptr(StringVal("a")), ptr(StringVal("b"))); c != -1 {
		t.Fatal("string compare")
	}
}

func BenchmarkExample2FullQuery(b *testing.B) {
	r := xrand.New(46)
	pts := make([]geom.Point2, 200)
	for i := range pts {
		pts[i] = geom.Point2{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	d := pointsTable(pts)
	stmt, err := sql.Parse(`
		SELECT COUNT(*) FROM
		  (SELECT o1.id FROM D o1, D o2
		   WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		   GROUP BY o1.id HAVING COUNT(*) < 10) s`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator(Catalog{"D": d})
		if _, err := ev.CountQuery(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func ptr(v Value) *Value { return &v }
