package qcompile

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// buildD returns the self-join test table D(id, x, y, tag).
func buildD(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tab := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int},
		{Name: "x", Kind: dataset.Float},
		{Name: "y", Kind: dataset.Float},
		{Name: "tag", Kind: dataset.String},
	})
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		tab.MustAppendRow(int64(i), r.Float64()*100, r.Float64()*100, tags[r.Intn(len(tags))])
	}
	return tab
}

// buildR returns the join partner R(key, v).
func buildR(t *testing.T, n, keys int, seed int64) *dataset.Table {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tab := dataset.New("R", dataset.Schema{
		{Name: "key", Kind: dataset.Int},
		{Name: "v", Kind: dataset.Float},
	})
	for i := 0; i < n; i++ {
		tab.MustAppendRow(int64(r.Intn(keys)), r.Float64()*10)
	}
	return tab
}

// compileAndCompare decomposes query, compiles Q3, and asserts the compiled
// labels equal the interpreter's on every object. It returns the program
// and the labels for further assertions.
func compileAndCompare(t *testing.T, cat engine.Catalog, query string, params map[string]engine.Value) (*Program, []bool) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dec, err := engine.Decompose(engine.ExtractInner(stmt))
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	ev := engine.NewEvaluator(cat)
	for k, v := range params {
		ev.SetParam(k, v)
	}
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatalf("objects: %v", err)
	}
	interp := ev.ObjectPredicate(dec, objects)

	prog, err := Compile(dec, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bound, err := prog.Bind(params, objects)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	eval := bound.NewEvalFn()
	labels := make([]bool, objects.NumRows())
	for i := range labels {
		want, err := interp(i)
		if err != nil {
			t.Fatalf("interpreter failed on object %d: %v", i, err)
		}
		if labels[i] = eval(i); labels[i] != want {
			t.Fatalf("object %d: compiled=%v interpreted=%v (query %s)", i, labels[i], want, query)
		}
	}
	return prog, labels
}

// TestCompiledExactIntLiteral: an integer literal past 2^53 keeps its
// exact value in the closures as in the interpreter, so of the objects
// 2^53 and 2^53 + 1 (enumerated in table order) only the second joins the
// row equal to 9007199254740993.
func TestCompiledExactIntLiteral(t *testing.T) {
	const big = 1 << 53
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}})
	d.MustAppendRow(int64(big))
	d.MustAppendRow(int64(big + 1))
	_, labels := compileAndCompare(t, engine.Catalog{"D": d},
		`SELECT a.id FROM D a, D b WHERE b.id = 9007199254740993 AND b.id = a.id GROUP BY a.id`, nil)
	if !slices.Equal(labels, []bool{false, true}) {
		t.Fatalf("labels %v, want only object 2^53 + 1", labels)
	}
}

func TestCompiledMatchesInterpreterSkyband(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 120, 1)}
	prog, _ := compileAndCompare(t, cat,
		`SELECT o1.id FROM D o1, D o2
		 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		 GROUP BY o1.id HAVING COUNT(*) < k`,
		map[string]engine.Value{"k": engine.IntVal(12)})
	if prog.Indexes() != 1 {
		t.Fatalf("want 1 index (the o1.id correlation), got %d", prog.Indexes())
	}
	if prog.short != shortCount {
		t.Fatalf("want monotone COUNT short-circuit, got %v", prog.short)
	}
}

func TestCompiledMatchesInterpreterEquiJoin(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 80, 2), "R": buildR(t, 300, 40, 3)}
	prog, _ := compileAndCompare(t, cat,
		`SELECT d.id FROM D d, R r
		 WHERE d.id = r.key AND r.v > t
		 GROUP BY d.id HAVING COUNT(*) >= m`,
		map[string]engine.Value{"t": engine.FloatVal(4), "m": engine.IntVal(3)})
	if prog.Indexes() != 2 {
		t.Fatalf("want 2 indexes (correlation + join key), got %d", prog.Indexes())
	}
}

func TestCompiledMatchesInterpreterNoHaving(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 100, 4), "R": buildR(t, 400, 30, 5)}
	prog, _ := compileAndCompare(t, cat,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id`,
		map[string]engine.Value{"t": engine.FloatVal(8)})
	if prog.short != shortNoHaving {
		t.Fatalf("want no-HAVING short-circuit, got %v", prog.short)
	}
}

func TestCompiledMatchesInterpreterAggregates(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 60, 6), "R": buildR(t, 250, 25, 7)}
	for _, q := range []string{
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING SUM(r.v) > 12.5`,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING AVG(r.v) <= 5`,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING MAX(r.v) - MIN(r.v) > 6`,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING COUNT(*) > 2 AND MIN(r.v) < 2`,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING SUM(r.key) >= 3 * COUNT(*)`,
		`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING MAX(r.v > 5) > MIN(r.v > 5)`,
	} {
		compileAndCompare(t, cat, q, nil)
	}
}

func TestCompiledMatchesInterpreterStringsAndFuncs(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 110, 8)}
	compileAndCompare(t, cat,
		`SELECT o1.id FROM D o1, D o2
		 WHERE o2.tag = o1.tag AND SQRT(POWER(o2.x - o1.x, 2) + POWER(o2.y - o1.y, 2)) <= d
		 GROUP BY o1.id HAVING COUNT(*) <= m`,
		map[string]engine.Value{"d": engine.FloatVal(18), "m": engine.IntVal(9)})
}

// TestCompiledExactIntComparison pins the int rule in both evaluators over
// keys beyond 2^53, where distinct ints share a float64: an int probe
// returns exactly the equal rows, an int filter and MIN/MAX order ints
// exactly, and a float probe on an int column keeps the mixed-kind rule
// (equal when the int's float64 is), and SUM of ints is exact. Each row of
// want is both evaluators' labels for objects 0–4.
func TestCompiledExactIntComparison(t *testing.T) {
	const big = 1 << 53
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}, {Name: "w", Kind: dataset.Int}})
	for i, w := range []int64{big, big + 1, big, -big - 1, -big} {
		d.MustAppendRow(int64(i), w)
	}
	cat := engine.Catalog{"D": d}
	for _, c := range []struct {
		q    string
		p    engine.Value
		want []bool
	}{
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w = o1.w GROUP BY o1.id HAVING COUNT(*) >= 2`,
			engine.Null, []bool{true, false, true, false, false}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w > o1.w GROUP BY o1.id`,
			engine.Null, []bool{true, false, true, true, true}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w >= o1.w GROUP BY o1.id HAVING MAX(o2.w) > MIN(o2.w)`,
			engine.Null, []bool{true, false, true, true, true}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w = p AND o2.id = o1.id GROUP BY o1.id`,
			engine.IntVal(big + 1), []bool{false, true, false, false, false}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w = p AND o2.id = o1.id GROUP BY o1.id`,
			engine.FloatVal(big), []bool{true, true, true, false, false}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w = p AND o2.id = o1.id GROUP BY o1.id`,
			engine.FloatVal(-big), []bool{false, false, false, true, true}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w = p AND o2.id = o1.id GROUP BY o1.id`,
			engine.FloatVal(2.5), []bool{false, false, false, false, false}},
		// SUM of ints adds in int64: through float64, 2^53 + 1 is 2^53.
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.id = o1.id GROUP BY o1.id HAVING SUM(o2.w) = 9007199254740993`,
			engine.Null, []bool{false, true, false, false, false}},
		{`SELECT o1.id FROM D o1, D o2 WHERE o2.w <= o1.w GROUP BY o1.id HAVING SUM(o2.w) = -18014398509481985`,
			engine.Null, []bool{false, false, false, false, true}},
	} {
		var params map[string]engine.Value
		if c.p.Kind != engine.KNull {
			params = map[string]engine.Value{"p": c.p}
		}
		if _, got := compileAndCompare(t, cat, c.q, params); !slices.Equal(got, c.want) {
			t.Errorf("%s (p = %v): labels %v, want %v", c.q, c.p, got, c.want)
		}
	}
}

func TestCompileFallsBackOnUnsupported(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 30, 9)}
	for _, q := range []string{
		// Scalar subquery in WHERE.
		`SELECT o1.id FROM D o1 WHERE o1.x > (SELECT MIN(x) FROM D) GROUP BY o1.id HAVING COUNT(*) > 0`,
		// DISTINCT aggregate.
		`SELECT o1.id FROM D o1, D o2 WHERE o2.x > o1.x GROUP BY o1.id HAVING COUNT(DISTINCT o2.tag) > 1`,
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		dec, err := engine.Decompose(engine.ExtractInner(stmt))
		if err != nil {
			t.Fatalf("decompose: %v", err)
		}
		_, err = Compile(dec, cat)
		var u *Unsupported
		if !errors.As(err, &u) {
			t.Fatalf("query %q: want Unsupported, got %v", q, err)
		}
	}
}

// TestCompiledRandomizedDifferential generates random tables and random
// Q1-shaped queries over them, and checks every compiled label against the
// interpreter — the fallback boundary (queries the generator produces that
// Compile rejects) is exercised by skipping with a note rather than
// failing, but at this generator's shapes everything must compile.
func TestCompiledRandomizedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	aggs := []string{"COUNT(*)", "SUM(r.v)", "AVG(r.v)", "MIN(r.v)", "MAX(r.v)"}
	for trial := 0; trial < 12; trial++ {
		d := buildD(t, 30+r.Intn(40), int64(100+trial))
		rt := buildR(t, 80+r.Intn(150), 10+r.Intn(30), int64(200+trial))
		cat := engine.Catalog{"D": d, "R": rt}
		agg := aggs[r.Intn(len(aggs))]
		op := ops[r.Intn(len(ops))]
		q := `SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id HAVING ` +
			agg + " " + op + " m"
		params := map[string]engine.Value{
			"t": engine.FloatVal(r.Float64() * 10),
			"m": engine.FloatVal(r.Float64() * 6),
		}
		compileAndCompare(t, cat, q, params)
	}
}

// TestCompiledConcurrentEvalFns checks that closures from the same Bound
// agree with a sequential evaluation when run from many goroutines (the
// property batched labeling relies on).
func TestCompiledConcurrentEvalFns(t *testing.T) {
	cat := engine.Catalog{"D": buildD(t, 200, 11)}
	stmt, err := sql.Parse(`SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.Decompose(engine.ExtractInner(stmt))
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(cat)
	ev.SetParam("k", engine.IntVal(20))
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(dec, cat)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prog.Bind(map[string]engine.Value{"k": engine.IntVal(20)}, objects)
	if err != nil {
		t.Fatal(err)
	}
	n := objects.NumRows()
	want := make([]bool, n)
	seq := bound.NewEvalFn()
	for i := 0; i < n; i++ {
		want[i] = seq(i)
	}
	got := make([]bool, n)
	const workers = 8
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			f := bound.NewEvalFn()
			for i := w; i < n; i += workers {
				got[i] = f(i)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("object %d: concurrent=%v sequential=%v", i, got[i], want[i])
		}
	}
}
