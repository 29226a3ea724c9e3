package qcompile

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// FuzzCompiledAgrees is the differential check between the two predicate
// evaluators: generated tables × generated Q1 shapes × generated parameters,
// and for every object the closures must do what the interpreter does —
// return its label, or raise an engine.Fault where it returns an error
// (never a label, never any other panic). A Compile or Bind refusal must be
// an *Unsupported, which callers turn into the interpreter fallback.
//
// Where the generator puts the two data-dependent faults. The interpreter
// evaluates WHERE on every row of the full cross product, in source order;
// the closures hoist conjuncts to the shallowest alias that decides them,
// skip rows a hash probe excludes, and stop at the first witness or settled
// COUNT(*). All of that is invisible on total expressions and visible on a
// conjunct that can fail — whether a zero divisor in WHERE is reached at all
// depends on which rows an evaluator happens to visit, in the interpreter as
// much as in the closures. So a divisor that may be zero and a SQRT argument
// that may be negative are generated only where both evaluators see exactly
// the same values: aggregate arguments (every WHERE-passing row) and HAVING
// over aggregates and group columns (once per non-empty group). Everywhere
// else `/` and SQRT appear with operands that cannot fail.
func FuzzCompiledAgrees(f *testing.F) {
	for shape := range seedShapes {
		f.Add(uint8(shape), seedBytes(uint64(shape)+1, 96))
	}
	for s := uint64(0); s < 12; s++ {
		f.Add(uint8(len(seedShapes))+uint8(s), seedBytes(100+s, 160))
	}
	f.Add(uint8(0), []byte{})     // empty tables
	f.Add(uint8(1), []byte{1, 1}) // single-row tables
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		g := &gen{data: data}
		cat := g.tables()
		params := g.params()
		query := ""
		if int(shape) < len(seedShapes) {
			query = seedShapes[shape]
		} else {
			query = g.query()
		}
		checkCompiledAgrees(t, cat, query, params)
	})
}

// FuzzCountBound holds the count-reporting evaluation to the interpreter:
// over generated tables and query bodies with HAVING COUNT(*) <op> p, what
// NewCountFn reports for each object at a drawn threshold must bound the
// interpreter's COUNT(*) of the object's group (equal it when exact), must
// settle that threshold with the interpreter's label, and must settle a
// second drawn threshold, when CountSettles says it does, with the
// interpreter's label there. A case the interpreter fails on is
// FuzzCompiledAgrees' to judge and is skipped here.
func FuzzCountBound(f *testing.F) {
	for s := uint64(0); s < 16; s++ {
		f.Add(seedBytes(200+s, 160))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{data: data}
		cat := g.tables()
		params := g.params()
		body, _ := g.body()
		having := g.countHaving("p")
		thr := [2]engine.Value{g.threshold(), g.threshold()}
		checkCountBound(t, cat, body, having, params, thr)
	})
}

// fuzzThresholds are the count thresholds FuzzCountBound draws: integer,
// fractional and negative, around the small counts its tables produce.
var fuzzThresholds = []engine.Value{
	engine.IntVal(-1), engine.IntVal(0), engine.IntVal(1), engine.IntVal(2), engine.IntVal(3), engine.IntVal(5),
	engine.FloatVal(-0.5), engine.FloatVal(0.5), engine.FloatVal(1.5), engine.FloatVal(2.5),
}

func (g *gen) threshold() engine.Value { return fuzzThresholds[g.n(len(fuzzThresholds))] }

// checkCountBound runs one FuzzCountBound case: body + having over p bound
// to thr[0], then thr[1].
func checkCountBound(t *testing.T, cat engine.Catalog, body, having string, params map[string]engine.Value, thr [2]engine.Value) {
	t.Helper()
	decompose := func(q string) *engine.Decomposed {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("generator produced unparseable SQL: %v\n%s", err, q)
		}
		dec, err := engine.Decompose(engine.ExtractInner(stmt))
		if err != nil {
			t.Fatalf("generator produced a non-Q1 shape: %v\n%s", err, q)
		}
		return dec
	}
	query := body + having
	dec, atLeast := decompose(query), decompose(body+" HAVING COUNT(*) >= pc")
	ev := engine.NewEvaluator(cat)
	for k, v := range params {
		ev.SetParam(k, v)
	}
	ev.SetParam("p", thr[0])
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		return
	}
	prog, err := Compile(dec, cat)
	if err != nil {
		return
	}
	name, op, ok := prog.CountParam()
	if !ok || name != "p" {
		t.Fatalf("CountParam = %q %q %t, want p\n%s", name, op, ok, query)
	}
	bound, err := prog.Bind(ev.Params, objects)
	if err != nil {
		return
	}
	count := bound.NewCountFn()
	label, geq := ev.ObjectPredicate(dec, objects), ev.ObjectPredicate(atLeast, objects)
	rows := 1 // past the joined rows of any FROM list over D, R and D again
	for _, tab := range cat {
		rows *= (tab.NumRows() + 1) * (tab.NumRows() + 1)
	}
	for i := 0; i < objects.NumRows(); i++ {
		// The interpreter's COUNT(*): the largest c with COUNT(*) >= c, 0
		// when the object has no group.
		c, hi := 0, rows
		for c < hi {
			mid := (c + hi + 1) / 2
			ev.SetParam("pc", engine.IntVal(int64(mid)))
			ok, err := geq(i)
			if err != nil {
				return
			}
			if ok {
				c = mid
			} else {
				hi = mid - 1
			}
		}
		n, exact, fault := countOrFault(count, i)
		if fault != nil {
			return
		}
		if n > int64(c) || (exact && n != int64(c)) {
			t.Fatalf("object %d: reported %d (exact %t), the interpreter counts %d\n%s\n%s", i, n, exact, c, query, describe(cat, ev.Params))
		}
		for j, u := range thr {
			ev.SetParam("p", u)
			want, err := label(i)
			if err != nil {
				return
			}
			got, settled := CountSettles(op, toFloat(u), n, exact)
			if j == 0 && !settled {
				t.Fatalf("object %d: %d (exact %t) does not settle its own threshold %v\n%s", i, n, exact, u, query)
			}
			if settled && got != want {
				t.Fatalf("object %d: %d (exact %t) settles p = %v as %t, the interpreter says %t\n%s\n%s",
					i, n, exact, u, got, want, query, describe(cat, ev.Params))
			}
		}
		ev.SetParam("p", thr[0])
	}
}

// countOrFault is evalOrFault for a count-reporting closure.
func countOrFault(count func(int) (int64, bool), i int) (n int64, exact bool, fault *engine.Fault) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *engine.Fault:
			fault = p
		default:
			panic(p)
		}
	}()
	n, exact = count(i)
	return n, exact, nil
}

// seedShapes are qcompile_test.go's query shapes, run against generated
// tables and parameters.
var seedShapes = []string{
	`SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id HAVING COUNT(*) < k`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id HAVING COUNT(*) >= m`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING SUM(r.v) > 12.5`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING AVG(r.v) <= 5`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING MAX(r.v) - MIN(r.v) > 6`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING COUNT(*) > 2 AND MIN(r.v) < 2`,
	`SELECT d.id FROM D d, R r WHERE d.id = r.key GROUP BY d.id HAVING SUM(r.key) >= 3 * COUNT(*)`,
	`SELECT o1.id FROM D o1, D o2 WHERE o2.tag = o1.tag AND SQRT(POWER(o2.x - o1.x, 2) + POWER(o2.y - o1.y, 2)) <= d GROUP BY o1.id HAVING COUNT(*) <= m`,
	`SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x GROUP BY o1.id HAVING COUNT(*) / MIN(o1.y) < k`,
	`SELECT o1.tag FROM D o1, R r WHERE r.s = o1.tag GROUP BY o1.tag HAVING SQRT(SUM(r.v)) > t`,
}

// seedBytes is a fixed pseudo-random byte run for the seed corpus.
func seedBytes(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
}

// checkCompiledAgrees runs one case of the differential check.
func checkCompiledAgrees(t *testing.T, cat engine.Catalog, query string, params map[string]engine.Value) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("generator produced unparseable SQL: %v\n%s", err, query)
	}
	dec, err := engine.Decompose(engine.ExtractInner(stmt))
	if err != nil {
		t.Fatalf("generator produced a non-Q1 shape: %v\n%s", err, query)
	}
	ev := engine.NewEvaluator(cat)
	for k, v := range params {
		ev.SetParam(k, v)
	}
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		return // the request fails at enumeration, before any predicate exists
	}
	interp := ev.ObjectPredicate(dec, objects)

	var unsupported *Unsupported
	prog, err := Compile(dec, cat)
	if err != nil {
		if !errors.As(err, &unsupported) {
			t.Fatalf("Compile refused with %T (%v), want *Unsupported\n%s", err, err, query)
		}
		return
	}
	bound, err := prog.Bind(params, objects)
	if err != nil {
		if !errors.As(err, &unsupported) {
			t.Fatalf("Bind refused with %T (%v), want *Unsupported\n%s", err, err, query)
		}
		return
	}

	// One closure labels every object ascending, then descending: its
	// scratch must carry nothing from one object — or one fault — to the
	// next.
	eval := bound.NewEvalFn()
	n := objects.NumRows()
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < n; j++ {
			i := j
			if pass == 1 {
				i = n - 1 - j
			}
			want, ierr := interp(i)
			got, fault := evalOrFault(eval, i)
			switch {
			case ierr != nil && fault == nil:
				t.Fatalf("pass %d object %d: interpreter failed (%v), closures labeled %v\n%s\n%s", pass, i, ierr, got, query, describe(cat, params))
			case ierr == nil && fault != nil:
				t.Fatalf("pass %d object %d: closures raised %v, interpreter labeled %v\n%s\n%s", pass, i, fault, want, query, describe(cat, params))
			case ierr == nil && got != want:
				t.Fatalf("pass %d object %d: compiled=%v interpreted=%v\n%s\n%s", pass, i, got, want, query, describe(cat, params))
			}
		}
	}
}

// evalOrFault evaluates one object, returning the typed fault if the
// closure raised one. Any other panic is left to crash the test.
func evalOrFault(eval func(int) bool, i int) (label bool, fault *engine.Fault) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *engine.Fault:
			fault = p
		default:
			panic(p)
		}
	}()
	return eval(i), nil
}

func describe(cat engine.Catalog, params map[string]engine.Value) string {
	var sb strings.Builder
	for _, name := range []string{"D", "R"} {
		tab := cat[name]
		fmt.Fprintf(&sb, "%s:", name)
		for r := 0; r < tab.NumRows(); r++ {
			sb.WriteString(" (")
			for c := range tab.Schema() {
				fmt.Fprintf(&sb, "%v ", tab.Value(r, c))
			}
			sb.WriteString(")")
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "params: %v", params)
	return sb.String()
}

// gen turns the fuzzer's bytes into choices; an exhausted input keeps
// answering 0, so every prefix of an input is itself a valid case.
type gen struct {
	data []byte
	pos  int
}

func (g *gen) n(k int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % k
}

func (g *gen) pick(xs ...string) string { return xs[g.n(len(xs))] }

var (
	fuzzFloats = []float64{0, 1, 2, 2, -1, 3.5, 7, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -2.5}
	fuzzInts   = []int64{0, 1, 2, 2, 3, -1, 5}
	fuzzStrs   = []string{"a", "b", "b", "", "ab"}
	// fuzzWide holds the ints around ±2^53, where distinct ints share a
	// float64 (2^53 + 1 rounds to 2^53, -2^53 - 1 to -2^53), beside small
	// ones: only an exact int64 comparison tells them apart.
	fuzzWide = []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -1<<53 + 1, -1 << 53, -1<<53 - 1}
)

func (g *gen) float() float64 { return fuzzFloats[g.n(len(fuzzFloats))] }
func (g *gen) int() int64     { return fuzzInts[g.n(len(fuzzInts))] }
func (g *gen) wide() int64    { return fuzzWide[g.n(len(fuzzWide))] }
func (g *gen) str() string    { return fuzzStrs[g.n(len(fuzzStrs))] }

// tables builds D(id, x, y, tag, w) and R(key, v, s, w): empty, single-row
// and small tables over pools that repeat values and hold NaN, ±Inf and ±0,
// and, in both w columns, ints around ±2^53. D.id is the row number or, in
// one case of three, a repeating small int.
func (g *gen) tables() engine.Catalog {
	d := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float}, {Name: "y", Kind: dataset.Float},
		{Name: "tag", Kind: dataset.String}, {Name: "w", Kind: dataset.Int},
	})
	r := dataset.New("R", dataset.Schema{
		{Name: "key", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float},
		{Name: "s", Kind: dataset.String}, {Name: "w", Kind: dataset.Int},
	})
	nd, nr, dupIDs := g.n(8), g.n(10), g.n(3) == 2
	for i := 0; i < nd; i++ {
		id := int64(i)
		if dupIDs {
			id = g.int()
		}
		d.MustAppendRow(id, g.float(), g.float(), g.str(), g.wide())
	}
	for i := 0; i < nr; i++ {
		r.MustAppendRow(g.int(), g.float(), g.str(), g.wide())
	}
	return engine.Catalog{"D": d, "R": r}
}

// params binds every parameter name the seed shapes and the generator use.
func (g *gen) params() map[string]engine.Value {
	return map[string]engine.Value{
		"k": engine.IntVal(g.int()), "m": engine.IntVal(g.int()),
		"t": engine.FloatVal(g.float()), "d": engine.FloatVal(g.float()),
		"pz": engine.FloatVal(g.float()), "ps": engine.StringVal(g.str()),
	}
}

// fuzzAlias is one FROM entry the expression generators may reference.
type fuzzAlias struct {
	table, name     string
	ints, flts, str []string
}

func aliasD(name string) fuzzAlias {
	return fuzzAlias{"D", name, []string{"id", "w"}, []string{"x", "y"}, []string{"tag"}}
}

func aliasR(name string) fuzzAlias {
	return fuzzAlias{"R", name, []string{"key", "w"}, []string{"v"}, []string{"s"}}
}

var cmpOps = []string{"<", "<=", ">", ">=", "=", "<>"}

// query generates one Q1-shaped counting query.
func (g *gen) query() string {
	q, from := g.body()
	switch g.n(4) {
	case 0: // EXISTS: no HAVING
	case 1: // the monotone COUNT(*) threshold, either way round
		q += g.countHaving(g.num(nil, 1, false))
	default:
		q += " HAVING " + g.having(from, 2)
	}
	return q
}

// countHaving is HAVING COUNT(*) <op> thr, either way round.
func (g *gen) countHaving(thr string) string {
	if g.n(2) == 0 {
		return fmt.Sprintf(" HAVING COUNT(*) %s %s", cmpOps[g.n(6)], thr)
	}
	return fmt.Sprintf(" HAVING %s %s COUNT(*)", thr, cmpOps[g.n(6)])
}

// body generates a counting query up to its GROUP BY, and its FROM entries.
func (g *gen) body() (string, []fuzzAlias) {
	var from []fuzzAlias
	switch g.n(4) {
	case 0:
		from = []fuzzAlias{aliasD("o1"), aliasD("o2")}
	case 1:
		from = []fuzzAlias{aliasD("o1"), aliasR("r")}
	case 2:
		from = []fuzzAlias{aliasD("o1")}
	default:
		from = []fuzzAlias{aliasD("o1"), aliasR("r"), aliasD("o2")}
	}
	group := g.pick("o1.id", "o1.id", "o1.tag", "o1.w", "o1.id, o1.tag", "o1.x")

	var where []string
	inner := from[len(from)-1]
	if len(from) > 1 && g.n(3) > 0 { // an equality a hash probe can take
		switch g.n(4) {
		case 0: // an int key: the probe's exact int index
			where = append(where, fmt.Sprintf("%s.%s = o1.%s", inner.name, inner.ints[g.n(2)], g.pick("id", "w")))
		case 1:
			where = append(where, fmt.Sprintf("o1.tag = %s.%s", inner.name, inner.str[0]))
		case 2:
			where = append(where, fmt.Sprintf("%s.%s = %s", inner.name, inner.ints[g.n(2)], g.num(from[:1], 1, false)))
		default:
			where = append(where, fmt.Sprintf("%s.%s = %s", inner.name, inner.flts[0], g.num(from[:1], 1, false)))
		}
	}
	for c := g.n(3); c > 0; c-- {
		where = append(where, g.boolean(from, 2))
	}

	q := "SELECT " + group + " FROM "
	for i, a := range from {
		if i > 0 {
			q += ", "
		}
		q += a.table + " " + a.name
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q + " GROUP BY " + group, from
}

// num generates a numeric expression over the given aliases (none: literals
// and parameters only). Its `/` and SQRT cannot fail.
func (g *gen) num(scope []fuzzAlias, depth int, agg bool) string {
	leaf := func() string {
		if agg && g.n(2) == 0 {
			return g.aggregate(scope)
		}
		if len(scope) > 0 && g.n(3) > 0 {
			a := scope[g.n(len(scope))]
			cols := append(append([]string{}, a.ints...), a.flts...)
			return a.name + "." + cols[g.n(len(cols))]
		}
		return g.pick("0", "1", "2", "3", "2.5", "0.5", "k", "m", "t", "pz")
	}
	if depth <= 0 {
		return leaf()
	}
	a, b := g.num(scope, depth-1, agg), g.num(scope, depth-1, agg)
	switch g.n(14) {
	case 0:
		return "(" + a + " + " + b + ")"
	case 1:
		return "(" + a + " - " + b + ")"
	case 2:
		return "(" + a + " * " + b + ")"
	case 3:
		return "(" + a + " / (ABS(" + b + ") + 1))"
	case 4:
		return "(" + a + " / 2)"
	case 5:
		return "SQRT(ABS(" + a + "))"
	case 6:
		return "POWER(" + a + ", 2)"
	case 7:
		return "(-" + a + ")"
	case 8:
		return g.pick("ABS", "FLOOR", "CEIL", "LN", "EXP") + "(" + a + ")"
	case 9:
		return g.pick("LEAST", "GREATEST") + "(" + a + ", " + b + ")"
	default:
		return leaf()
	}
}

// intCol picks an int column of one of the aliases.
func (g *gen) intCol(scope []fuzzAlias) string {
	a := scope[g.n(len(scope))]
	return a.name + "." + a.ints[g.n(len(a.ints))]
}

func (g *gen) strExpr(scope []fuzzAlias) string {
	if len(scope) > 0 && g.n(3) > 0 {
		a := scope[g.n(len(scope))]
		return a.name + "." + a.str[0]
	}
	return g.pick("'a'", "'b'", "''", "ps")
}

// boolean generates a row-level condition; one in sixteen is ill-typed, to
// reach the Bind refusals.
func (g *gen) boolean(scope []fuzzAlias, depth int) string {
	if depth > 0 {
		switch g.n(6) {
		case 0:
			return "(" + g.boolean(scope, depth-1) + " AND " + g.boolean(scope, depth-1) + ")"
		case 1:
			return "(" + g.boolean(scope, depth-1) + " OR " + g.boolean(scope, depth-1) + ")"
		case 2:
			return "NOT (" + g.boolean(scope, depth-1) + ")"
		}
	}
	switch g.n(16) {
	case 0:
		return g.strExpr(scope) + " " + cmpOps[g.n(6)] + " " + g.num(scope, 0, false)
	case 1, 2, 3:
		return g.strExpr(scope) + " " + cmpOps[g.n(6)] + " " + g.strExpr(scope)
	case 4, 5: // two int columns: compared as int64 by both evaluators
		return g.intCol(scope) + " " + cmpOps[g.n(6)] + " " + g.intCol(scope)
	default:
		return g.num(scope, depth, false) + " " + cmpOps[g.n(6)] + " " + g.num(scope, depth, false)
	}
}

// aggregate generates one aggregate call. Its argument is evaluated on
// every WHERE-passing row by both evaluators, so it may fail.
func (g *gen) aggregate(scope []fuzzAlias) string {
	if len(scope) == 0 || g.n(4) == 0 {
		return "COUNT(*)"
	}
	arg := g.num(scope, 1, false)
	a := scope[g.n(len(scope))]
	switch g.n(8) {
	case 0:
		arg = "(" + arg + " / " + a.name + "." + a.flts[0] + ")"
	case 1:
		arg = "(" + arg + " / " + a.name + "." + a.ints[1] + ")"
	case 2:
		arg = "SQRT(" + a.name + "." + a.flts[0] + ")"
	case 3:
		if g.n(2) == 0 {
			return g.pick("MIN", "MAX", "COUNT") + "(" + a.name + "." + a.str[0] + ")"
		}
	}
	return g.pick("COUNT", "SUM", "AVG", "MIN", "MAX") + "(" + arg + ")"
}

// having generates a general HAVING condition over aggregates, group and
// representative-row columns and parameters. It is evaluated once per
// non-empty group by both evaluators, so a divisor or SQRT argument that is
// an aggregate or a column may fail here.
func (g *gen) having(scope []fuzzAlias, depth int) string {
	if depth > 0 {
		switch g.n(5) {
		case 0:
			return "(" + g.having(scope, depth-1) + " AND " + g.having(scope, depth-1) + ")"
		case 1:
			return "(" + g.having(scope, depth-1) + " OR " + g.having(scope, depth-1) + ")"
		case 2:
			return "NOT (" + g.having(scope, depth-1) + ")"
		}
	}
	l, r := g.num(scope, 1, true), g.num(scope, 1, true)
	risky := g.aggregate(scope)
	if g.n(2) == 0 {
		a := scope[g.n(len(scope))]
		risky = a.name + "." + g.pick(append(append([]string{}, a.ints...), a.flts...)...)
	}
	switch g.n(8) {
	case 0:
		l = "(" + l + " / " + risky + ")"
	case 1:
		l = "SQRT(" + risky + ")"
	case 2:
		return g.pick("MIN", "MAX") + "(" + scope[0].name + ".tag) " + cmpOps[g.n(6)] + " " + g.strExpr(scope)
	}
	return l + " " + cmpOps[g.n(6)] + " " + r
}
