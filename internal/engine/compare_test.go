package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sql"
)

// TestExactIntComparison pins the int rule of compare: ints compare with
// ints as int64, so two keys beyond 2^53 that share a float64 stay
// distinct, on the direct path (two columns), on the boxed path
// (arithmetic), in MIN/MAX and in ORDER BY; an int against a float still
// compares through float64. SUM of ints adds in int64.
func TestExactIntComparison(t *testing.T) {
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}})
	d.MustAppendRow(int64(big))
	d.MustAppendRow(int64(big + 1))
	cat := Catalog{"D": d}
	for _, c := range []struct {
		q    string
		want int
	}{
		{"SELECT a.id, b.id FROM D a, D b WHERE a.id = b.id", 2},
		{"SELECT a.id, b.id FROM D a, D b WHERE a.id <> b.id", 2},
		{"SELECT a.id, b.id FROM D a, D b WHERE a.id < b.id", 1},
		{"SELECT a.id, b.id FROM D a, D b WHERE a.id >= b.id", 3},
		{"SELECT a.id, b.id FROM D a, D b WHERE a.id + 0 = b.id", 2},
		{"SELECT a.id, b.id FROM D a, D b WHERE b.id > a.id * 1", 1},
		{"SELECT a.id FROM D a WHERE a.id = 9007199254740992.0", 2},
		{"SELECT a.id FROM D a WHERE a.id < 9007199254740993", 1},
		{"SELECT COUNT(*) FROM D a HAVING MAX(a.id) > MIN(a.id)", 1},
		// SUM of ints is exact: through float64, 2^53 + 2^53 + 1 is 2^54.
		{"SELECT COUNT(*) FROM D a HAVING SUM(a.id) = 18014398509481985", 1},
		{"SELECT COUNT(*) FROM D a HAVING SUM(a.id) = 18014398509481984", 0},
	} {
		if got := len(run(t, cat, c.q, nil).Rows); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.q, got, c.want)
		}
	}
	// An integer literal is exact past 2^53, on the direct and the boxed
	// path: read through float64 it would select the row 2^53.
	for _, q := range []string{
		"SELECT a.id FROM D a WHERE a.id = 9007199254740993",
		"SELECT a.id FROM D a WHERE a.id + 0 = 9007199254740993",
	} {
		if res := run(t, cat, q, nil); len(res.Rows) != 1 || res.Rows[0][0].I != big+1 {
			t.Errorf("%s: rows %v, want the one row %d", q, res.Rows, int64(big+1))
		}
	}
	res := run(t, cat, "SELECT a.id FROM D a ORDER BY id DESC", nil)
	if got := res.Rows[0][0].I; got != big+1 {
		t.Errorf("ORDER BY id DESC: first row %d, want %d", got, int64(big+1))
	}
}

// TestDirectComparisonMatchesBoxed is the differential check of evalBool's
// direct path: for every operand-kind pair, every comparison and every
// pair of leaf sources (base-table column, materialized cell, parameter,
// literal), evalBool's verdict and error equal compareBoxed's, which builds
// both Values and calls compare. The direct path must be the one taken
// exactly when both operands are numbers or NULL.
func TestDirectComparisonMatchesBoxed(t *testing.T) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	pairs := [][2]Value{
		{IntVal(big), IntVal(big + 1)}, {IntVal(big + 1), IntVal(big)}, {IntVal(big + 1), IntVal(big + 1)},
		{IntVal(big - 1), IntVal(big)}, {IntVal(-big - 1), IntVal(-big)}, {IntVal(-big + 1), IntVal(-big - 1)},
		{IntVal(3), FloatVal(3)}, {IntVal(big + 1), FloatVal(big)}, {FloatVal(2.5), IntVal(2)},
		{FloatVal(nan), IntVal(1)}, {FloatVal(1), FloatVal(nan)}, {FloatVal(nan), FloatVal(nan)},
		{FloatVal(0), FloatVal(negZero)}, {IntVal(0), FloatVal(negZero)},
		{FloatVal(inf), FloatVal(-inf)}, {FloatVal(inf), IntVal(math.MaxInt64)}, {FloatVal(-inf), IntVal(math.MinInt64)},
		{StringVal("a"), StringVal("b")}, {StringVal("b"), StringVal("b")},
		{StringVal("a"), IntVal(1)}, {FloatVal(1), StringVal("a")},
		{Null, IntVal(1)}, {FloatVal(1), Null}, {Null, Null}, {Null, StringVal("a")},
		{BoolVal(false), BoolVal(true)}, {BoolVal(true), IntVal(1)},
	}
	direct := func(v Value) bool { return v.Kind == KInt || v.Kind == KFloat || v.Kind == KNull }
	for _, p := range pairs {
		sc, ev, leaves := comparisonScope(t, p)
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, l := range leaves[0] {
				for _, r := range leaves[1] {
					x := &sql.BinaryExpr{Op: op, L: l, R: r}
					got, gerr := ev.evalBool(x, sc, nil, "")
					want, werr := ev.compareBoxed(x, sc, nil)
					if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Errorf("%v %s %v as %s: direct %v, %v; boxed %v, %v", p[0], op, p[1], x, got, gerr, want, werr)
					}
					_, lok := ev.numLeaf(l, sc)
					_, rok := ev.numLeaf(r, sc)
					if lok != direct(p[0]) || rok != direct(p[1]) {
						t.Errorf("%s: numeric leaves %v, %v for %v, %v", x, lok, rok, p[0], p[1])
					}
				}
			}
		}
		if p[0].Kind == KString && p[1].Kind == KInt {
			x := &sql.BinaryExpr{Op: "=", L: leaves[0][0], R: leaves[1][0]}
			if _, err := ev.evalBool(x, sc, nil, ""); err == nil || err.Error() != "engine: cannot compare 'a' with 1" {
				t.Errorf("%s: error %v, want the cannot-compare text", x, err)
			}
		}
	}
}

// comparisonScope binds the pair's two values, as columns a and b, four
// ways: a one-row base table t (ints, floats and strings only), a one-row
// materialized relation c, parameters pa and pb, and literals (but NULL
// and booleans, which have none). It returns each operand's leaves.
func comparisonScope(t *testing.T, p [2]Value) (*Scope, *Evaluator, [2][]sql.Expr) {
	t.Helper()
	sc := NewScope(nil)
	ev := NewEvaluator(nil)
	sc.BindRow("c", &ResultSet{Cols: []string{"a", "b"}, Rows: [][]Value{{p[0], p[1]}}}, 0)
	var schema dataset.Schema
	var row []any
	var leaves [2][]sql.Expr
	for i, v := range p {
		name := []string{"a", "b"}[i]
		leaves[i] = append(leaves[i], &sql.ColumnRef{Qualifier: "c", Name: name}, &sql.ColumnRef{Name: "p" + name})
		ev.SetParam("p"+name, v)
		switch v.Kind {
		case KInt:
			schema, row = append(schema, dataset.Column{Name: name, Kind: dataset.Int}), append(row, v.I)
			leaves[i] = append(leaves[i], &sql.NumberLit{Value: float64(v.I), IsInt: true, Int: v.I})
		case KFloat:
			schema, row = append(schema, dataset.Column{Name: name, Kind: dataset.Float}), append(row, v.F)
			leaves[i] = append(leaves[i], &sql.NumberLit{Value: v.F})
		case KString:
			schema, row = append(schema, dataset.Column{Name: name, Kind: dataset.String}), append(row, v.S)
			leaves[i] = append(leaves[i], &sql.StringLit{Value: v.S})
		default:
			continue
		}
		leaves[i] = append(leaves[i], &sql.ColumnRef{Qualifier: "t", Name: name})
	}
	tab := dataset.New("t", schema)
	tab.MustAppendRow(row...)
	sc.Bind("t", NewTableRelation(tab))
	return sc, ev, leaves
}

// TestNegativeZeroIsOneKey: -0 = 0 holds, so DISTINCT, GROUP BY and a
// DISTINCT aggregate take the two zeros as one key, whichever comes first.
func TestNegativeZeroIsOneKey(t *testing.T) {
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float}})
	d.MustAppendRow(int64(0), math.Copysign(0, -1))
	d.MustAppendRow(int64(1), 1.0)
	d.MustAppendRow(int64(2), 0.0)
	cat := Catalog{"D": d}
	for _, c := range []struct {
		q    string
		want [][]Value
	}{
		{"SELECT DISTINCT a.x FROM D a WHERE a.x = 0", [][]Value{{FloatVal(math.Copysign(0, -1))}}},
		{"SELECT a.x, COUNT(*) FROM D a GROUP BY a.x", [][]Value{{FloatVal(math.Copysign(0, -1)), IntVal(2)}, {FloatVal(1), IntVal(1)}}},
		{"SELECT COUNT(DISTINCT a.x) FROM D a", [][]Value{{IntVal(2)}}},
	} {
		got := run(t, cat, c.q, nil).Rows
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: rows %v, want %v", c.q, got, c.want)
		}
	}
}
