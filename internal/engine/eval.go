package engine

import (
	"fmt"
	"math"

	"repro/internal/sql"
)

// Stats accumulates work counters so experiments can report the cost of
// "full" query evaluation versus sampled predicate evaluation.
type Stats struct {
	RowsScanned   int64 // rows produced by FROM enumeration
	SubqueryRuns  int64 // scalar/EXISTS subquery executions
	PredicateEval int64 // WHERE/HAVING evaluations
}

// Evaluator evaluates expressions and executes statements against a catalog.
// Params supplies values for free identifiers (e.g. the paper's d and k
// query parameters).
type Evaluator struct {
	Cat    Catalog
	Params map[string]Value
	Stats  Stats
}

// NewEvaluator returns an evaluator over cat with no parameters.
func NewEvaluator(cat Catalog) *Evaluator {
	return &Evaluator{Cat: cat, Params: make(map[string]Value)}
}

// SetParam sets a named parameter.
func (ev *Evaluator) SetParam(name string, v Value) { ev.Params[name] = v }

// aggEnv carries accumulated aggregate results during HAVING / projection
// evaluation of a grouped query.
type aggEnv map[*sql.FuncCall]Value

// Eval evaluates a non-aggregate expression in the given scope.
func (ev *Evaluator) Eval(e sql.Expr, sc *Scope) (Value, error) {
	return ev.eval(e, sc, nil)
}

func (ev *Evaluator) eval(e sql.Expr, sc *Scope, aggs aggEnv) (Value, error) {
	switch x := e.(type) {
	case *sql.NumberLit:
		if x.IsInt {
			return IntVal(x.Int), nil
		}
		return FloatVal(x.Value), nil

	case *sql.StringLit:
		return StringVal(x.Value), nil

	case *sql.ColumnRef:
		r, err := sc.column(x)
		if err != nil {
			return Null, err
		}
		if r != nil {
			return r.b.rel.Value(r.b.row, r.col), nil
		}
		if x.Qualifier == "" {
			if pv, ok := ev.Params[x.Name]; ok {
				return pv, nil
			}
		}
		return Null, fmt.Errorf("engine: unresolved column %s", x.String())

	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			b, err := ev.evalBool(x, sc, aggs, "")
			if err != nil {
				return Null, err
			}
			return BoolVal(b), nil
		}
		v, err := ev.eval(x.X, sc, aggs)
		if err != nil {
			return Null, err
		}
		if x.Op == "-" {
			switch v.Kind {
			case KInt:
				return IntVal(-v.I), nil
			case KFloat:
				return FloatVal(-v.F), nil
			default:
				return Null, fmt.Errorf("engine: cannot negate %s", v)
			}
		}
		return Null, fmt.Errorf("engine: unknown unary op %q", x.Op)

	case *sql.BinaryExpr:
		return ev.evalBinary(x, sc, aggs)

	case *sql.FuncCall:
		if isAggregate(x.Name) {
			if aggs == nil {
				return Null, fmt.Errorf("engine: aggregate %s outside grouped query", x.Name)
			}
			v, ok := aggs[x]
			if !ok {
				return Null, fmt.Errorf("engine: aggregate %s not accumulated", x.String())
			}
			return v, nil
		}
		return ev.evalScalarFunc(x, sc, aggs)

	case *sql.SubqueryExpr:
		ev.Stats.SubqueryRuns++
		res, err := ev.Run(x.Query, sc)
		if err != nil {
			return Null, err
		}
		if x.Exists {
			return BoolVal(len(res.Rows) > 0), nil
		}
		if len(res.Cols) != 1 {
			return Null, fmt.Errorf("engine: scalar subquery has %d columns", len(res.Cols))
		}
		switch len(res.Rows) {
		case 0:
			return Null, nil
		case 1:
			return res.Rows[0][0], nil
		default:
			return Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(res.Rows))
		}
	}
	return Null, fmt.Errorf("engine: unsupported expression %T", e)
}

// evalBool evaluates e where a boolean is wanted. AND and OR short-circuit,
// NOT negates, and the six comparisons are false when either side is NULL
// and compare's verdict otherwise, taken on the two numbers directly when
// both operands are numeric leaves (numLeaf); any other expression must
// evaluate to a boolean. clause, when not empty, names the WHERE or HAVING
// clause whose top-level expression e is, for the error a non-boolean value
// raises there.
func (ev *Evaluator) evalBool(e sql.Expr, sc *Scope, aggs aggEnv, clause string) (bool, error) {
	switch x := e.(type) {
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			b, err := ev.evalBool(x.X, sc, aggs, "")
			return !b && err == nil, err
		}
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, err := ev.evalBool(x.L, sc, aggs, "")
			if err != nil {
				return false, err
			}
			if l == (x.Op == "OR") { // AND stops at false, OR at true
				return l, nil
			}
			return ev.evalBool(x.R, sc, aggs, "")
		case "=", "<>", "<", "<=", ">", ">=":
			if l, ok := ev.numLeaf(x.L, sc); ok {
				if r, ok := ev.numLeaf(x.R, sc); ok {
					return l.Kind != KNull && r.Kind != KNull && holds(x.Op, l.cmp(r)), nil
				}
			}
			return ev.compareBoxed(x, sc, aggs)
		}
	}
	v, err := ev.eval(e, sc, aggs)
	if err != nil {
		return false, err
	}
	b, err := v.AsBool()
	if err != nil && clause != "" {
		return false, fmt.Errorf("engine: %s is not boolean: %w", clause, err)
	}
	return b, err
}

// compareBoxed evaluates comparison x through two Values and compare: the
// path of every comparison whose operands are not both numeric leaves.
func (ev *Evaluator) compareBoxed(x *sql.BinaryExpr, sc *Scope, aggs aggEnv) (bool, error) {
	l, err := ev.eval(x.L, sc, aggs)
	if err != nil {
		return false, err
	}
	r, err := ev.eval(x.R, sc, aggs)
	if err != nil || l.Kind == KNull || r.Kind == KNull {
		return false, err
	}
	c, err := compare(&l, &r)
	if err != nil {
		return false, err
	}
	return holds(x.Op, c), nil
}

// numLeaf reads e as a number without building a Value when e is a numeric
// leaf: a numeric literal, a parameter, or a column that resolved to a
// numeric column of a base table or to a numeric or NULL cell of a
// materialized relation. A leaf cannot fail, so when either operand of a
// comparison is not one, evaluating both again through compareBoxed
// changes nothing but the time taken.
func (ev *Evaluator) numLeaf(e sql.Expr, sc *Scope) (num, bool) {
	switch x := e.(type) {
	case *sql.NumberLit:
		if x.IsInt {
			return num{Kind: KInt, I: x.Int}, true
		}
		return num{Kind: KFloat, F: x.Value}, true
	case *sql.ColumnRef:
		r, err := sc.column(x)
		switch {
		case err != nil: // compareBoxed raises it
		case r == nil:
			if pv, ok := ev.Params[x.Name]; ok && x.Qualifier == "" {
				return numOf(&pv)
			}
		case r.fs != nil:
			return num{Kind: KFloat, F: r.fs[r.b.row]}, true
		case r.is != nil:
			return num{Kind: KInt, I: r.is[r.b.row]}, true
		case r.rs != nil:
			return numOf(&r.rs.Rows[r.b.row][r.col])
		}
	}
	return num{}, false
}

// numOf is numLeaf's reading of a Value: ints, floats and NULL are
// numeric leaves, strings and booleans are not.
func numOf(v *Value) (num, bool) {
	switch v.Kind {
	case KInt, KFloat, KNull:
		return num{v.Kind, v.I, v.F}, true
	}
	return num{}, false
}

func (ev *Evaluator) evalBinary(x *sql.BinaryExpr, sc *Scope, aggs aggEnv) (Value, error) {
	switch x.Op {
	case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
		b, err := ev.evalBool(x, sc, aggs, "")
		if err != nil {
			return Null, err
		}
		return BoolVal(b), nil
	}

	l, err := ev.eval(x.L, sc, aggs)
	if err != nil {
		return Null, err
	}
	r, err := ev.eval(x.R, sc, aggs)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		// Integer arithmetic stays integral except division.
		if l.Kind == KInt && r.Kind == KInt && x.Op != "/" {
			switch x.Op {
			case "+":
				return IntVal(l.I + r.I), nil
			case "-":
				return IntVal(l.I - r.I), nil
			case "*":
				return IntVal(l.I * r.I), nil
			}
		}
		lf, err := l.AsFloat()
		if err != nil {
			return Null, err
		}
		rf, err := r.AsFloat()
		if err != nil {
			return Null, err
		}
		switch x.Op {
		case "+":
			return FloatVal(lf + rf), nil
		case "-":
			return FloatVal(lf - rf), nil
		case "*":
			return FloatVal(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null, fmt.Errorf("engine: division by zero")
			}
			return FloatVal(lf / rf), nil
		}
	}
	return Null, fmt.Errorf("engine: unknown operator %q", x.Op)
}

func (ev *Evaluator) evalScalarFunc(x *sql.FuncCall, sc *Scope, aggs aggEnv) (Value, error) {
	var buf [2]float64 // holds the arguments of every function but LEAST / GREATEST
	args := buf[:0]
	for i, a := range x.Args {
		v, err := ev.eval(a, sc, aggs)
		if err != nil {
			return Null, err
		}
		f, err := v.AsFloat()
		if err != nil {
			return Null, fmt.Errorf("engine: %s argument %d: %w", x.Name, i, err)
		}
		args = append(args, f)
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "SQRT":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0] < 0 {
			return Null, fmt.Errorf("engine: SQRT of negative %v", args[0])
		}
		return FloatVal(math.Sqrt(args[0])), nil
	case "POWER", "POW":
		if err := need(2); err != nil {
			return Null, err
		}
		return FloatVal(math.Pow(args[0], args[1])), nil
	case "ABS":
		if err := need(1); err != nil {
			return Null, err
		}
		return FloatVal(math.Abs(args[0])), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return Null, err
		}
		return FloatVal(math.Floor(args[0])), nil
	case "CEIL", "CEILING":
		if err := need(1); err != nil {
			return Null, err
		}
		return FloatVal(math.Ceil(args[0])), nil
	case "LN":
		if err := need(1); err != nil {
			return Null, err
		}
		return FloatVal(math.Log(args[0])), nil
	case "EXP":
		if err := need(1); err != nil {
			return Null, err
		}
		return FloatVal(math.Exp(args[0])), nil
	case "LEAST":
		if len(args) == 0 {
			return Null, fmt.Errorf("engine: LEAST needs arguments")
		}
		m := args[0]
		for _, a := range args[1:] {
			m = math.Min(m, a)
		}
		return FloatVal(m), nil
	case "GREATEST":
		if len(args) == 0 {
			return Null, fmt.Errorf("engine: GREATEST needs arguments")
		}
		m := args[0]
		for _, a := range args[1:] {
			m = math.Max(m, a)
		}
		return FloatVal(m), nil
	}
	return Null, fmt.Errorf("engine: unknown function %s", x.Name)
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// collectAggregates gathers aggregate calls in e (not descending into
// subqueries, whose aggregates belong to their own group context).
func collectAggregates(e sql.Expr, out *[]*sql.FuncCall) {
	sql.WalkExpr(e, func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok && isAggregate(fc.Name) {
			*out = append(*out, fc)
		}
	})
}
