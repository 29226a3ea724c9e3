package engine

import (
	"errors"
	"fmt"

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
		if r.b != nil {
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
		if _, agg := Aggregate(x.Name); agg {
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
					return l.Kind != KNull && r.Kind != KNull && Holds(x.Op, l.cmp(r)), nil
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
	return Holds(x.Op, c), nil
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
		case r.b == nil:
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
	op := ArithOp(x.Op)
	if op == nil {
		return Null, fmt.Errorf("engine: unknown operator %q", x.Op)
	}
	if op.Kind(l.Kind, r.Kind) == KInt {
		return IntVal(op.Int(l.I, r.I)), nil
	}
	lf, err := l.AsFloat()
	if err != nil {
		return Null, err
	}
	rf, err := r.AsFloat()
	if err != nil {
		return Null, err
	}
	return floatOrFault(op.Float(lf, rf))
}

// floatOrFault is a float kernel's result as the interpreter returns it.
func floatOrFault(f float64, fault string) (Value, error) {
	if fault != "" {
		return Null, errors.New("engine: " + fault)
	}
	return FloatVal(f), nil
}

// evalScalarFunc reads every argument as a float64, in order, and applies
// the function's kernel: a fixed-arity function's to its arguments, a
// variadic one's folded over them.
func (ev *Evaluator) evalScalarFunc(x *sql.FuncCall, sc *Scope, aggs aggEnv) (Value, error) {
	fn := ScalarFunc(x.Name)
	var args [2]float64 // a fixed-arity function's arguments; a variadic one's fold in args[0]
	fault := ""
	for i, a := range x.Args {
		v, err := ev.eval(a, sc, aggs)
		if err != nil {
			return Null, err
		}
		f, err := v.AsFloat()
		if err != nil {
			return Null, fmt.Errorf("engine: %s argument %d: %w", x.Name, i, err)
		}
		switch {
		case i == 0 || fn != nil && i < fn.Arity:
			args[i] = f
		case fn != nil && fn.Arity == 0 && fault == "":
			args[0], fault = fn.Binary(args[0], f)
		}
	}
	if fn == nil {
		return Null, fmt.Errorf("engine: unknown function %s", x.Name)
	}
	if msg := fn.ArityFault(x.Name, len(x.Args)); msg != "" {
		return Null, errors.New("engine: " + msg)
	}
	switch fn.Arity {
	case 1:
		return floatOrFault(fn.Unary(args[0]))
	case 2:
		return floatOrFault(fn.Binary(args[0], args[1]))
	}
	return floatOrFault(args[0], fault)
}

// AppendAggregates appends the aggregate calls in e to out, in the order
// both evaluators number their accumulators (not descending into
// subqueries, whose aggregates belong to their own group context).
func AppendAggregates(out []*sql.FuncCall, e sql.Expr) []*sql.FuncCall {
	sql.WalkExpr(e, func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok {
			if _, agg := Aggregate(fc.Name); agg {
				out = append(out, fc)
			}
		}
	})
	return out
}
