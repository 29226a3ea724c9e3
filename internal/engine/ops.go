package engine

import (
	"fmt"
	"math"

	"repro/internal/sql"
)

// The leaf semantics of the SQL subset live here once: each arithmetic
// operator's and scalar function's arity, result kind and typed kernels,
// and the aggregate accumulator. The interpreter applies a kernel to the
// numbers it reads out of its Values; qcompile looks the kernel up at
// lowering time and closes over it, and its refusals read the same arities
// and result kinds. A kernel that can fail returns a fault message, "" when
// there is none, and each evaluator raises it its own way. ops_test.go is
// the reference: every kernel against Go's math and exact int64 arithmetic
// on the hard values.

// Arith is one binary arithmetic operator. Int is its kernel on two ints,
// which wraps like Go's int64 arithmetic; Float is its kernel on any other
// pair of numbers, each read as a float64. An operator without an Int
// kernel (/) yields a float on every pair.
type Arith struct {
	Int   func(a, b int64) int64
	Float func(a, b float64) (float64, string)
}

// Kind is the operator's result kind on operands of kinds l and r, which
// must be numeric.
func (op *Arith) Kind(l, r ValueKind) ValueKind {
	if l == KInt && r == KInt && op.Int != nil {
		return KInt
	}
	return KFloat
}

var (
	opAdd = Arith{Int: func(a, b int64) int64 { return a + b }, Float: func(a, b float64) (float64, string) { return a + b, "" }}
	opSub = Arith{Int: func(a, b int64) int64 { return a - b }, Float: func(a, b float64) (float64, string) { return a - b, "" }}
	opMul = Arith{Int: func(a, b int64) int64 { return a * b }, Float: func(a, b float64) (float64, string) { return a * b, "" }}
	opDiv = Arith{Float: func(a, b float64) (float64, string) {
		if b == 0 {
			return 0, "division by zero"
		}
		return a / b, ""
	}}
)

// ArithOp returns the arithmetic operator op, or nil when op is none. The
// interpreter looks an operator up on every row, so this is a switch, not a
// map.
func ArithOp(op string) *Arith {
	switch op {
	case "+":
		return &opAdd
	case "-":
		return &opSub
	case "*":
		return &opMul
	case "/":
		return &opDiv
	}
	return nil
}

// Func is one scalar function: every argument reads as a float64 and the
// result is a float. A function of Arity 1 has a Unary kernel and one of
// Arity 2 a Binary one; a function of Arity 0 (LEAST, GREATEST) takes one
// argument or more and folds Binary over them from the left.
type Func struct {
	Arity  int
	Unary  func(x float64) (float64, string)
	Binary func(x, y float64) (float64, string)
}

// ArityFault is the message for a call of the function, named name, with n
// arguments, or "" when it takes n.
func (fn *Func) ArityFault(name string, n int) string {
	switch {
	case fn.Arity == 0 && n == 0:
		return name + " needs arguments"
	case fn.Arity != 0 && n != fn.Arity:
		return fmt.Sprintf("%s expects %d arguments, got %d", name, fn.Arity, n)
	}
	return ""
}

// total makes a unary function whose kernel cannot fail, and fold a
// variadic one folding a binary kernel that cannot fail.
func total(f func(float64) float64) *Func {
	return &Func{Arity: 1, Unary: func(x float64) (float64, string) { return f(x), "" }}
}

func fold(f func(x, y float64) float64) *Func {
	return &Func{Binary: func(x, y float64) (float64, string) { return f(x, y), "" }}
}

var (
	fnSqrt = &Func{Arity: 1, Unary: func(x float64) (float64, string) {
		if x < 0 {
			return 0, fmt.Sprintf("SQRT of negative %v", x)
		}
		return math.Sqrt(x), ""
	}}
	fnPower                = &Func{Arity: 2, Binary: func(x, y float64) (float64, string) { return math.Pow(x, y), "" }}
	fnAbs, fnFloor, fnCeil = total(math.Abs), total(math.Floor), total(math.Ceil)
	fnLn, fnExp            = total(math.Log), total(math.Exp)
	fnLeast, fnGreatest    = fold(math.Min), fold(math.Max)
)

// ScalarFunc returns the scalar function name, or nil when name is none;
// like ArithOp, a switch.
func ScalarFunc(name string) *Func {
	switch name {
	case "SQRT":
		return fnSqrt
	case "POWER", "POW":
		return fnPower
	case "ABS":
		return fnAbs
	case "FLOOR":
		return fnFloor
	case "CEIL", "CEILING":
		return fnCeil
	case "LN":
		return fnLn
	case "EXP":
		return fnExp
	case "LEAST":
		return fnLeast
	case "GREATEST":
		return fnGreatest
	}
	return nil
}

// Agg is an aggregate function.
type Agg uint8

// The aggregate functions.
const (
	AggCount Agg = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// Aggregate returns the aggregate function name, and false when name is
// none.
func Aggregate(name string) (Agg, bool) {
	switch name {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	}
	return 0, false
}

// Kind is the aggregate's result kind over arguments of kind arg, which are
// all of that kind (KInt for COUNT(*)), and false when such arguments fail:
// SUM and AVG add numbers only.
func (a Agg) Kind(arg ValueKind) (ValueKind, bool) {
	switch a {
	case AggCount:
		return KInt, true
	case AggSum, AggAvg:
		if arg != KInt && arg != KFloat {
			return arg, false
		}
		if a == AggAvg {
			return KFloat, true
		}
	}
	return arg, true
}

// Accumulator is one aggregate call's running state over one group, and the
// one both evaluators drive. COUNT(*) counts rows (Row); every other call
// adds its argument (Add), where NULL adds nothing. SUM of ints sums in
// int64 and wraps like +; once a float is added, SUM is the float64 sum of
// every argument in row order, the running sum AVG always divides.
type Accumulator struct {
	fn       Agg
	n        int64 // rows, or non-NULL arguments added
	sumI     int64
	sumF     float64
	float    bool            // a float was added: SUM is sumF
	ext      Value           // MIN or MAX so far
	distinct map[string]bool // the keys added, for a DISTINCT call
}

// NewAccumulator returns the empty accumulator of the aggregate call fc.
func NewAccumulator(fc *sql.FuncCall) Accumulator {
	fn, _ := Aggregate(fc.Name)
	a := Accumulator{fn: fn}
	if fc.Distinct {
		a.distinct = make(map[string]bool)
	}
	return a
}

// Row counts one row for COUNT(*).
func (a *Accumulator) Row() { a.n++ }

// Add adds one argument. It fails when SUM or AVG meets a value that is not
// a number, or MIN or MAX one that does not compare with the extreme so far.
func (a *Accumulator) Add(v Value) error {
	if v.Kind == KNull {
		return nil
	}
	if a.distinct != nil {
		k := v.key()
		if a.distinct[k] {
			return nil
		}
		a.distinct[k] = true
	}
	switch {
	case a.fn == AggMin || a.fn == AggMax:
		a.n++
		if a.n > 1 {
			c, err := compare(&v, &a.ext)
			if err != nil || !(a.fn == AggMin && c < 0 || a.fn == AggMax && c > 0) {
				return err
			}
		}
		a.ext = v
	case v.Kind == KInt:
		a.AddInt(v.I)
	case v.Kind == KFloat:
		a.AddFloat(v.F)
	case a.fn == AggCount:
		a.n++
	default:
		_, err := v.AsFloat()
		return err
	}
	return nil
}

// AddInt and AddFloat are Add of a number to a COUNT, SUM or AVG call
// without DISTINCT, for an evaluator that knows its argument's kind.
func (a *Accumulator) AddInt(v int64) {
	a.n++
	a.sumI += v
	a.sumF += float64(v)
}

func (a *Accumulator) AddFloat(v float64) {
	a.n++
	a.sumF += v
	a.float = true
}

// Result is the aggregate's value over what was added: NULL for SUM, AVG,
// MIN and MAX of nothing.
func (a *Accumulator) Result() Value {
	switch a.fn {
	case AggCount:
		return IntVal(a.n)
	case AggSum:
		switch {
		case a.n == 0:
			return Null
		case a.float:
			return FloatVal(a.sumF)
		}
		return IntVal(a.sumI)
	case AggAvg:
		if a.n == 0 {
			return Null
		}
		return FloatVal(a.sumF / float64(a.n))
	}
	return a.ext
}
