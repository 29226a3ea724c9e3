package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sql"
)

// The hard values every kernel is pinned on: ints around ±2^53, where
// distinct ints share a float64, and at the ends of int64; floats at ±0,
// ±Inf, NaN, the ends of float64 and the same ±2^53 ± 1.
const big = 1 << 53

var (
	hardInts   = []int64{0, 1, -1, 2, big - 1, big, big + 1, -big + 1, -big, -big - 1, math.MaxInt64, math.MinInt64}
	hardFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, big - 1, big, big + 1, -big - 1,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
)

// sameFloat is bit-for-bit equality, but for NaN, which any NaN matches.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestArithKernels pins the four operators: + - * on two ints are Go's
// wrapping int64 arithmetic and stay ints, / always yields a float, every
// other pair is Go's float64 arithmetic, and only a zero divisor of / (+0
// or -0) faults.
func TestArithKernels(t *testing.T) {
	exact := map[string]func(a, b int64) int64{
		"+": func(a, b int64) int64 { return a + b },
		"-": func(a, b int64) int64 { return a - b },
		"*": func(a, b int64) int64 { return a * b },
	}
	float := map[string]func(a, b float64) float64{
		"+": func(a, b float64) float64 { return a + b },
		"-": func(a, b float64) float64 { return a - b },
		"*": func(a, b float64) float64 { return a * b },
		"/": func(a, b float64) float64 { return a / b },
	}
	for op, want := range float {
		k := ArithOp(op)
		if k == nil {
			t.Fatalf("%s: no kernel", op)
		}
		if ik, ok := exact[op]; ok != (k.Int != nil) {
			t.Fatalf("%s: int kernel present = %v, want %v", op, k.Int != nil, ok)
		} else if ok {
			for _, a := range hardInts {
				for _, b := range hardInts {
					if got := k.Int(a, b); got != ik(a, b) {
						t.Errorf("%d %s %d = %d, want %d", a, op, b, got, ik(a, b))
					}
				}
			}
		}
		wantKind := KFloat
		if op != "/" {
			wantKind = KInt
		}
		for _, kinds := range [][3]ValueKind{{KInt, KInt, wantKind}, {KInt, KFloat, KFloat}, {KFloat, KInt, KFloat}, {KFloat, KFloat, KFloat}} {
			if got := k.Kind(kinds[0], kinds[1]); got != kinds[2] {
				t.Errorf("%s on kinds %d, %d: kind %d, want %d", op, kinds[0], kinds[1], got, kinds[2])
			}
		}
		for _, a := range hardFloats {
			for _, b := range hardFloats {
				got, fault := k.Float(a, b)
				wantFault := ""
				if op == "/" && b == 0 {
					wantFault = "division by zero"
				}
				if fault != wantFault || fault == "" && !sameFloat(got, want(a, b)) {
					t.Errorf("%v %s %v = %v, %q; want %v, %q", a, op, b, got, fault, want(a, b), wantFault)
				}
			}
		}
	}
	// The rows the int rule exists for: exact past 2^53, wrapping at the ends.
	for _, c := range []struct {
		op      string
		a, b, w int64
	}{
		{"+", big, 1, big + 1}, {"-", -big, 1, -big - 1}, {"*", big + 1, 1, big + 1},
		{"+", math.MaxInt64, 1, math.MinInt64}, {"-", math.MinInt64, 1, math.MaxInt64}, {"*", math.MinInt64, -1, math.MinInt64},
	} {
		if got := ArithOp(c.op).Int(c.a, c.b); got != c.w {
			t.Errorf("%d %s %d = %d, want %d", c.a, c.op, c.b, got, c.w)
		}
	}
	if ArithOp("%") != nil || ArithOp("AND") != nil {
		t.Error("an operator outside + - * / has a kernel")
	}
}

// TestScalarFuncKernels pins the ten functions (twelve names) against Go's
// math on the hard values: only SQRT of a negative faults (not of -0 or
// NaN), and the arity rule and its messages.
func TestScalarFuncKernels(t *testing.T) {
	unary := map[string]func(float64) float64{
		"SQRT": math.Sqrt, "ABS": math.Abs, "FLOOR": math.Floor, "CEIL": math.Ceil, "CEILING": math.Ceil,
		"LN": math.Log, "EXP": math.Exp,
	}
	binary := map[string]func(x, y float64) float64{
		"POWER": math.Pow, "POW": math.Pow, "LEAST": math.Min, "GREATEST": math.Max,
	}
	for name, want := range unary {
		fn := ScalarFunc(name)
		if fn == nil || fn.Arity != 1 || fn.Unary == nil {
			t.Fatalf("%s: %+v, want a unary kernel", name, fn)
		}
		for _, x := range hardFloats {
			got, fault := fn.Unary(x)
			wantFault := ""
			if name == "SQRT" && x < 0 {
				wantFault = fmt.Sprintf("SQRT of negative %v", x)
			}
			if fault != wantFault || fault == "" && !sameFloat(got, want(x)) {
				t.Errorf("%s(%v) = %v, %q; want %v, %q", name, x, got, fault, want(x), wantFault)
			}
		}
	}
	for name, want := range binary {
		fn := ScalarFunc(name)
		if fn == nil || fn.Binary == nil {
			t.Fatalf("%s: %+v, want a binary kernel", name, fn)
		}
		for _, x := range hardFloats {
			for _, y := range hardFloats {
				if got, fault := fn.Binary(x, y); fault != "" || !sameFloat(got, want(x, y)) {
					t.Errorf("%s(%v, %v) = %v, %q; want %v", name, x, y, got, fault, want(x, y))
				}
			}
		}
	}
	if got, _ := ScalarFunc("SQRT").Unary(-1); got != 0 {
		t.Errorf("SQRT(-1) returned %v beside its fault", got)
	}
	for _, c := range []struct {
		name string
		n    int
		want string
	}{
		{"SQRT", 1, ""}, {"SQRT", 0, "SQRT expects 1 arguments, got 0"}, {"ABS", 2, "ABS expects 1 arguments, got 2"},
		{"POWER", 2, ""}, {"POW", 1, "POW expects 2 arguments, got 1"}, {"POWER", 3, "POWER expects 2 arguments, got 3"},
		{"LEAST", 1, ""}, {"LEAST", 5, ""}, {"LEAST", 0, "LEAST needs arguments"}, {"GREATEST", 0, "GREATEST needs arguments"},
	} {
		if got := ScalarFunc(c.name).ArityFault(c.name, c.n); got != c.want {
			t.Errorf("%s with %d arguments: %q, want %q", c.name, c.n, got, c.want)
		}
	}
	if ScalarFunc("COUNT") != nil || ScalarFunc("sqrt") != nil {
		t.Error("an aggregate or a lower-case name is a scalar function")
	}
}

// TestAccumulator pins the aggregates: SUM of ints exact and wrapping like
// +, SUM with a float and AVG through the float64 running sum, NULL adding
// nothing, MIN/MAX in compare's order (ints exactly, NaN never replacing),
// DISTINCT with -0 and 0 one key, the empty results, and the two errors.
func TestAccumulator(t *testing.T) {
	call := func(name string, distinct bool) *sql.FuncCall {
		return &sql.FuncCall{Name: name, Distinct: distinct, Args: []sql.Expr{&sql.ColumnRef{Name: "v"}}}
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name     string
		distinct bool
		add      []Value
		want     Value
	}{
		{"SUM", false, []Value{IntVal(big), IntVal(1)}, IntVal(big + 1)},
		{"SUM", false, []Value{IntVal(-big), Null, IntVal(-1)}, IntVal(-big - 1)},
		{"SUM", false, []Value{IntVal(math.MaxInt64), IntVal(1)}, IntVal(math.MinInt64)},
		{"SUM", false, []Value{IntVal(big), FloatVal(1), IntVal(1)}, FloatVal(float64(big) + 1 + 1)},
		{"SUM", false, []Value{IntVal(1), FloatVal(0.5)}, FloatVal(1.5)},
		{"SUM", false, []Value{Null}, Null},
		{"AVG", false, []Value{IntVal(big), IntVal(1)}, FloatVal((float64(big) + 1) / 2)},
		{"AVG", false, []Value{IntVal(1), Null, FloatVal(2)}, FloatVal(1.5)},
		{"AVG", false, nil, Null},
		{"COUNT", false, []Value{IntVal(1), Null, StringVal("a"), BoolVal(false)}, IntVal(3)},
		{"COUNT", false, nil, IntVal(0)},
		{"COUNT", true, []Value{FloatVal(0), FloatVal(negZero), IntVal(0), FloatVal(1)}, IntVal(3)},
		{"SUM", true, []Value{IntVal(2), IntVal(2), IntVal(3)}, IntVal(5)},
		{"MIN", false, []Value{IntVal(big + 1), IntVal(big), IntVal(big + 2)}, IntVal(big)},
		{"MAX", false, []Value{IntVal(big), IntVal(big + 1), FloatVal(big)}, IntVal(big + 1)},
		{"MAX", false, []Value{FloatVal(1), FloatVal(math.NaN()), FloatVal(2)}, FloatVal(2)},
		{"MIN", false, []Value{StringVal("b"), Null, StringVal("a")}, StringVal("a")},
		{"MAX", false, []Value{BoolVal(false), BoolVal(true)}, BoolVal(true)},
		{"MIN", false, nil, Null},
	} {
		a := NewAccumulator(call(c.name, c.distinct))
		for _, v := range c.add {
			if err := a.Add(v); err != nil {
				t.Fatalf("%s %v: %v", c.name, c.add, err)
			}
		}
		if got := a.Result(); got.Kind != c.want.Kind || got.I != c.want.I || !sameFloat(got.F, c.want.F) || got.S != c.want.S || got.B != c.want.B {
			t.Errorf("%s (distinct %v) of %v = %v, want %v", c.name, c.distinct, c.add, got, c.want)
		}
	}
	star := NewAccumulator(&sql.FuncCall{Name: "COUNT", Star: true})
	star.Row()
	star.Row()
	if got := star.Result(); got != IntVal(2) {
		t.Errorf("COUNT(*) of two rows = %v", got)
	}
	for _, c := range []struct {
		name string
		add  []Value
		want string
	}{
		{"SUM", []Value{IntVal(1), StringVal("a")}, "engine: value 'a' is not numeric"},
		{"AVG", []Value{BoolVal(true)}, "engine: value TRUE is not numeric"},
		{"MIN", []Value{IntVal(1), StringVal("a")}, "engine: cannot compare 'a' with 1"},
	} {
		a := NewAccumulator(call(c.name, false))
		var err error
		for _, v := range c.add {
			err = a.Add(v)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s of %v: error %v, want %q", c.name, c.add, err, c.want)
		}
	}
}

// TestAggregateKinds pins each aggregate's result kind, the table the
// compiled evaluator's refusals read.
func TestAggregateKinds(t *testing.T) {
	kinds := []ValueKind{KBool, KInt, KFloat, KString}
	want := map[string][4]ValueKind{ // per argument kind; KNull: the argument fails
		"COUNT": {KInt, KInt, KInt, KInt},
		"SUM":   {KNull, KInt, KFloat, KNull},
		"AVG":   {KNull, KFloat, KFloat, KNull},
		"MIN":   {KBool, KInt, KFloat, KString},
		"MAX":   {KBool, KInt, KFloat, KString},
	}
	for name, w := range want {
		agg, ok := Aggregate(name)
		if !ok {
			t.Fatalf("%s is not an aggregate", name)
		}
		for i, arg := range kinds {
			got, ok := agg.Kind(arg)
			if ok != (w[i] != KNull) || ok && got != w[i] {
				t.Errorf("%s of kind %d: %d, %v; want %d", name, arg, got, ok, w[i])
			}
		}
	}
	if _, ok := Aggregate("SQRT"); ok {
		t.Error("SQRT is an aggregate")
	}
}
