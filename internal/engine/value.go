// Package engine executes the SQL subset parsed by internal/sql over
// internal/dataset tables. The executor is deliberately naive — nested-loop
// joins, hash aggregation, full materialization — because the paper's
// premise (§1) is that a generic system evaluates these counting queries as
// nested loops, which is exactly the cost our sampling estimators avoid.
//
// The package also implements the §2 decomposition of a counting query (Q1)
// into an object-enumeration query (Q2) and a per-object predicate (Q3),
// which is how complex SQL becomes an instance of the C(O, q) problem.
package engine

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// ValueKind discriminates Value contents.
type ValueKind int

// Value kinds.
const (
	KNull ValueKind = iota
	KBool
	KInt
	KFloat
	KString
)

// Value is one SQL runtime value.
type Value struct {
	Kind ValueKind
	B    bool
	I    int64
	F    float64
	S    string
}

// Null, BoolVal, IntVal, FloatVal, StringVal construct values.
var Null = Value{Kind: KNull}

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{Kind: KBool, B: b} }

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{Kind: KInt, I: i} }

// FloatVal returns a float value.
func FloatVal(f float64) Value { return Value{Kind: KFloat, F: f} }

// StringVal returns a string value.
func StringVal(s string) Value { return Value{Kind: KString, S: s} }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KInt || v.Kind == KFloat }

// AsFloat coerces a numeric value to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KInt:
		return float64(v.I), nil
	case KFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("engine: value %s is not numeric", v)
	}
}

// AsBool returns the boolean content.
func (v Value) AsBool() (bool, error) {
	if v.Kind != KBool {
		return false, fmt.Errorf("engine: value %s is not boolean", v)
	}
	return v.B, nil
}

func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KString:
		return "'" + v.S + "'"
	}
	return "?"
}

// key returns a string usable as a hash key for grouping / DISTINCT.
func (v Value) key() string { return string(v.appendKey(nil)) }

// appendKey appends v's key to dst.
func (v Value) appendKey(dst []byte) []byte {
	switch v.Kind {
	case KNull:
		return append(dst, 'n')
	case KBool:
		if v.B {
			return append(dst, "bt"...)
		}
		return append(dst, "bf"...)
	case KInt:
		return strconv.AppendInt(append(dst, 'i'), v.I, 10)
	case KFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 keys as 0: the two zeros are one value under = and one key
		}
		return strconv.AppendFloat(append(dst, 'f'), f, 'g', -1, 64)
	case KString:
		return append(append(dst, 's'), v.S...)
	}
	return append(dst, '?')
}

// rowKey encodes a tuple of values for hashing.
func rowKey(vals []Value) string { return string(appendRowKey(nil, vals)) }

// appendRowKey appends rowKey(vals) to dst: each value's key, prefixed by
// its length and a colon.
func appendRowKey(dst []byte, vals []Value) []byte {
	var buf [32]byte
	for _, v := range vals {
		k := v.appendKey(buf[:0])
		dst = append(strconv.AppendInt(dst, int64(len(k)), 10), ':')
		dst = append(dst, k...)
	}
	return dst
}

// compare returns -1, 0, +1 for a < b, a == b, a > b. Numerics compare
// numerically (num.cmp: int with int exactly as int64, any other pair
// through float64, NaN equal to everything); strings lexicographically;
// booleans with false < true. Mixed incomparable kinds yield an error.
//
// evalBool compares two numeric leaves (columns, literals, parameters)
// through num.cmp without building either Value; every other comparison
// comes here. TestDirectComparisonMatchesBoxed holds the two paths together
// and TestExactIntComparison pins the int rule in both evaluators.
func compare(a, b *Value) (int, error) {
	if a.IsNumeric() && b.IsNumeric() {
		return num{a.Kind, a.I, a.F}.cmp(num{b.Kind, b.I, b.F}), nil
	}
	if a.Kind == KString && b.Kind == KString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.Kind == KBool && b.Kind == KBool {
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("engine: cannot compare %s with %s", *a, *b)
}

// num is a numeric operand read without building a Value: Kind is KInt,
// KFloat or KNull, and I or F holds the number.
type num struct {
	Kind ValueKind
	I    int64
	F    float64
}

// cmp is compare's order on two numbers: ints compare with ints exactly,
// so distinct int64 keys beyond 2^53 stay distinct, and any other pair
// compares through float64, where NaN is equal to everything.
func (a num) cmp(b num) int {
	if a.Kind == KInt && b.Kind == KInt {
		return cmp.Compare(a.I, b.I)
	}
	af, bf := a.F, b.F
	if a.Kind == KInt {
		af = float64(a.I)
	}
	if b.Kind == KInt {
		bf = float64(b.I)
	}
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Holds reports whether comparison op (=, <>, <, <=, > or >=) accepts the
// verdict c of a three-way comparison.
func Holds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}
