package qcompile

import (
	"cmp"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// kind is the static type of a lowered expression: one of the four kinds
// below, named as the engine names them so the kernel table's result kinds
// read directly. The compilable subset is null-free (base columns, literals,
// and parameters cannot be NULL, and the single group HAVING sees is never
// empty), which is what makes static typing sound.
type kind = engine.ValueKind

const (
	kBool  = engine.KBool
	kInt   = engine.KInt
	kFloat = engine.KFloat
	kStr   = engine.KString
)

// env is the per-evaluation scratch: one current row per FROM alias, the
// representative-row snapshot HAVING reads non-aggregate references from,
// the aggregate accumulators, and the current object index. Each evaluation
// function owns its env, so a batch of goroutines can evaluate disjoint
// objects without sharing state.
type env struct {
	rows    []int
	reps    []int
	obj     int
	accs    []engine.Accumulator
	count   int64
	stopped bool // the walk stopped early: count settled the comparison with thr
	rep     bool
	thr     float64
	useThr  bool
}

type signal int

const (
	sigNone  signal = iota
	sigTrue         // EXISTS decided true
	sigFalse        // EXISTS decided false
)

// objColumn is one prefetched object column in a uniform kind.
type objColumn struct {
	k  kind
	fs []float64
	is []int64
	ss []string
}

// aliasRT is the runtime form of an aliasPlan: row count, probe lookup, and
// lowered filters.
type aliasRT struct {
	n       int
	probe   func(*env) []int32
	filters []func(*env) bool
}

// Bound is a Program specialized to bound parameter values and one
// materialized object set. It is immutable; NewEvalFn hands out evaluation
// closures with private scratch, so distinct closures may run concurrently.
type Bound struct {
	aliases  []aliasRT
	pre      []func(*env) bool
	accs     []engine.Accumulator // every aggregate slot empty
	accums   []func(*env)
	havingFn func(*env) bool
	short    shortKind
	countOp  string
	thrFn    func(*env) float64
	nAliases int
}

// lowerCtx carries what expression lowering needs: the program (for
// resolution), bound parameters, prefetched object columns, and — when
// lowering HAVING — the aggregate slot of each collected aggregate call.
type lowerCtx struct {
	prog   *Program
	params map[string]engine.Value
	obj    map[string]*objColumn
	slots  map[*sql.FuncCall]aggSlot
}

// aggSlot is a HAVING aggregate call's accumulator and result kind.
type aggSlot struct {
	i int
	k kind
}

// Bind specializes the program: parameters are bound, the referenced object
// columns are prefetched into typed arrays, and every expression lowers to
// a monomorphic closure. Bind errors mean this execution cannot take the
// compiled path (an unresolvable parameter, a type mismatch the interpreter
// would also reject); callers fall back to the interpreter, which surfaces
// the equivalent error to the user.
func (p *Program) Bind(params map[string]engine.Value, objects *engine.ResultSet) (*Bound, error) {
	lc := &lowerCtx{prog: p, params: params, obj: make(map[string]*objColumn, len(p.objCols))}
	for _, name := range p.objCols {
		oc, err := prefetchObjCol(objects, name)
		if err != nil {
			return nil, err
		}
		lc.obj[name] = oc
	}

	b := &Bound{short: p.short, countOp: p.countOp, nAliases: len(p.aliases)}
	for _, c := range p.pre {
		fn, err := lc.lowerBool(c)
		if err != nil {
			return nil, err
		}
		b.pre = append(b.pre, fn)
	}
	for ai := range p.aliases {
		ap := &p.aliases[ai]
		rt := aliasRT{n: ap.tab.NumRows()}
		if ap.probe != nil {
			fn, err := lc.lowerProbe(ap.probe)
			if err != nil {
				return nil, err
			}
			rt.probe = fn
		}
		for _, f := range ap.filters {
			fn, err := lc.lowerBool(f)
			if err != nil {
				return nil, err
			}
			rt.filters = append(rt.filters, fn)
		}
		b.aliases = append(b.aliases, rt)
	}

	if p.having != nil {
		lc.slots = make(map[*sql.FuncCall]aggSlot, len(p.aggs))
		for si, fc := range p.aggs {
			fn, k, err := lc.lowerAccum(si, fc)
			if err != nil {
				return nil, err
			}
			lc.slots[fc] = aggSlot{si, k}
			b.accs = append(b.accs, engine.NewAccumulator(fc))
			b.accums = append(b.accums, fn)
		}
		fn, err := lc.lowerBool(p.having)
		if err != nil {
			return nil, err
		}
		b.havingFn = fn
		if p.short == shortCount {
			thr, err := lc.lower(p.threshold)
			if err != nil {
				return nil, err
			}
			if thr.k != kInt && thr.k != kFloat {
				// The generic HAVING path would reject this too; let it.
				b.short = shortNone
			} else {
				b.thrFn = thr.toFloat()
			}
		}
	}
	return b, nil
}

// NewEvalFn returns a fresh evaluation closure with private scratch. The
// closure is not safe for concurrent use with itself; create one per
// goroutine.
func (b *Bound) NewEvalFn() func(i int) bool {
	e := b.newEnv()
	return func(i int) bool { return b.eval(i, e) }
}

// NewCountFn returns a fresh count-reporting evaluation closure, for a
// program whose HAVING is COUNT(*) <op> threshold (Program.CountParam): for
// object i, n is how many joined rows of its group the evaluation counted,
// and exact whether that is all of them — false when the n-th row settled
// the comparison with the threshold and the walk stopped there, so the group
// has at least n rows. An object with no joined row (an empty relation, a
// false per-object conjunct) counts 0, exactly. CountSettles turns what a
// closure reports into the label at any threshold it settles. Like
// NewEvalFn's, the closure is not safe for concurrent use with itself.
func (b *Bound) NewCountFn() func(i int) (n int64, exact bool) {
	e := b.newEnv()
	return func(i int) (int64, bool) {
		b.eval(i, e)
		return e.count, !e.stopped
	}
}

func (b *Bound) newEnv() *env {
	return &env{
		rows: make([]int, b.nAliases),
		reps: make([]int, b.nAliases),
		accs: make([]engine.Accumulator, len(b.accs)),
	}
}

// CountSettles decides HAVING COUNT(*) <op> t (op with the count on the
// left, t not NaN) for an object of which a count-reporting evaluation
// learned n: its group's row count when exact, a lower bound when that
// evaluation stopped early. It settles t when the evaluation at t would walk
// no further than that one did. An exact n settles every t: t's walk is a
// prefix of the complete one, and its label is n ≥ 1 ∧ n <op> t, because
// EXISTS over no group is false. An early stop at n settles t when t's own
// walk stops by the n-th row — for < and >= once n ≥ t, for the other four
// once n > t — and every count from there on gives the one label: false for
// <, <= and =, true for >, >= and <>. So a settled label is the label, and
// any fault, of the evaluation at t itself; settled is false otherwise, and
// label is then meaningless.
func CountSettles(op string, t float64, n int64, exact bool) (label, settled bool) {
	c := float64(n)
	if exact {
		return n >= 1 && engine.Holds(op, cmp.Compare(c, t)), true
	}
	switch op {
	case "<", ">=":
		return op == ">=", c >= t
	case "<=", "=":
		return false, c > t
	case ">", "<>":
		return true, c > t
	}
	return false, false
}

// VecEval and NewVecEval are a shim nothing in the program calls: the
// ledger's qcompile.vec_ns_per_eval.* probe (bench/probes.go) still names
// them, and a PR that changes program code may not edit bench/. What is
// left is a batch loop over NewEvalFn, so that row now times the same loop
// as scalar_ns_per_eval.*; the next benchmark PR drops the row and this shim
// together.
type VecEval struct{ f func(int) bool }

func (b *Bound) NewVecEval() VecEval { return VecEval{b.NewEvalFn()} }

func (v VecEval) EvalBatch(idxs []int, out []bool) {
	for j, i := range idxs {
		out[j] = v.f(i)
	}
}

func (b *Bound) eval(i int, e *env) bool {
	e.obj = i
	e.count, e.stopped = 0, false
	// Any empty relation means no complete rows: EXISTS is false before any
	// WHERE conjunct is evaluated (matching the interpreter, which never
	// reaches WHERE without a complete row).
	for a := range b.aliases {
		if b.aliases[a].n == 0 {
			return false
		}
	}
	for _, f := range b.pre {
		if !f(e) {
			return false
		}
	}
	e.rep = false
	copy(e.accs, b.accs)
	e.useThr = false
	if b.short == shortCount && b.thrFn != nil {
		e.thr = b.thrFn(e)
		e.useThr = !math.IsNaN(e.thr) // NaN compares equal to everything; no abort
	}
	if s := b.walk(0, e); s != sigNone {
		e.stopped = true
		return s == sigTrue
	}
	if b.havingFn == nil {
		return false // no witnessing row was found
	}
	if e.count == 0 {
		return false // empty group set: EXISTS over zero groups
	}
	copy(e.rows, e.reps)
	return b.havingFn(e)
}

func (b *Bound) walk(d int, e *env) signal {
	ap := &b.aliases[d]
	if ap.probe != nil {
		for _, r := range ap.probe(e) {
			if s := b.visit(d, int(r), e); s != sigNone {
				return s
			}
		}
		return sigNone
	}
	for r := 0; r < ap.n; r++ {
		if s := b.visit(d, r, e); s != sigNone {
			return s
		}
	}
	return sigNone
}

func (b *Bound) visit(d, r int, e *env) signal {
	e.rows[d] = r
	ap := &b.aliases[d]
	for _, f := range ap.filters {
		if !f(e) {
			return sigNone
		}
	}
	if d == b.nAliases-1 {
		return b.onRow(e)
	}
	return b.walk(d+1, e)
}

// onRow handles one WHERE-passing full row: the no-HAVING short-circuit,
// the representative-row snapshot, aggregate accumulation, and the monotone
// COUNT(*) abort.
func (b *Bound) onRow(e *env) signal {
	if b.havingFn == nil {
		return sigTrue
	}
	if !e.rep {
		copy(e.reps, e.rows)
		e.rep = true
	}
	e.count++
	for _, fn := range b.accums {
		fn(e)
	}
	if e.useThr {
		// The count only grows, so once it settles the comparison with the
		// threshold no later row can unsettle it: CountSettles' early-stop
		// rule (NaN thresholds were excluded above).
		if label, settled := CountSettles(b.countOp, e.thr, e.count, false); settled {
			if label {
				return sigTrue
			}
			return sigFalse
		}
	}
	return sigNone
}

// --- typed expression lowering ---

// cexpr is a lowered expression: a static kind plus the one non-nil closure
// of that kind.
type cexpr struct {
	k kind
	b func(*env) bool
	i func(*env) int64
	f func(*env) float64
	s func(*env) string
}

func (c cexpr) toFloat() func(*env) float64 {
	if c.k == kFloat {
		return c.f
	}
	fi := c.i
	return func(e *env) float64 { return float64(fi(e)) }
}

func (lc *lowerCtx) lowerBool(e sql.Expr) (func(*env) bool, error) {
	ce, err := lc.lower(e)
	if err != nil {
		return nil, err
	}
	if ce.k != kBool {
		return nil, unsupportedf("expression %s is not boolean", e.String())
	}
	return ce.b, nil
}

func (lc *lowerCtx) lower(e sql.Expr) (cexpr, error) {
	switch x := e.(type) {
	case *sql.NumberLit:
		if x.IsInt {
			v := x.Int
			return cexpr{k: kInt, i: func(*env) int64 { return v }}, nil
		}
		v := x.Value
		return cexpr{k: kFloat, f: func(*env) float64 { return v }}, nil

	case *sql.StringLit:
		v := x.Value
		return cexpr{k: kStr, s: func(*env) string { return v }}, nil

	case *sql.ColumnRef:
		return lc.lowerColumn(x)

	case *sql.UnaryExpr:
		ce, err := lc.lower(x.X)
		if err != nil {
			return cexpr{}, err
		}
		switch x.Op {
		case "NOT":
			if ce.k != kBool {
				return cexpr{}, unsupportedf("NOT of non-boolean %s", x.X.String())
			}
			fb := ce.b
			return cexpr{k: kBool, b: func(e *env) bool { return !fb(e) }}, nil
		case "-":
			switch ce.k {
			case kInt:
				fi := ce.i
				return cexpr{k: kInt, i: func(e *env) int64 { return -fi(e) }}, nil
			case kFloat:
				ff := ce.f
				return cexpr{k: kFloat, f: func(e *env) float64 { return -ff(e) }}, nil
			}
			return cexpr{}, unsupportedf("negation of non-numeric %s", x.X.String())
		}
		return cexpr{}, unsupportedf("unary operator %q", x.Op)

	case *sql.BinaryExpr:
		return lc.lowerBinary(x)

	case *sql.FuncCall:
		if _, agg := engine.Aggregate(x.Name); agg {
			return lc.lowerAggRef(x)
		}
		return lc.lowerScalarFunc(x)
	}
	return cexpr{}, unsupportedf("unsupported expression %T", e)
}

func (lc *lowerCtx) lowerColumn(cr *sql.ColumnRef) (cexpr, error) {
	ref, err := lc.prog.resolve(cr)
	if err != nil {
		return cexpr{}, err
	}
	switch ref.kind {
	case refTable:
		d := ref.depth
		tab := lc.prog.aliases[d].tab
		switch tab.Schema()[ref.col].Kind {
		case dataset.Float:
			xs := tab.FloatsAt(ref.col)
			return cexpr{k: kFloat, f: func(e *env) float64 { return xs[e.rows[d]] }}, nil
		case dataset.Int:
			xs := tab.IntsAt(ref.col)
			return cexpr{k: kInt, i: func(e *env) int64 { return xs[e.rows[d]] }}, nil
		default:
			xs := tab.StringsAt(ref.col)
			return cexpr{k: kStr, s: func(e *env) string { return xs[e.rows[d]] }}, nil
		}
	case refObject:
		oc := lc.obj[ref.name]
		if oc == nil {
			return cexpr{}, unsupportedf("object column %q not prefetched", ref.name)
		}
		switch oc.k {
		case kFloat:
			xs := oc.fs
			return cexpr{k: kFloat, f: func(e *env) float64 { return xs[e.obj] }}, nil
		case kInt:
			xs := oc.is
			return cexpr{k: kInt, i: func(e *env) int64 { return xs[e.obj] }}, nil
		default:
			xs := oc.ss
			return cexpr{k: kStr, s: func(e *env) string { return xs[e.obj] }}, nil
		}
	default: // refParam
		v, ok := lc.params[ref.name]
		if !ok {
			return cexpr{}, unsupportedf("unresolved identifier %q (not a column or bound parameter)", ref.name)
		}
		switch v.Kind {
		case engine.KInt:
			c := v.I
			return cexpr{k: kInt, i: func(*env) int64 { return c }}, nil
		case engine.KFloat:
			c := v.F
			return cexpr{k: kFloat, f: func(*env) float64 { return c }}, nil
		case engine.KString:
			c := v.S
			return cexpr{k: kStr, s: func(*env) string { return c }}, nil
		default:
			return cexpr{}, unsupportedf("parameter %q has unsupported kind", ref.name)
		}
	}
}

func (lc *lowerCtx) lowerBinary(x *sql.BinaryExpr) (cexpr, error) {
	if x.Op == "AND" || x.Op == "OR" {
		lb, err := lc.lowerBool(x.L)
		if err != nil {
			return cexpr{}, err
		}
		rb, err := lc.lowerBool(x.R)
		if err != nil {
			return cexpr{}, err
		}
		if x.Op == "AND" {
			return cexpr{k: kBool, b: func(e *env) bool { return lb(e) && rb(e) }}, nil
		}
		return cexpr{k: kBool, b: func(e *env) bool { return lb(e) || rb(e) }}, nil
	}

	l, err := lc.lower(x.L)
	if err != nil {
		return cexpr{}, err
	}
	r, err := lc.lower(x.R)
	if err != nil {
		return cexpr{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return lowerCompare(x.Op, l, r, x)
	case "+", "-", "*", "/":
		return lowerArith(x.Op, l, r, x)
	}
	return cexpr{}, unsupportedf("operator %q", x.Op)
}

func numeric(k kind) bool { return k == kInt || k == kFloat }

// lowerCompare lowers comparisons with the interpreter's exact semantics:
// ints compare with ints as int64, so keys beyond 2^53 stay distinct; any
// other numeric pair compares through float64, and the derived forms
// !(l>r) / !(l<r) reproduce compare's treatment of NaN as equal to
// everything.
func lowerCompare(op string, l, r cexpr, src *sql.BinaryExpr) (cexpr, error) {
	switch {
	case l.k == kInt && r.k == kInt:
		return cexpr{k: kBool, b: ordered(op, l.i, r.i)}, nil
	case numeric(l.k) && numeric(r.k):
		lf, rf := l.toFloat(), r.toFloat()
		var fn func(*env) bool
		switch op {
		case "=":
			fn = func(e *env) bool { a, b := lf(e), rf(e); return !(a < b) && !(a > b) }
		case "<>":
			fn = func(e *env) bool { a, b := lf(e), rf(e); return a < b || a > b }
		case "<":
			fn = func(e *env) bool { return lf(e) < rf(e) }
		case "<=":
			fn = func(e *env) bool { return !(lf(e) > rf(e)) }
		case ">":
			fn = func(e *env) bool { return lf(e) > rf(e) }
		case ">=":
			fn = func(e *env) bool { return !(lf(e) < rf(e)) }
		}
		return cexpr{k: kBool, b: fn}, nil
	case l.k == kStr && r.k == kStr:
		return cexpr{k: kBool, b: ordered(op, l.s, r.s)}, nil
	case l.k == kBool && r.k == kBool: // false < true, as 0 < 1
		return cexpr{k: kBool, b: ordered(op, asInt(l.b), asInt(r.b))}, nil
	}
	return cexpr{}, unsupportedf("cannot compare %s", src.String())
}

// asInt reads a boolean as 0 or 1.
func asInt(f func(*env) bool) func(*env) int64 {
	return func(e *env) int64 {
		if f(e) {
			return 1
		}
		return 0
	}
}

// ordered lowers a comparison of two ints, which compare exactly, or of
// two strings.
func ordered[T int64 | string](op string, lf, rf func(*env) T) func(*env) bool {
	switch op {
	case "=":
		return func(e *env) bool { return lf(e) == rf(e) }
	case "<>":
		return func(e *env) bool { return lf(e) != rf(e) }
	case "<":
		return func(e *env) bool { return lf(e) < rf(e) }
	case "<=":
		return func(e *env) bool { return lf(e) <= rf(e) }
	case ">":
		return func(e *env) bool { return lf(e) > rf(e) }
	}
	return func(e *env) bool { return lf(e) >= rf(e) }
}

// lowerArith lowers arithmetic through the operator's kernel: int64 on two
// ints (wrapping like the interpreter's), float64 otherwise, where a
// kernel's fault (a zero divisor) panics as an engine.Fault exactly where
// the interpreter returns its error.
func lowerArith(op string, l, r cexpr, src *sql.BinaryExpr) (cexpr, error) {
	if !numeric(l.k) || !numeric(r.k) {
		return cexpr{}, unsupportedf("non-numeric arithmetic %s", src.String())
	}
	a := engine.ArithOp(op)
	if a.Kind(l.k, r.k) == kInt {
		k, li, ri := a.Int, l.i, r.i
		return cexpr{k: kInt, i: func(e *env) int64 { return k(li(e), ri(e)) }}, nil
	}
	k, lf, rf := a.Float, l.toFloat(), r.toFloat()
	return cexpr{k: kFloat, f: func(e *env) float64 { return check(k(lf(e), rf(e))) }}, nil
}

// check is a float kernel's result, its fault raised as an engine.Fault.
func check(f float64, fault string) float64 {
	if fault != "" {
		panic(&engine.Fault{Msg: "qcompile: " + fault})
	}
	return f
}

// lowerScalarFunc lowers a scalar function through its kernel; like the
// interpreter, every argument reads as a float64 and the result is a float.
func (lc *lowerCtx) lowerScalarFunc(x *sql.FuncCall) (cexpr, error) {
	if x.Star || x.Distinct {
		return cexpr{}, unsupportedf("malformed call %s", x.String())
	}
	args := make([]func(*env) float64, len(x.Args))
	for i, a := range x.Args {
		ce, err := lc.lower(a)
		if err != nil {
			return cexpr{}, err
		}
		if !numeric(ce.k) {
			return cexpr{}, unsupportedf("%s argument %d is not numeric", x.Name, i)
		}
		args[i] = ce.toFloat()
	}
	fn := engine.ScalarFunc(x.Name)
	if fn == nil {
		return cexpr{}, unsupportedf("unknown function %s", x.Name)
	}
	if msg := fn.ArityFault(x.Name, len(args)); msg != "" {
		return cexpr{}, unsupportedf("%s", msg)
	}
	var f func(*env) float64
	switch a := args[0]; fn.Arity {
	case 1:
		k := fn.Unary
		f = func(e *env) float64 { return check(k(a(e))) }
	case 2:
		k, b := fn.Binary, args[1]
		f = func(e *env) float64 { return check(k(a(e), b(e))) }
	default:
		k, rest := fn.Binary, args[1:]
		f = func(e *env) float64 {
			m := a(e)
			for _, b := range rest {
				m = check(k(m, b(e)))
			}
			return m
		}
	}
	return cexpr{k: kFloat, f: f}, nil
}

// lowerAggRef lowers a reference to an aggregate slot inside HAVING: the
// slot accumulator's result, in the kind lowerAccum found.
func (lc *lowerCtx) lowerAggRef(fc *sql.FuncCall) (cexpr, error) {
	s, ok := lc.slots[fc]
	if !ok {
		return cexpr{}, unsupportedf("aggregate %s outside HAVING", fc.String())
	}
	return unbox(s.k, func(e *env) engine.Value { return e.accs[s.i].Result() }), nil
}

// lowerAccum builds the per-row accumulation step for one aggregate slot
// and finds the aggregate's result kind, refusing an argument kind the
// interpreter's accumulator would fail on.
func (lc *lowerCtx) lowerAccum(slot int, fc *sql.FuncCall) (func(*env), kind, error) {
	fn, _ := engine.Aggregate(fc.Name)
	if fc.Star { // COUNT(*)
		return func(e *env) { e.accs[slot].Row() }, kInt, nil
	}
	ce, err := lc.lower(fc.Args[0])
	if err != nil {
		return nil, 0, err
	}
	k, ok := fn.Kind(ce.k)
	if !ok {
		return nil, 0, unsupportedf("%s of non-numeric argument", fc.Name)
	}
	// Every value is added, since the compilable subset is null-free, and
	// Add cannot fail on arguments of one kind that fn.Kind accepts. A
	// COUNT's argument is evaluated too: a division by zero must surface.
	switch {
	case fn == engine.AggMin || fn == engine.AggMax:
	case ce.k == kInt:
		f := ce.i
		return func(e *env) { e.accs[slot].AddInt(f(e)) }, k, nil
	case ce.k == kFloat:
		f := ce.f
		return func(e *env) { e.accs[slot].AddFloat(f(e)) }, k, nil
	}
	v := ce.value()
	return func(e *env) { _ = e.accs[slot].Add(v(e)) }, k, nil
}

// value boxes c's result as an engine.Value.
func (c cexpr) value() func(*env) engine.Value {
	switch c.k {
	case kBool:
		f := c.b
		return func(e *env) engine.Value { return engine.BoolVal(f(e)) }
	case kInt:
		f := c.i
		return func(e *env) engine.Value { return engine.IntVal(f(e)) }
	case kFloat:
		f := c.f
		return func(e *env) engine.Value { return engine.FloatVal(f(e)) }
	}
	f := c.s
	return func(e *env) engine.Value { return engine.StringVal(f(e)) }
}

// unbox reads v, whose results are all of kind k, as a lowered expression.
func unbox(k kind, v func(*env) engine.Value) cexpr {
	switch k {
	case kBool:
		return cexpr{k: k, b: func(e *env) bool { return v(e).B }}
	case kInt:
		return cexpr{k: k, i: func(e *env) int64 { return v(e).I }}
	case kFloat:
		return cexpr{k: k, f: func(e *env) float64 { return v(e).F }}
	}
	return cexpr{k: k, s: func(e *env) string { return v(e).S }}
}

// lowerProbe lowers a hash-index probe: the probe expression evaluates to
// the lookup key. A NaN probe value returns every row — under the
// interpreter's compare, NaN is equal to everything — and the equality
// conjunct the probe consumed needs no re-check because bucket membership
// is exactly compare-equality for non-NaN keys. An int column answers an
// int key from its exact index; a float key v equals the ints whose
// float64 is v, which below 2^53 in magnitude is int64(v) alone when v is
// integral and none otherwise, and beyond it the rows of pp.wide.
func (lc *lowerCtx) lowerProbe(pp *probePlan) (func(*env) []int32, error) {
	ce, err := lc.lower(pp.rhs)
	if err != nil {
		return nil, err
	}
	if pp.intIdx != nil {
		idx := pp.intIdx
		switch ce.k {
		case kInt:
			key := ce.i
			return func(e *env) []int32 { return idx[key(e)] }, nil
		case kFloat:
			key, wide, all := ce.f, pp.wide, pp.all
			return func(e *env) []int32 {
				switch v := key(e); {
				case math.IsNaN(v):
					return all
				case math.Abs(v) >= 1<<53:
					return wide[v]
				case v == math.Trunc(v):
					return idx[int64(v)]
				}
				return nil
			}, nil
		}
		return nil, unsupportedf("equality between numeric column and %s", pp.rhs.String())
	}
	if pp.numIdx != nil {
		if !numeric(ce.k) {
			return nil, unsupportedf("equality between numeric column and %s", pp.rhs.String())
		}
		key := ce.toFloat()
		idx, all := pp.numIdx, pp.all
		return func(e *env) []int32 {
			v := key(e)
			if math.IsNaN(v) {
				return all
			}
			return idx[v]
		}, nil
	}
	if ce.k != kStr {
		return nil, unsupportedf("equality between string column and %s", pp.rhs.String())
	}
	key := ce.s
	idx := pp.strIdx
	return func(e *env) []int32 { return idx[key(e)] }, nil
}

// prefetchObjCol extracts one object column into a typed array, verifying
// kind uniformity (Q2 outputs are table columns, so mixed kinds indicate a
// shape the compiler should not touch).
func prefetchObjCol(objects *engine.ResultSet, name string) (*objColumn, error) {
	ci := objects.ColIndex(name)
	if ci < 0 {
		return nil, unsupportedf("object set has no column %q", name)
	}
	n := objects.NumRows()
	oc := &objColumn{k: kFloat}
	if n == 0 {
		return oc, nil
	}
	switch oc.k = objects.Value(0, ci).Kind; oc.k {
	case kFloat:
		oc.fs = make([]float64, 0, n)
	case kInt:
		oc.is = make([]int64, 0, n)
	case kStr:
		oc.ss = make([]string, 0, n)
	default:
		return nil, unsupportedf("object column %q has unsupported kind", name)
	}
	for _, row := range objects.Rows {
		switch v := row[ci]; {
		case v.Kind != oc.k:
			return nil, unsupportedf("object column %q has mixed kinds", name)
		case v.Kind == kFloat:
			oc.fs = append(oc.fs, v.F)
		case v.Kind == kInt:
			oc.is = append(oc.is, v.I)
		default:
			oc.ss = append(oc.ss, v.S)
		}
	}
	return oc, nil
}
