package qcompile

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// kind is the static type of a lowered expression. The compilable subset is
// null-free (base columns, literals, and parameters cannot be NULL, and the
// single group HAVING sees is never empty), which is what makes static
// typing sound.
type kind int

const (
	kBool kind = iota
	kInt
	kFloat
	kStr
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
	accs    []agg
	count   int64
	stopped bool // the walk stopped early: count settled the comparison with thr
	rep     bool
	thr     float64
	useThr  bool
}

// agg is one aggregate accumulator. Sums accumulate through float64 even
// for integer arguments — exactly as the interpreter's accumulator does —
// and min/max compare in the argument's own kind, as the interpreter's
// compare does (ints with ints exactly).
type agg struct {
	count int64
	sum   float64
	curI  int64
	curF  float64
	curS  string
	seen  bool
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
	accums   []func(*env)
	havingFn func(*env) bool
	short    shortKind
	countOp  string
	thrFn    func(*env) float64
	nAliases int
	nSlots   int
}

// lowerCtx carries what expression lowering needs: the program (for
// resolution), bound parameters, prefetched object columns, and — when
// lowering HAVING — the aggregate slot of each collected aggregate call.
type lowerCtx struct {
	prog   *Program
	params map[string]engine.Value
	obj    map[string]*objColumn
	slots  map[*sql.FuncCall]int
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

	b := &Bound{short: p.short, countOp: p.countOp, nAliases: len(p.aliases), nSlots: len(p.aggs)}
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
		lc.slots = make(map[*sql.FuncCall]int, len(p.aggs))
		for si, fc := range p.aggs {
			lc.slots[fc] = si
			fn, err := lc.lowerAccum(si, fc)
			if err != nil {
				return nil, err
			}
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
		accs: make([]agg, b.nSlots),
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
		return n >= 1 && compareCount(op, c, t), true
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

// compareCount is c <op> t for a non-NaN t.
func compareCount(op string, c, t float64) bool {
	switch op {
	case "<":
		return c < t
	case "<=":
		return c <= t
	case ">":
		return c > t
	case ">=":
		return c >= t
	case "=":
		return c == t
	case "<>":
		return c != t
	}
	return false
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
	for k := range e.accs {
		e.accs[k] = agg{}
	}
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
		c := float64(e.count)
		// The count only grows, so each comparison settles permanently in
		// one direction. Comparisons use the interpreter's compare order
		// (NaN thresholds were excluded above).
		switch b.countOp {
		case "<":
			if !(c < e.thr) {
				return sigFalse
			}
		case "<=":
			if c > e.thr {
				return sigFalse
			}
		case ">":
			if c > e.thr {
				return sigTrue
			}
		case ">=":
			if !(c < e.thr) {
				return sigTrue
			}
		case "=":
			if c > e.thr {
				return sigFalse
			}
		case "<>":
			if c > e.thr {
				return sigTrue
			}
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
		if isAggregate(x.Name) {
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
	case l.k == kBool && r.k == kBool:
		lb, rb := l.b, r.b
		var fn func(*env) bool
		switch op { // false < true
		case "=":
			fn = func(e *env) bool { return lb(e) == rb(e) }
		case "<>":
			fn = func(e *env) bool { return lb(e) != rb(e) }
		case "<":
			fn = func(e *env) bool { return !lb(e) && rb(e) }
		case "<=":
			fn = func(e *env) bool { a := lb(e); return !a || rb(e) }
		case ">":
			fn = func(e *env) bool { return lb(e) && !rb(e) }
		case ">=":
			fn = func(e *env) bool { a := lb(e); return a || !rb(e) }
		}
		return cexpr{k: kBool, b: fn}, nil
	}
	return cexpr{}, unsupportedf("cannot compare %s", src.String())
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

// lowerArith lowers arithmetic: integer arithmetic stays in int64 (with Go's
// two's-complement wrap, same as the interpreter's IntVal arithmetic) except
// division, which always goes through float64 and raises an engine.Fault on
// a zero divisor exactly where the interpreter would have returned its error.
func lowerArith(op string, l, r cexpr, src *sql.BinaryExpr) (cexpr, error) {
	if !numeric(l.k) || !numeric(r.k) {
		return cexpr{}, unsupportedf("non-numeric arithmetic %s", src.String())
	}
	if l.k == kInt && r.k == kInt && op != "/" {
		li, ri := l.i, r.i
		var fn func(*env) int64
		switch op {
		case "+":
			fn = func(e *env) int64 { return li(e) + ri(e) }
		case "-":
			fn = func(e *env) int64 { return li(e) - ri(e) }
		case "*":
			fn = func(e *env) int64 { return li(e) * ri(e) }
		}
		return cexpr{k: kInt, i: fn}, nil
	}
	lf, rf := l.toFloat(), r.toFloat()
	var fn func(*env) float64
	switch op {
	case "+":
		fn = func(e *env) float64 { return lf(e) + rf(e) }
	case "-":
		fn = func(e *env) float64 { return lf(e) - rf(e) }
	case "*":
		fn = func(e *env) float64 { return lf(e) * rf(e) }
	case "/":
		fn = func(e *env) float64 {
			d := rf(e)
			if d == 0 {
				panic(&engine.Fault{Msg: "qcompile: division by zero"})
			}
			return lf(e) / d
		}
	}
	return cexpr{k: kFloat, f: fn}, nil
}

// lowerScalarFunc lowers the engine's scalar functions; like the
// interpreter, every argument coerces to float64 and the result is float.
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
	need := func(n int) error {
		if len(args) != n {
			return unsupportedf("%s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	var fn func(*env) float64
	switch x.Name {
	case "SQRT":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 {
			v := a(e)
			if v < 0 {
				panic(&engine.Fault{Msg: fmt.Sprintf("qcompile: SQRT of negative %v", v)})
			}
			return math.Sqrt(v)
		}
	case "POWER", "POW":
		if err := need(2); err != nil {
			return cexpr{}, err
		}
		a, b := args[0], args[1]
		fn = func(e *env) float64 { return math.Pow(a(e), b(e)) }
	case "ABS":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 { return math.Abs(a(e)) }
	case "FLOOR":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 { return math.Floor(a(e)) }
	case "CEIL", "CEILING":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 { return math.Ceil(a(e)) }
	case "LN":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 { return math.Log(a(e)) }
	case "EXP":
		if err := need(1); err != nil {
			return cexpr{}, err
		}
		a := args[0]
		fn = func(e *env) float64 { return math.Exp(a(e)) }
	case "LEAST", "GREATEST":
		if len(args) == 0 {
			return cexpr{}, unsupportedf("%s needs arguments", x.Name)
		}
		fns := args
		most := x.Name == "GREATEST"
		fn = func(e *env) float64 {
			m := fns[0](e)
			for _, a := range fns[1:] {
				if most {
					m = math.Max(m, a(e))
				} else {
					m = math.Min(m, a(e))
				}
			}
			return m
		}
	default:
		return cexpr{}, unsupportedf("unknown function %s", x.Name)
	}
	return cexpr{k: kFloat, f: fn}, nil
}

// lowerAggRef lowers a reference to an aggregate slot inside HAVING. The
// result kind follows the interpreter: COUNT is int, SUM is int iff its
// argument is statically int (sumIsInt), AVG is float, MIN/MAX keep the
// argument's kind.
func (lc *lowerCtx) lowerAggRef(fc *sql.FuncCall) (cexpr, error) {
	slot, ok := lc.slots[fc]
	if !ok {
		return cexpr{}, unsupportedf("aggregate %s outside HAVING", fc.String())
	}
	argKind := kInt // COUNT(*) default
	if !fc.Star {
		ce, err := lc.lower(fc.Args[0])
		if err != nil {
			return cexpr{}, err
		}
		argKind = ce.k
	}
	switch fc.Name {
	case "COUNT":
		return cexpr{k: kInt, i: func(e *env) int64 { return e.accs[slot].count }}, nil
	case "SUM":
		if argKind == kInt {
			return cexpr{k: kInt, i: func(e *env) int64 { return int64(e.accs[slot].sum) }}, nil
		}
		if argKind == kFloat {
			return cexpr{k: kFloat, f: func(e *env) float64 { return e.accs[slot].sum }}, nil
		}
		return cexpr{}, unsupportedf("SUM of non-numeric argument")
	case "AVG":
		if !numeric(argKind) {
			return cexpr{}, unsupportedf("AVG of non-numeric argument")
		}
		return cexpr{k: kFloat, f: func(e *env) float64 {
			a := &e.accs[slot]
			return a.sum / float64(a.count)
		}}, nil
	case "MIN", "MAX":
		switch argKind {
		case kInt:
			return cexpr{k: kInt, i: func(e *env) int64 { return e.accs[slot].curI }}, nil
		case kFloat:
			return cexpr{k: kFloat, f: func(e *env) float64 { return e.accs[slot].curF }}, nil
		case kStr:
			return cexpr{k: kStr, s: func(e *env) string { return e.accs[slot].curS }}, nil
		}
		return cexpr{}, unsupportedf("%s of boolean argument", fc.Name)
	}
	return cexpr{}, unsupportedf("aggregate %s", fc.Name)
}

// lowerAccum builds the per-row accumulation step for one aggregate slot.
func (lc *lowerCtx) lowerAccum(slot int, fc *sql.FuncCall) (func(*env), error) {
	if fc.Star { // COUNT(*)
		return func(e *env) { e.accs[slot].count++ }, nil
	}
	ce, err := lc.lower(fc.Args[0])
	if err != nil {
		return nil, err
	}
	switch fc.Name {
	case "COUNT":
		// The argument is evaluated for its (possible) side effects — a
		// division by zero must still surface — and every value counts,
		// since the compilable subset is null-free.
		arg := discardFn(ce)
		return func(e *env) { arg(e); e.accs[slot].count++ }, nil
	case "SUM", "AVG":
		if !numeric(ce.k) {
			return nil, unsupportedf("%s of non-numeric argument", fc.Name)
		}
		f := ce.toFloat()
		return func(e *env) {
			a := &e.accs[slot]
			a.sum += f(e)
			a.count++
		}, nil
	case "MIN", "MAX":
		most := fc.Name == "MAX"
		switch ce.k {
		case kInt:
			f := ce.i
			return func(e *env) {
				v := f(e)
				a := &e.accs[slot]
				if !a.seen || (most && v > a.curI) || (!most && v < a.curI) {
					a.curI = v
					a.seen = true
				}
			}, nil
		case kFloat:
			f := ce.f
			return func(e *env) {
				v := f(e)
				a := &e.accs[slot]
				if !a.seen || (most && v > a.curF) || (!most && v < a.curF) {
					a.curF = v
					a.seen = true
				}
			}, nil
		case kStr:
			f := ce.s
			return func(e *env) {
				v := f(e)
				a := &e.accs[slot]
				if !a.seen || (most && v > a.curS) || (!most && v < a.curS) {
					a.curS = v
					a.seen = true
				}
			}, nil
		}
		return nil, unsupportedf("%s of boolean argument", fc.Name)
	}
	return nil, unsupportedf("aggregate %s", fc.Name)
}

func discardFn(ce cexpr) func(*env) {
	switch ce.k {
	case kBool:
		f := ce.b
		return func(e *env) { f(e) }
	case kInt:
		f := ce.i
		return func(e *env) { f(e) }
	case kFloat:
		f := ce.f
		return func(e *env) { f(e) }
	default:
		f := ce.s
		return func(e *env) { f(e) }
	}
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
	switch objects.Value(0, ci).Kind {
	case engine.KFloat:
		oc.k = kFloat
		oc.fs = make([]float64, n)
		for r := 0; r < n; r++ {
			v := objects.Value(r, ci)
			if v.Kind != engine.KFloat {
				return nil, unsupportedf("object column %q has mixed kinds", name)
			}
			oc.fs[r] = v.F
		}
	case engine.KInt:
		oc.k = kInt
		oc.is = make([]int64, n)
		for r := 0; r < n; r++ {
			v := objects.Value(r, ci)
			if v.Kind != engine.KInt {
				return nil, unsupportedf("object column %q has mixed kinds", name)
			}
			oc.is[r] = v.I
		}
	case engine.KString:
		oc.k = kStr
		oc.ss = make([]string, n)
		for r := 0; r < n; r++ {
			v := objects.Value(r, ci)
			if v.Kind != engine.KString {
				return nil, unsupportedf("object column %q has mixed kinds", name)
			}
			oc.ss[r] = v.S
		}
	default:
		return nil, unsupportedf("object column %q has unsupported kind", name)
	}
	return oc, nil
}
