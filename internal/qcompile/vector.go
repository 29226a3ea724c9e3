package qcompile

// Vectorized evaluation: instead of one closure call per object, batches of
// up to VecWidth objects are labeled together. Per-object ("pre") conjuncts
// lower to bitmap kernels — selection bitmap in, selection bitmap out — and
// for the common probe-indexed join shapes the whole walk fuses into a
// monomorphic nested loop over raw column slices with no closure dispatch
// per row. Everything the hot loop touches is preallocated in the VecEval
// arena, so steady-state batch labeling performs zero allocations
// (verified by TestVecEvalZeroAlloc).
//
// Equivalence: labels are byte-identical to the scalar path on the full
// supported subset — the fused loop reproduces the interpreter's NaN
// compare forms, ±0 hash-bucket folding, probe NaN→all-rows semantics, and
// the monotone COUNT(*) abort exactly, and any shape the fuser cannot prove
// falls back per lane to the audited scalar closures sharing one
// preallocated env. The only permitted divergence is which panic surfaces
// first when several objects of one batch would panic (e.g. two divisions
// by zero): the set of panicking evaluations is identical, but kernels run
// conjunct-major over the batch while the scalar path runs object-major.
// Fused probe keys and filter operands are restricted to panic-free
// expressions so no panic can be introduced that the scalar path would have
// skipped behind an empty join.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// VecWidth is the number of objects one selection bitmap covers: batches
// are processed in chunks of up to 64 lanes, one bit per object.
const VecWidth = 64

// cmpOp is a comparison operator code for the fused kernels.
type cmpOp uint8

const (
	opEQ cmpOp = iota
	opNE
	opLT
	opLE
	opGT
	opGE
)

var cmpOpOf = map[string]cmpOp{"=": opEQ, "<>": opNE, "<": opLT, "<=": opLE, ">": opGT, ">=": opGE}

// cmpFlip mirrors an operator so "const op col" can be evaluated as
// "col flipped-op const".
var cmpFlip = [...]cmpOp{opEQ: opEQ, opNE: opNE, opLT: opGT, opLE: opGE, opGT: opLT, opGE: opLE}

// cmpF compares through float64 using the interpreter's exact forms: the
// derived !(a<b) / !(a>b) shapes make NaN compare equal to everything.
func cmpF(op cmpOp, a, b float64) bool {
	switch op {
	case opEQ:
		return !(a < b) && !(a > b)
	case opNE:
		return a < b || a > b
	case opLT:
		return a < b
	case opLE:
		return !(a > b)
	case opGT:
		return a > b
	default: // opGE
		return !(a < b)
	}
}

func cmpS(op cmpOp, a, b string) bool {
	switch op {
	case opEQ:
		return a == b
	case opNE:
		return a != b
	case opLT:
		return a < b
	case opLE:
		return a <= b
	case opGT:
		return a > b
	default: // opGE
		return a >= b
	}
}

// vecKernel evaluates one boolean conjunct over the lanes selected in sel
// and returns the lanes where it holds (always a subset of sel).
type vecKernel func(v *VecEval, lanes []int, sel uint64) uint64

// preStep is one per-object conjunct: a bitmap kernel when the shape
// vectorizes, otherwise the audited scalar closure applied lane by lane
// under the mask.
type preStep struct {
	vec    vecKernel
	scalar func(*env) bool
}

// vecPlan is the per-Bind vectorization plan. fused is non-nil when the
// whole join walk compiled to the fused kernel; otherwise surviving lanes
// run the scalar walk with a shared env.
type vecPlan struct {
	pre     []preStep
	fused   []fusedAlias
	short   shortKind
	countOp cmpOp

	// single marks the one-alias probe shape with numeric-only filters;
	// lanes then run laneSingle, a flat loop with no per-row calls. chain
	// marks the two-alias probe chain (object → alias 0 → alias 1, the
	// SQL-EXISTS join shape), run as the flat laneChain loop once the
	// probe buckets are built.
	single bool
	chain  bool

	// thrConst holds the COUNT(*) threshold when its expression is
	// object-free (parameters only): evaluated once at Bind instead of once
	// per lane.
	thrConst bool
	thrVal   float64
	thrUse   bool

	// Precomputed probe buckets (objRows for per-object keys, depRows for
	// earlier-alias row keys), built lazily once cumulative batch lanes
	// reach the build cost — at that point the map probes already paid for
	// the precompute, and every later full scan (the WithExact /
	// shared-scan passes) skips hashing entirely. Sampling-budget runs
	// never cross the threshold and never pay the O(N) build. objReady
	// gates the (sync.Once-built) bucket slices with release/acquire
	// semantics. The buckets freeze the probe-index map contents, which is
	// sound because a Bound's indexes are immutable after Bind (Extend
	// patches indexes only on exclusively-owned, not-yet-bound programs).
	nObjects  int
	buildCost int64 // total bucket-array entries the lazy build fills
	lanes     atomic.Int64
	objOnce   sync.Once
	objReady  atomic.Bool
}

// fusedAlias is one FROM entry of the fused walk: the probe key source
// (per-lane precomputed value, or a raw column of an earlier alias), the
// prebuilt hash index, and the alias's filters as oriented comparisons.
type fusedAlias struct {
	n     int
	probe bool
	str   bool // string-keyed index

	keyNumFn func(*env) float64 // per-object numeric key (panic-free)
	keyStrFn func(*env) string  // per-object string key (panic-free)
	keyDepth int                // earlier alias the key column belongs to
	colF     []float64          // key column when float
	colI     []int64            // key column when int
	colS     []string           // key column when string

	numIdx map[float64][]int32
	strIdx map[string][]int32
	all    []int32

	// objRows[obj] is the probe bucket for each object when the key is a
	// per-object expression; depRows[r] is the bucket for row r of the
	// keyDepth alias when the key is an earlier alias's column. Both are
	// nil until the lazy build (see vecPlan.objReady).
	objRows [][]int32
	depRows [][]int32

	filters []fusedFilter
}

// fusedFilter is one conjunct of the shape "col <op> per-object-constant",
// oriented with the column on the left. The per-object side is evaluated
// once per lane into the arena slot; the inner loop then compares raw
// column values against it with no closure calls.
type fusedFilter struct {
	num      bool
	constRhs bool // rhs is object-free: evaluated once per VecEval, not per lane
	fs       []float64
	is       []int64
	ss       []string
	op       cmpOp
	rhsF     func(*env) float64
	rhsS     func(*env) string
	slot     int
}

// buildVecPlan derives the vectorization plan for a freshly bound program.
// It never fails: any shape outside the fusable/vectorizable subset simply
// keeps its scalar lowering, lane by lane.
func buildVecPlan(p *Program, lc *lowerCtx, b *Bound, nObjects int) *vecPlan {
	vp := &vecPlan{short: b.short, nObjects: nObjects}
	if op, ok := cmpOpOf[b.countOp]; ok {
		vp.countOp = op
	}
	for i, c := range p.pre {
		st := preStep{scalar: b.pre[i]}
		if k, ok := lc.buildVecBool(c); ok {
			st.vec = k
		}
		vp.pre = append(vp.pre, st)
	}
	vp.fused = buildFused(p, lc, b)
	if vp.fused != nil {
		if b.short == shortCount && b.thrFn != nil &&
			p.objFree(p.threshold) && panicFree(p.threshold) {
			vp.thrVal = b.thrFn(&env{})
			vp.thrUse = !math.IsNaN(vp.thrVal)
			vp.thrConst = true
		}
		numFilters := func(fa *fusedAlias) bool {
			for i := range fa.filters {
				if !fa.filters[i].num {
					return false
				}
			}
			return true
		}
		if len(vp.fused) == 1 && vp.fused[0].probe {
			vp.single = numFilters(&vp.fused[0])
		}
		if len(vp.fused) == 2 &&
			vp.fused[0].probe && vp.fused[0].keyDepth < 0 &&
			vp.fused[1].probe && vp.fused[1].keyDepth == 0 {
			vp.chain = numFilters(&vp.fused[0]) && numFilters(&vp.fused[1])
		}
		for d := range vp.fused {
			fa := &vp.fused[d]
			if !fa.probe {
				continue
			}
			if fa.keyDepth < 0 {
				vp.buildCost += int64(nObjects)
			} else {
				vp.buildCost += int64(vp.fused[fa.keyDepth].n)
			}
		}
	}
	return vp
}

// buildFused compiles the join walk into fusedAlias entries, or returns nil
// when any alias falls outside the fusable subset: the program must
// short-circuit (no HAVING, or the monotone COUNT(*) abort — which
// guarantees the only aggregate is that COUNT), probe keys must be plain
// earlier-alias columns or panic-free per-object expressions, and filters
// must be comparisons between a column of their alias and a panic-free
// per-object expression.
func buildFused(p *Program, lc *lowerCtx, b *Bound) []fusedAlias {
	if b.short == shortNone {
		return nil
	}
	out := make([]fusedAlias, 0, len(p.aliases))
	slot := 0
	for d := range p.aliases {
		ap := &p.aliases[d]
		fa := fusedAlias{n: ap.tab.NumRows(), keyDepth: -1}
		if pp := ap.probe; pp != nil {
			fa.probe = true
			fa.numIdx, fa.strIdx, fa.all = pp.numIdx, pp.strIdx, pp.all
			fa.str = pp.strIdx != nil
			rd, ok := p.depthOf(pp.rhs)
			if !ok {
				return nil
			}
			if rd < 0 {
				if !panicFree(pp.rhs) {
					return nil
				}
				ce, err := lc.lower(pp.rhs)
				if err != nil {
					return nil
				}
				switch {
				case fa.str && ce.k == kStr:
					fa.keyStrFn = ce.s
				case !fa.str && numeric(ce.k):
					fa.keyNumFn = ce.toFloat()
				default:
					return nil
				}
			} else {
				cr, ok := pp.rhs.(*sql.ColumnRef)
				if !ok {
					return nil
				}
				ref, err := p.resolve(cr)
				if err != nil || ref.kind != refTable {
					return nil
				}
				fa.keyDepth = ref.depth
				tab := p.aliases[ref.depth].tab
				switch k := tab.Schema()[ref.col].Kind; {
				case k == dataset.Float && !fa.str:
					fa.colF = tab.FloatsAt(ref.col)
				case k == dataset.Int && !fa.str:
					fa.colI = tab.IntsAt(ref.col)
				case k == dataset.String && fa.str:
					fa.colS = tab.StringsAt(ref.col)
				default:
					return nil
				}
			}
		}
		for _, f := range ap.filters {
			ff, ok := buildFusedFilter(p, lc, f, d, slot)
			if !ok {
				return nil
			}
			slot++
			fa.filters = append(fa.filters, ff)
		}
		out = append(out, fa)
	}
	return out
}

func buildFusedFilter(p *Program, lc *lowerCtx, e sql.Expr, depth, slot int) (fusedFilter, bool) {
	be, ok := e.(*sql.BinaryExpr)
	if !ok {
		return fusedFilter{}, false
	}
	op, ok := cmpOpOf[be.Op]
	if !ok {
		return fusedFilter{}, false
	}
	for _, side := range [2][2]sql.Expr{{be.L, be.R}, {be.R, be.L}} {
		cr, isCR := side[0].(*sql.ColumnRef)
		if !isCR {
			continue
		}
		ref, err := p.resolve(cr)
		if err != nil || ref.kind != refTable || ref.depth != depth {
			continue
		}
		rd, okd := p.depthOf(side[1])
		if !okd || rd >= 0 || !panicFree(side[1]) {
			continue
		}
		ce, err := lc.lower(side[1])
		if err != nil {
			continue
		}
		o := op
		if side[0] == be.R {
			o = cmpFlip[op]
		}
		ff := fusedFilter{op: o, slot: slot, constRhs: p.objFree(side[1])}
		tab := p.aliases[depth].tab
		switch k := tab.Schema()[ref.col].Kind; {
		case k == dataset.Float && numeric(ce.k):
			ff.num, ff.fs, ff.rhsF = true, tab.FloatsAt(ref.col), ce.toFloat()
		case k == dataset.Int && numeric(ce.k):
			ff.num, ff.is, ff.rhsF = true, tab.IntsAt(ref.col), ce.toFloat()
		case k == dataset.String && ce.k == kStr:
			ff.ss, ff.rhsS = tab.StringsAt(ref.col), ce.s
		default:
			continue
		}
		return ff, true
	}
	return fusedFilter{}, false
}

// depthOf is maxDepth without the object-column recording side effect (the
// program is shared across Binds and must stay immutable here).
func (p *Program) depthOf(e sql.Expr) (int, bool) {
	depth, ok := -1, true
	sql.WalkExpr(e, func(x sql.Expr) {
		cr, isCR := x.(*sql.ColumnRef)
		if !isCR || !ok {
			return
		}
		ref, err := p.resolve(cr)
		if err != nil {
			ok = false
			return
		}
		if ref.kind == refTable && ref.depth > depth {
			depth = ref.depth
		}
	})
	return depth, ok
}

// objFree reports whether the expression references only parameters —
// neither object columns nor alias columns — so its lowered closure is a
// per-Bind constant.
func (p *Program) objFree(e sql.Expr) bool {
	free := true
	sql.WalkExpr(e, func(x sql.Expr) {
		cr, isCR := x.(*sql.ColumnRef)
		if !isCR || !free {
			return
		}
		if ref, err := p.resolve(cr); err != nil || ref.kind != refParam {
			free = false
		}
	})
	return free
}

// panicFree reports whether evaluating the expression can never panic: the
// lowered closures only panic on division ("/" divides through float64 and
// panics on zero) and SQRT of a negative argument.
func panicFree(e sql.Expr) bool {
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) {
		switch n := x.(type) {
		case *sql.BinaryExpr:
			if n.Op == "/" {
				ok = false
			}
		case *sql.FuncCall:
			if n.Name == "SQRT" {
				ok = false
			}
		}
	})
	return ok
}

// buildVecBool compiles a per-object boolean expression to a bitmap kernel.
// AND masks the right side by the left side's survivors, OR evaluates the
// right side only on lanes the left side rejected, and NOT complements
// within the selection — preserving the scalar short-circuit exactly.
func (lc *lowerCtx) buildVecBool(e sql.Expr) (vecKernel, bool) {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, okl := lc.buildVecBool(x.L)
			if !okl {
				return nil, false
			}
			r, okr := lc.buildVecBool(x.R)
			if !okr {
				return nil, false
			}
			if x.Op == "AND" {
				return func(v *VecEval, lanes []int, sel uint64) uint64 {
					return r(v, lanes, l(v, lanes, sel))
				}, true
			}
			return func(v *VecEval, lanes []int, sel uint64) uint64 {
				lt := l(v, lanes, sel)
				return lt | r(v, lanes, sel&^lt)
			}, true
		case "=", "<>", "<", "<=", ">", ">=":
			return lc.buildVecCompare(x)
		}
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			inner, ok := lc.buildVecBool(x.X)
			if !ok {
				return nil, false
			}
			return func(v *VecEval, lanes []int, sel uint64) uint64 {
				return sel &^ inner(v, lanes, sel)
			}, true
		}
	}
	return nil, false
}

func (lc *lowerCtx) buildVecCompare(x *sql.BinaryExpr) (vecKernel, bool) {
	op := cmpOpOf[x.Op]
	if lf, ok := lc.vecNumLoader(x.L); ok {
		rf, ok2 := lc.vecNumLoader(x.R)
		if !ok2 {
			return nil, false
		}
		return func(v *VecEval, lanes []int, sel uint64) uint64 {
			var out uint64
			for m := sel; m != 0; {
				l := bits.TrailingZeros64(m)
				m &^= 1 << uint(l)
				if cmpF(op, lf(lanes[l]), rf(lanes[l])) {
					out |= 1 << uint(l)
				}
			}
			return out
		}, true
	}
	ls, ok := lc.vecStrLoader(x.L)
	if !ok {
		return nil, false
	}
	rs, ok := lc.vecStrLoader(x.R)
	if !ok {
		return nil, false
	}
	return func(v *VecEval, lanes []int, sel uint64) uint64 {
		var out uint64
		for m := sel; m != 0; {
			l := bits.TrailingZeros64(m)
			m &^= 1 << uint(l)
			if cmpS(op, ls(lanes[l]), rs(lanes[l])) {
				out |= 1 << uint(l)
			}
		}
		return out
	}, true
}

// vecNumLoader builds a per-lane numeric loader for the leaf shapes the
// kernels support: literals, parameters, object columns, and unary minus of
// those. Anything richer keeps the scalar path for the whole conjunct.
func (lc *lowerCtx) vecNumLoader(e sql.Expr) (func(int) float64, bool) {
	switch x := e.(type) {
	case *sql.NumberLit:
		v := x.Value
		if x.IsInt {
			v = float64(int64(x.Value))
		}
		return func(int) float64 { return v }, true
	case *sql.UnaryExpr:
		if x.Op != "-" {
			return nil, false
		}
		f, ok := lc.vecNumLoader(x.X)
		if !ok {
			return nil, false
		}
		return func(o int) float64 { return -f(o) }, true
	case *sql.ColumnRef:
		ref, err := lc.prog.resolve(x)
		if err != nil {
			return nil, false
		}
		switch ref.kind {
		case refObject:
			oc := lc.obj[ref.name]
			if oc == nil {
				return nil, false
			}
			switch oc.k {
			case kFloat:
				xs := oc.fs
				return func(o int) float64 { return xs[o] }, true
			case kInt:
				xs := oc.is
				return func(o int) float64 { return float64(xs[o]) }, true
			}
		case refParam:
			v, ok := lc.params[ref.name]
			if !ok {
				return nil, false
			}
			switch v.Kind {
			case engine.KInt:
				c := float64(v.I)
				return func(int) float64 { return c }, true
			case engine.KFloat:
				c := v.F
				return func(int) float64 { return c }, true
			}
		}
	}
	return nil, false
}

func (lc *lowerCtx) vecStrLoader(e sql.Expr) (func(int) string, bool) {
	switch x := e.(type) {
	case *sql.StringLit:
		v := x.Value
		return func(int) string { return v }, true
	case *sql.ColumnRef:
		ref, err := lc.prog.resolve(x)
		if err != nil {
			return nil, false
		}
		switch ref.kind {
		case refObject:
			if oc := lc.obj[ref.name]; oc != nil && oc.k == kStr {
				xs := oc.ss
				return func(o int) string { return xs[o] }, true
			}
		case refParam:
			if v, ok := lc.params[ref.name]; ok && v.Kind == engine.KString {
				c := v.S
				return func(int) string { return c }, true
			}
		}
	}
	return nil, false
}

// VecEval is the arena for vectorized batch evaluation: every buffer the
// hot loop touches is allocated once here and reused across batches, so
// EvalBatch runs with zero allocations in steady state. A VecEval is not
// safe for concurrent use with itself; create one per goroutine.
type VecEval struct {
	b   *Bound
	env *env // shared scratch for scalar closures and fallback lanes

	// fused per-lane scratch, indexed by alias / filter slot
	rows   []int
	keyF   []float64
	keyS   []string
	filtF  []float64
	filtS  []string
	count  int64
	thr    float64
	useThr bool
	empty  bool // some relation is empty: every label is false
	fast   bool // per-batch cache of vecPlan.objReady (precomputed buckets usable)
}

// NewVecEval returns a vectorized batch evaluator over this bound program.
// Labels are byte-identical to NewEvalFn's (see the package equivalence
// contract); the batch path exists purely as a throughput knob.
func (b *Bound) NewVecEval() *VecEval {
	v := &VecEval{
		b: b,
		env: &env{
			rows: make([]int, b.nAliases),
			reps: make([]int, b.nAliases),
			accs: make([]agg, b.nSlots),
		},
	}
	for a := range b.aliases {
		if b.aliases[a].n == 0 {
			v.empty = true
		}
	}
	if b.vec.fused != nil {
		f := b.vec.fused
		nf := 0
		for d := range f {
			nf += len(f[d].filters)
		}
		v.rows = make([]int, len(f))
		v.keyF = make([]float64, len(f))
		v.keyS = make([]string, len(f))
		v.filtF = make([]float64, nf)
		v.filtS = make([]string, nf)
		// Object-free filter operands are per-Bind constants: evaluate them
		// into their arena slots once here, never per lane.
		for d := range f {
			fa := &f[d]
			for i := range fa.filters {
				ff := &fa.filters[i]
				if !ff.constRhs {
					continue
				}
				if ff.num {
					v.filtF[ff.slot] = ff.rhsF(v.env)
				} else {
					v.filtS[ff.slot] = ff.rhsS(v.env)
				}
			}
		}
	}
	return v
}

// Vectorized reports whether the join walk fused into the vector kernel
// (as opposed to batched per-lane scalar evaluation).
func (b *Bound) Vectorized() bool { return b.vec.fused != nil }

// EvalBatch labels idxs into out (out[i] = label of object idxs[i]),
// processing VecWidth lanes per selection bitmap. It allocates nothing in
// steady state.
func (v *VecEval) EvalBatch(idxs []int, out []bool) {
	b := v.b
	vp := b.vec
	if vp.buildCost > 0 {
		v.fast = vp.objReady.Load()
	}
	for base := 0; base < len(idxs); base += VecWidth {
		n := min(VecWidth, len(idxs)-base)
		lanes := idxs[base : base+n]
		chunk := out[base : base+n]
		for i := range chunk {
			chunk[i] = false
		}
		if v.empty {
			continue
		}
		sel := ^uint64(0)
		if n < VecWidth {
			sel = 1<<uint(n) - 1
		}
		for i := range b.vec.pre {
			st := &b.vec.pre[i]
			if st.vec != nil {
				sel = st.vec(v, lanes, sel)
			} else {
				var keep uint64
				for m := sel; m != 0; {
					l := bits.TrailingZeros64(m)
					m &^= 1 << uint(l)
					v.env.obj = lanes[l]
					if st.scalar(v.env) {
						keep |= 1 << uint(l)
					}
				}
				sel = keep
			}
			if sel == 0 {
				break
			}
		}
		for m := sel; m != 0; {
			l := bits.TrailingZeros64(m)
			m &^= 1 << uint(l)
			chunk[l] = v.lane(lanes[l])
		}
	}
	// Once the lanes that went through the map probes add up to the build
	// cost, precompute every probe bucket (shared across all pooled
	// VecEvals of this Bound): later passes index a slice instead of
	// hashing a key. The build runs after the batch, so the crossing batch
	// stays allocation-free, and the threshold guarantees the build never
	// exceeds the probe work already spent.
	if vp.buildCost > 0 && !v.fast && !v.empty &&
		vp.lanes.Add(int64(len(idxs))) >= vp.buildCost {
		vp.objOnce.Do(v.buildObjRows)
	}
}

// buildObjRows materializes the probe buckets — fa.objRows for
// per-object-keyed aliases, fa.depRows for earlier-alias-keyed ones —
// reproducing the probe's key→bucket mapping exactly (NaN keys take the
// all-rows bucket, matching the interpreter's NaN-equals-everything
// compare).
func (v *VecEval) buildObjRows() {
	vp := v.b.vec
	e := v.env
	saved := e.obj
	for d := range vp.fused {
		fa := &vp.fused[d]
		if !fa.probe {
			continue
		}
		if fa.keyDepth >= 0 {
			rows := make([][]int32, vp.fused[fa.keyDepth].n)
			for r0 := range rows {
				switch {
				case fa.colS != nil:
					rows[r0] = fa.strIdx[fa.colS[r0]]
				case fa.colF != nil:
					k := fa.colF[r0]
					if math.IsNaN(k) {
						rows[r0] = fa.all
					} else {
						rows[r0] = fa.numIdx[k]
					}
				default:
					rows[r0] = fa.numIdx[float64(fa.colI[r0])]
				}
			}
			fa.depRows = rows
			continue
		}
		rows := make([][]int32, vp.nObjects)
		for obj := range rows {
			e.obj = obj
			if fa.str {
				rows[obj] = fa.strIdx[fa.keyStrFn(e)]
				continue
			}
			k := fa.keyNumFn(e)
			if math.IsNaN(k) {
				rows[obj] = fa.all
			} else {
				rows[obj] = fa.numIdx[k]
			}
		}
		fa.objRows = rows
	}
	e.obj = saved
	vp.objReady.Store(true)
}

// lane decides one surviving lane: the fused walk when available, else the
// scalar walk on the shared env.
func (v *VecEval) lane(obj int) bool {
	b := v.b
	e := v.env
	e.obj = obj
	vp := b.vec
	if vp.fused == nil {
		return b.evalJoin(e)
	}
	if vp.thrConst {
		v.thr, v.useThr = vp.thrVal, vp.thrUse
	} else {
		v.useThr = false
		if b.short == shortCount && b.thrFn != nil {
			v.thr = b.thrFn(e)
			v.useThr = !math.IsNaN(v.thr) // NaN compares equal to everything; no abort
		}
	}
	f := vp.fused
	for d := range f {
		fa := &f[d]
		if !(v.fast && fa.objRows != nil) {
			if fa.keyNumFn != nil {
				v.keyF[d] = fa.keyNumFn(e)
			}
			if fa.keyStrFn != nil {
				v.keyS[d] = fa.keyStrFn(e)
			}
		}
		for i := range fa.filters {
			ff := &fa.filters[i]
			if ff.constRhs {
				continue
			}
			if ff.num {
				v.filtF[ff.slot] = ff.rhsF(e)
			} else {
				v.filtS[ff.slot] = ff.rhsS(e)
			}
		}
	}
	v.count = 0
	if vp.single {
		return v.laneSingle(obj, &f[0])
	}
	if vp.chain && v.fast {
		if f0, f1 := &f[0], &f[1]; f0.objRows != nil && f1.depRows != nil {
			return v.laneChain(obj, f0, f1)
		}
	}
	switch v.fwalk(0) {
	case sigTrue:
		return true
	case sigFalse:
		return false
	}
	if b.vec.short == shortNoHaving {
		return false // no witnessing row was found
	}
	if v.count == 0 {
		return false // empty group set: EXISTS over zero groups
	}
	return cmpF(b.vec.countOp, float64(v.count), v.thr)
}

// laneSingle is the flat loop for the one-alias probe shape (the SQL-EXISTS
// workload): bucket lookup — a precomputed per-object slice once the lazy
// build ran, a map probe before — then numeric filter comparisons on raw
// columns with the COUNT(*) abort inlined (mirroring fonRow case by case).
// No per-row function calls survive into the hot loop.
func (v *VecEval) laneSingle(obj int, fa *fusedAlias) bool {
	vp := v.b.vec
	var rows []int32
	switch {
	case v.fast && fa.objRows != nil:
		rows = fa.objRows[obj]
	case fa.str:
		rows = fa.strIdx[v.keyS[0]]
	default:
		k := v.keyF[0]
		if math.IsNaN(k) {
			rows = fa.all // NaN compares equal to everything
		} else {
			rows = fa.numIdx[k]
		}
	}
	short, countOp := vp.short, vp.countOp
	useThr, thr := v.useThr, v.thr
	var count int64
rowLoop:
	for _, r := range rows {
		for i := range fa.filters {
			ff := &fa.filters[i]
			var c float64
			if ff.fs != nil {
				c = ff.fs[r]
			} else {
				c = float64(ff.is[r])
			}
			if !cmpF(ff.op, c, v.filtF[ff.slot]) {
				continue rowLoop
			}
		}
		if short == shortNoHaving {
			return true
		}
		count++
		if useThr {
			if s := countAbort(countOp, float64(count), thr); s != sigNone {
				return s == sigTrue
			}
		}
	}
	if short == shortNoHaving {
		return false // no witnessing row was found
	}
	if count == 0 {
		return false // empty group set: EXISTS over zero groups
	}
	return cmpF(countOp, float64(count), thr)
}

// laneChain is laneSingle's two-alias form: object → alias-0 bucket →
// alias-1 bucket, all precomputed, with numeric filters and the COUNT(*)
// abort inlined. It runs only after the lazy bucket build (v.fast).
func (v *VecEval) laneChain(obj int, f0, f1 *fusedAlias) bool {
	vp := v.b.vec
	short, countOp := vp.short, vp.countOp
	useThr, thr := v.useThr, v.thr
	var count int64
outer:
	for _, r0 := range f0.objRows[obj] {
		for i := range f0.filters {
			ff := &f0.filters[i]
			var c float64
			if ff.fs != nil {
				c = ff.fs[r0]
			} else {
				c = float64(ff.is[r0])
			}
			if !cmpF(ff.op, c, v.filtF[ff.slot]) {
				continue outer
			}
		}
	inner:
		for _, r1 := range f1.depRows[r0] {
			for i := range f1.filters {
				ff := &f1.filters[i]
				var c float64
				if ff.fs != nil {
					c = ff.fs[r1]
				} else {
					c = float64(ff.is[r1])
				}
				if !cmpF(ff.op, c, v.filtF[ff.slot]) {
					continue inner
				}
			}
			if short == shortNoHaving {
				return true
			}
			count++
			if useThr {
				if s := countAbort(countOp, float64(count), thr); s != sigNone {
					return s == sigTrue
				}
			}
		}
	}
	if short == shortNoHaving {
		return false // no witnessing row was found
	}
	if count == 0 {
		return false // empty group set: EXISTS over zero groups
	}
	return cmpF(countOp, float64(count), thr)
}

// countAbort is the monotone COUNT(*) early-exit decision: once the running
// count can no longer change the comparison's outcome, the walk resolves.
func countAbort(op cmpOp, c, thr float64) signal {
	switch op {
	case opLT:
		if !(c < thr) {
			return sigFalse
		}
	case opLE:
		if c > thr {
			return sigFalse
		}
	case opGT:
		if c > thr {
			return sigTrue
		}
	case opGE:
		if !(c < thr) {
			return sigTrue
		}
	case opEQ:
		if c > thr {
			return sigFalse
		}
	case opNE:
		if c > thr {
			return sigTrue
		}
	}
	return sigNone
}

func (v *VecEval) fwalk(d int) signal {
	fa := &v.b.vec.fused[d]
	if !fa.probe {
		for r := 0; r < fa.n; r++ {
			if s := v.fvisit(d, r, fa); s != sigNone {
				return s
			}
		}
		return sigNone
	}
	if v.fast {
		rows := fa.objRows
		if rows != nil {
			for _, r := range rows[v.env.obj] {
				if s := v.fvisit(d, int(r), fa); s != sigNone {
					return s
				}
			}
			return sigNone
		}
		if rows = fa.depRows; rows != nil {
			for _, r := range rows[v.rows[fa.keyDepth]] {
				if s := v.fvisit(d, int(r), fa); s != sigNone {
					return s
				}
			}
			return sigNone
		}
	}
	if fa.str {
		k := v.keyS[d]
		if fa.colS != nil {
			k = fa.colS[v.rows[fa.keyDepth]]
		}
		for _, r := range fa.strIdx[k] {
			if s := v.fvisit(d, int(r), fa); s != sigNone {
				return s
			}
		}
		return sigNone
	}
	var k float64
	switch {
	case fa.colF != nil:
		k = fa.colF[v.rows[fa.keyDepth]]
	case fa.colI != nil:
		k = float64(fa.colI[v.rows[fa.keyDepth]])
	default:
		k = v.keyF[d]
	}
	rows := fa.numIdx[k]
	if math.IsNaN(k) {
		rows = fa.all // NaN compares equal to everything
	}
	for _, r := range rows {
		if s := v.fvisit(d, int(r), fa); s != sigNone {
			return s
		}
	}
	return sigNone
}

func (v *VecEval) fvisit(d, r int, fa *fusedAlias) signal {
	v.rows[d] = r
	for i := range fa.filters {
		ff := &fa.filters[i]
		if ff.num {
			a := v.filtF[ff.slot]
			var c float64
			if ff.fs != nil {
				c = ff.fs[r]
			} else {
				c = float64(ff.is[r])
			}
			if !cmpF(ff.op, c, a) {
				return sigNone
			}
		} else if !cmpS(ff.op, ff.ss[r], v.filtS[ff.slot]) {
			return sigNone
		}
	}
	if d == len(v.b.vec.fused)-1 {
		return v.fonRow()
	}
	return v.fwalk(d + 1)
}

// fonRow mirrors Bound.onRow for the fused plan, where the only aggregate
// is the monotone COUNT(*) (guaranteed by shortCount) or none at all.
func (v *VecEval) fonRow() signal {
	if v.b.vec.short == shortNoHaving {
		return sigTrue
	}
	v.count++
	if v.useThr {
		return countAbort(v.b.vec.countOp, float64(v.count), v.thr)
	}
	return sigNone
}
