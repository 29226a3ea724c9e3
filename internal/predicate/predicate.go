// Package predicate defines the expensive Boolean filter q of the paper's
// problem statement (§2) and its concrete instances: the k-skyband
// membership test (Example 2), the few-neighbors test (Example 1), an
// engine-backed EXISTS predicate for arbitrary decomposed SQL, its compiled
// counterpart, and test doubles. Every predicate counts its evaluations,
// since "number of q evaluations" is the cost unit all of the paper's
// methods budget.
//
// Evaluation counters use sync/atomic throughout, and every predicate here
// but Func is safe for concurrent use: the engine-backed ones keep their
// per-evaluation state in pooled closures. Predicates that additionally
// implement BatchPredicate label a pre-chosen sample set in one call — the
// batch may run on a worker pool internally — and Label, the one labeling
// loop, takes that path whenever the predicate offers it.
package predicate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/par"
)

// Predicate is the expensive filter q: object index → bool. Implementations
// count Eval calls; Evals is the labeling cost spent so far.
type Predicate interface {
	Eval(i int) bool
	Evals() int64
}

// BatchPredicate is a Predicate that can label a pre-chosen set of objects
// in one call. EvalBatch evaluates q on idxs[j] and stores the label in
// out[j]; len(out) must be at least len(idxs). Each element counts as one
// evaluation. Implementations may evaluate elements concurrently — labels
// are pure functions of the object index, so the result is identical to a
// sequential loop at any parallelism.
type BatchPredicate interface {
	Predicate
	EvalBatch(idxs []int, out []bool)
}

// counter implements the counting half of Predicate for embedding. The
// count is atomic, so predicates with thread-safe Eval may be hammered from
// any number of goroutines without losing evaluations.
type counter struct{ n atomic.Int64 }

func (c *counter) Evals() int64 { return c.n.Load() }

// Func adapts a plain function to a counting Predicate. The function may be
// called from one goroutine at a time (the SDK makes no thread-safety
// demands on user callbacks), so Func does not implement BatchPredicate.
type Func struct {
	counter
	f func(int) bool
}

// NewFunc wraps f as a Predicate.
func NewFunc(f func(int) bool) *Func { return &Func{f: f} }

// Eval applies the wrapped function.
func (p *Func) Eval(i int) bool {
	p.n.Add(1)
	return p.f(i)
}

// Labels is a zero-cost predicate over precomputed labels, used as ground
// truth in tests and for oracle baselines.
type Labels struct {
	counter
	labels []bool
}

// NewLabels wraps a label vector.
func NewLabels(labels []bool) *Labels { return &Labels{labels: labels} }

// Eval returns the stored label.
func (p *Labels) Eval(i int) bool {
	p.n.Add(1)
	return p.labels[i]
}

// Skyband is Example 2's predicate: object i is positive iff fewer than k
// points dominate it. Each evaluation is a deliberate O(N) scan — the
// aggregate subquery a generic engine would run per object. Eval is a pure
// read and safe for concurrent use.
type Skyband struct {
	counter
	xs, ys []float64
	k      int
}

// NewSkyband builds the k-skyband membership predicate over points
// (xs[i], ys[i]).
func NewSkyband(xs, ys []float64, k int) *Skyband {
	if len(xs) != len(ys) {
		panic("predicate: skyband coordinate lengths differ")
	}
	return &Skyband{xs: xs, ys: ys, k: k}
}

// Eval scans all points and counts dominators of point i.
func (p *Skyband) Eval(i int) bool {
	p.n.Add(1)
	x, y := p.xs[i], p.ys[i]
	dom := 0
	for j := range p.xs {
		if p.xs[j] >= x && p.ys[j] >= y && (p.xs[j] > x || p.ys[j] > y) {
			dom++
			if dom >= p.k {
				return false
			}
		}
	}
	return dom < p.k
}

// Neighbors is Example 1's predicate: object i is positive iff at most k
// other points lie within Euclidean distance d. Each evaluation is a
// deliberate O(N) scan, standing in for the correlated aggregate subquery.
// Eval is a pure read and safe for concurrent use.
type Neighbors struct {
	counter
	xs, ys []float64
	d2     float64
	k      int
}

// NewNeighbors builds the few-neighbors predicate with distance threshold d
// and neighbor bound k over points (xs[i], ys[i]).
func NewNeighbors(xs, ys []float64, d float64, k int) *Neighbors {
	if len(xs) != len(ys) {
		panic("predicate: neighbors coordinate lengths differ")
	}
	return &Neighbors{xs: xs, ys: ys, d2: d * d, k: k}
}

// Eval counts points within distance d of point i (excluding i itself).
func (p *Neighbors) Eval(i int) bool {
	p.n.Add(1)
	x, y := p.xs[i], p.ys[i]
	cnt := 0
	for j := range p.xs {
		if j == i {
			continue
		}
		dx, dy := p.xs[j]-x, p.ys[j]-y
		if dx*dx+dy*dy <= p.d2 {
			cnt++
			if cnt > p.k {
				return false
			}
		}
	}
	return cnt <= p.k
}

// EngineExists evaluates a decomposed SQL predicate (Q3) through the query
// engine. Construction validates the predicate on the first object so that
// later evaluations cannot fail for structural reasons; a failure after
// that is data-dependent (a later object's zero divisor) and is raised as
// an engine.Fault, which the SDK returns as the request's error. Each
// pooled evaluation closure runs over a shallow copy of the evaluator that
// shares the catalog and the read-only parameters and counts into Stats of
// its own, so concurrent Evals share no mutable state.
type EngineExists struct {
	counter
	evals sync.Pool // func(int) (bool, error) closures
	first bool      // validation result for object 0
	has0  bool
}

// NewEngineExists builds an engine-backed predicate for the decomposed
// query over the materialized object set.
func NewEngineExists(ev *engine.Evaluator, dec *engine.Decomposed, objects *engine.ResultSet) (*EngineExists, error) {
	p := &EngineExists{}
	p.evals.New = func() any {
		cp := *ev
		cp.Stats = engine.Stats{}
		return cp.ObjectPredicate(dec, objects)
	}
	if objects.NumRows() > 0 {
		v, err := p.eval(0)
		if err != nil {
			return nil, fmt.Errorf("predicate: validating decomposed predicate: %w", err)
		}
		p.first, p.has0 = v, true
	}
	return p, nil
}

// First returns the construction-time validation result for object 0, so
// cross-checks against it need not repeat a full interpreted evaluation
// (one Q3 interpretation scans the whole join — the very cost compilation
// exists to avoid).
func (p *EngineExists) First() (v, ok bool) { return p.first, p.has0 }

// eval runs the EXISTS subquery for object i on a pooled closure.
func (p *EngineExists) eval(i int) (bool, error) {
	f := p.evals.Get().(func(int) (bool, error))
	v, err := f(i)
	p.evals.Put(f)
	return v, err
}

// Eval runs the EXISTS subquery for object i.
func (p *EngineExists) Eval(i int) bool {
	p.n.Add(1)
	ok, err := p.eval(i)
	if err != nil {
		panic(&engine.Fault{Msg: fmt.Sprintf("predicate: engine predicate failed on object %d: %v", i, err)})
	}
	return ok
}

// Count is what one count-reporting evaluation learned of an object's
// group: N joined rows, all of them when Exact, at least N when the
// evaluation stopped once N settled its comparison with the threshold.
type Count struct {
	N     int64
	Exact bool
}

// Counter is a predicate over a count threshold (HAVING COUNT(*) <op> t)
// that can report, instead of a label, how far each evaluation counted.
// CountBatch evaluates idxs[j] into out[j] (len(out) ≥ len(idxs)); each
// element is one evaluation, exactly as in EvalBatch.
type Counter interface {
	Predicate
	CountBatch(idxs []int, out []Count)
}

// Compiled is the batch-capable predicate over a compiled Q3 evaluator
// (internal/qcompile). The factories hand out evaluation closures with
// private scratch, so EvalBatch and CountBatch can fan a batch out over a
// worker pool: each chunk borrows one closure from a pool for as long as it
// runs, each batch element writes only its own output slot, and labels and
// counts are pure functions of the object index — the result is
// byte-identical to a sequential loop at any parallelism. Eval borrows
// from the same pool.
type Compiled struct {
	counter
	pool    sync.Pool // evaluation closures
	counts  sync.Pool // count-reporting closures, for CountBatch
	workers int
}

// batchChunk is the per-dispatch work unit for parallel batches: large
// enough to amortize dispatch, small enough to balance uneven per-object
// cost (short-circuiting makes negatives much cheaper than positives).
const batchChunk = 64

// NewCompiled wraps an evaluation-closure factory as a Compiled predicate,
// and a count-reporting one as its CountBatch (nil for a predicate nobody
// asks for counts: CountBatch then panics). workers bounds batch
// parallelism: 0 means all cores, 1 sequential.
func NewCompiled(newFn func() func(int) bool, newCount func() func(int) (int64, bool), workers int) *Compiled {
	p := &Compiled{workers: workers}
	p.pool.New = func() any { return newFn() }
	if newCount != nil {
		p.counts.New = func() any { return newCount() }
	}
	return p
}

// Workers reports the resolved batch parallelism.
func (p *Compiled) Workers() int { return par.Workers(p.workers) }

// Eval evaluates q on object i on a pooled closure.
func (p *Compiled) Eval(i int) bool {
	p.n.Add(1)
	f := p.pool.Get().(func(int) bool)
	v := f(i)
	p.pool.Put(f)
	return v
}

// EvalBatch labels a pre-chosen sample set, in parallel when the predicate
// was built with more than one worker and the set spans more than one
// chunk. Every batch element counts as one evaluation. A closure whose
// evaluation panics (an engine.Fault) is not returned to the pool.
func (p *Compiled) EvalBatch(idxs []int, out []bool) {
	p.n.Add(int64(len(idxs)))
	par.ForEachChunk(par.Workers(p.workers), len(idxs), batchChunk, func(lo, hi int) {
		f := p.pool.Get().(func(int) bool)
		for j := lo; j < hi; j++ {
			out[j] = f(idxs[j])
		}
		p.pool.Put(f)
	})
}

// CountBatch reports what an evaluation of each object counted, in
// parallel as EvalBatch labels. Every batch element counts as one
// evaluation; a closure whose evaluation panics is not returned to the pool.
func (p *Compiled) CountBatch(idxs []int, out []Count) {
	p.n.Add(int64(len(idxs)))
	par.ForEachChunk(par.Workers(p.workers), len(idxs), batchChunk, func(lo, hi int) {
		f := p.counts.Get().(func(int) (int64, bool))
		for j := lo; j < hi; j++ {
			out[j].N, out[j].Exact = f(idxs[j])
		}
		p.counts.Put(f)
	})
}

// AllIndices returns the identity index slice [0, n) — the sample set of
// an evaluate-everything pass (the oracle, exact counts, ground truth).
func AllIndices(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// labelChunk bounds one EvalBatch call inside Label: large enough to
// amortize parallel fan-out, small enough that a cancellation check between
// chunks keeps even evaluate-everything passes responsive.
const labelChunk = 4096

// Label labels a pre-chosen index set through pred and returns the label
// vector: the one labeling loop behind every estimation path. A
// BatchPredicate labels the set in chunks of labelChunk (each possibly
// parallel); any other predicate one evaluation at a time. Index sets are
// chosen before labeling and labels are pure functions of the object index,
// so both paths produce byte-identical results — batching (and its internal
// parallelism) is a pure throughput knob. stop (which may be nil) is the
// caller's cooperative cancellation check, worded in the caller's own error
// vocabulary: it runs before the first evaluation, then between batch
// chunks, or between evaluations on the sequential path — the one
// observable difference between the two.
func Label(pred Predicate, idxs []int, stop func() error) ([]bool, error) {
	out := make([]bool, len(idxs))
	eval := func(lo, _ int) { out[lo] = pred.Eval(idxs[lo]) }
	step := 1
	if bp, batch := pred.(BatchPredicate); batch {
		eval, step = func(lo, hi int) { bp.EvalBatch(idxs[lo:hi], out[lo:hi]) }, labelChunk
	}
	if err := chunked(len(idxs), step, stop, eval); err != nil {
		return nil, err
	}
	return out, nil
}

// CountAll is Label for what each evaluation counted: the counter's batch
// path over the index set in chunks of labelChunk, with stop polled before
// the first and between chunks.
func CountAll(pred Counter, idxs []int, stop func() error) ([]Count, error) {
	out := make([]Count, len(idxs))
	if err := chunked(len(idxs), labelChunk, stop, func(lo, hi int) { pred.CountBatch(idxs[lo:hi], out[lo:hi]) }); err != nil {
		return nil, err
	}
	return out, nil
}

// chunked calls fn on [0, n) in chunks of step, polling stop (which may be
// nil) before the first and between chunks; the error is stop's.
func chunked(n, step int, stop func() error, fn func(lo, hi int)) error {
	for lo := 0; lo == 0 || lo < n; lo += step {
		if stop != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		if lo < n {
			fn(lo, min(lo+step, n))
		}
	}
	return nil
}
