// Package sample provides the drawing primitives behind every estimator:
// simple random sampling without replacement (Floyd's algorithm),
// per-stratum draws for stratified sampling, and probability-proportional-
// to-size (PPS) sampling without replacement backed by a Fenwick tree —
// the draw-by-draw scheme the Des Raj estimator of §4.1 requires.
package sample

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// SRS returns n distinct indices drawn uniformly without replacement from
// [0, N), in random order. It panics if n > N or n < 0.
func SRS(r *xrand.Rand, N, n int) []int {
	if n < 0 || n > N {
		panic(fmt.Sprintf("sample: SRS(%d, %d) out of range", N, n))
	}
	// Floyd's algorithm: O(n) expected time, O(n) space.
	chosen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for j := N - n; j < N; j++ {
		t := r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd's emits a uniformly random subset but in a biased order;
	// shuffle so callers may use prefix order.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SRSFrom draws n distinct elements from the given pool without
// replacement.
func SRSFrom(r *xrand.Rand, pool []int, n int) []int {
	idx := SRS(r, len(pool), n)
	out := make([]int, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// Weighted draws objects without replacement with probability proportional
// to their weights, using a Fenwick tree for O(log n) draws. InitialProb
// exposes the first-draw inclusion probability π(o) used by the Des Raj
// estimator.
type Weighted struct {
	tree      []float64
	weights   []float64
	remaining float64
	initial   float64
	n         int
	drawn     []bool
	numDrawn  int
}

// NewWeighted builds a sampler over the given nonnegative weights. At least
// one weight must be positive.
func NewWeighted(weights []float64) (*Weighted, error) {
	n := len(weights)
	w := &Weighted{
		tree:    make([]float64, n+1),
		weights: append([]float64(nil), weights...),
		n:       n,
		drawn:   make([]bool, n),
	}
	for i, wt := range weights {
		if wt < 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			return nil, fmt.Errorf("sample: invalid weight %v at index %d", wt, i)
		}
		w.add(i, wt)
		w.initial += wt
	}
	if w.initial <= 0 {
		return nil, fmt.Errorf("sample: all weights are zero")
	}
	w.remaining = w.initial
	return w, nil
}

func (w *Weighted) add(i int, delta float64) {
	for i++; i <= w.n; i += i & (-i) {
		w.tree[i] += delta
	}
}

// findPrefix returns the smallest index whose cumulative weight exceeds
// target.
func (w *Weighted) findPrefix(target float64) int {
	pos := 0
	bit := 1
	for bit<<1 <= w.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := pos + bit
		if next <= w.n && w.tree[next] <= target {
			target -= w.tree[next]
			pos = next
		}
	}
	return pos // 0-based index of first prefix > target
}

// Remaining returns the number of not-yet-drawn objects with positive
// weight... strictly, the count of undrawn objects (zero-weight objects are
// never drawn and do not count).
func (w *Weighted) Remaining() int {
	cnt := 0
	for i, wt := range w.weights {
		if !w.drawn[i] && wt > 0 {
			cnt++
		}
	}
	return cnt
}

// InitialProb returns the first-draw probability π(i) = w_i / Σw.
func (w *Weighted) InitialProb(i int) float64 {
	return w.weights[i] / w.initial
}

// Draw removes and returns one undrawn index, chosen with probability
// proportional to its weight among the remaining objects. It returns an
// error when no positive-weight object remains.
func (w *Weighted) Draw(r *xrand.Rand) (int, error) {
	if w.remaining <= 1e-12 || w.numDrawn == w.n {
		// Guard against float drift: verify nothing drawable remains.
		if w.Remaining() == 0 {
			return 0, fmt.Errorf("sample: weighted sampler exhausted")
		}
		w.rebuild()
	}
	target := r.Float64() * w.remaining
	idx := w.findPrefix(target)
	// Guard against numeric edge cases landing on a drawn/zero slot.
	if idx >= w.n || w.drawn[idx] || w.weights[idx] <= 0 {
		idx = -1
		for j := 0; j < w.n; j++ {
			if !w.drawn[j] && w.weights[j] > 0 {
				idx = j
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("sample: weighted sampler exhausted")
		}
	}
	w.drawn[idx] = true
	w.numDrawn++
	w.add(idx, -w.weights[idx])
	w.remaining -= w.weights[idx]
	return idx, nil
}

// rebuild recomputes the tree from scratch to shed accumulated float error.
func (w *Weighted) rebuild() {
	for i := range w.tree {
		w.tree[i] = 0
	}
	w.remaining = 0
	for i, wt := range w.weights {
		if !w.drawn[i] && wt > 0 {
			w.add(i, wt)
			w.remaining += wt
		}
	}
}

// WithReplacement draws objects independently with probability proportional
// to fixed weights (PPS with replacement), feeding the Hansen-Hurwitz
// estimator. Draw cost is O(log n) via binary search over prefix sums.
type WithReplacement struct {
	prefix  []float64
	weights []float64
	total   float64
}

// NewWithReplacement builds a with-replacement sampler over nonnegative
// weights; at least one must be positive.
func NewWithReplacement(weights []float64) (*WithReplacement, error) {
	w := &WithReplacement{
		prefix:  make([]float64, len(weights)+1),
		weights: append([]float64(nil), weights...),
	}
	for i, wt := range weights {
		if wt < 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			return nil, fmt.Errorf("sample: invalid weight %v at index %d", wt, i)
		}
		w.prefix[i+1] = w.prefix[i] + wt
	}
	w.total = w.prefix[len(weights)]
	if w.total <= 0 {
		return nil, fmt.Errorf("sample: all weights are zero")
	}
	return w, nil
}

// Prob returns the per-draw probability of index i.
func (w *WithReplacement) Prob(i int) float64 { return w.weights[i] / w.total }

// Draw returns one index with probability proportional to its weight.
func (w *WithReplacement) Draw(r *xrand.Rand) int {
	target := r.Float64() * w.total
	lo, hi := 0, len(w.prefix)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if w.prefix[mid] <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Guard: never return a zero-weight slot on boundary hits.
	for lo < len(w.weights) && w.weights[lo] == 0 {
		lo++
	}
	if lo >= len(w.weights) {
		for lo > 0 && w.weights[lo-1] == 0 {
			lo--
		}
		lo--
	}
	return lo
}

// Stratified draws allocation[h] objects uniformly without replacement from
// each stratum's index pool and returns the per-stratum samples.
func Stratified(r *xrand.Rand, strata [][]int, allocation []int) ([][]int, error) {
	if len(strata) != len(allocation) {
		return nil, fmt.Errorf("sample: %d strata but %d allocations", len(strata), len(allocation))
	}
	out := make([][]int, len(strata))
	for h, pool := range strata {
		nh := allocation[h]
		if nh > len(pool) {
			return nil, fmt.Errorf("sample: stratum %d allocated %d > size %d", h, nh, len(pool))
		}
		if nh < 0 {
			return nil, fmt.Errorf("sample: stratum %d has negative allocation %d", h, nh)
		}
		out[h] = SRSFrom(r, pool, nh)
	}
	return out, nil
}
