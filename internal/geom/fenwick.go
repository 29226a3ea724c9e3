// Package geom provides the indexing substrate used for exact evaluation of
// the paper's two query workloads: a Fenwick (binary indexed) tree, a k-d
// tree for neighborhood counting and k-nearest-neighbor classification, and
// an O(N log N) dominance-counting sweep for k-skyband ground truth.
//
// These structures are what make "enumerate O cheaply, compute ground truth
// for calibration" feasible at the paper's data scale (47k–73k objects),
// while the deliberately naive nested-loop path lives in internal/engine.
package geom

// Fenwick is a binary indexed tree over integer counts, supporting point
// updates and prefix sums in O(log n). Indices are 0-based externally.
type Fenwick struct {
	tree []int
}

// NewFenwick returns a Fenwick tree over n zero counts.
func NewFenwick(n int) *Fenwick {
	return &Fenwick{tree: make([]int, n+1)}
}

// Len returns the number of positions in the tree.
func (f *Fenwick) Len() int { return len(f.tree) - 1 }

// Add adds delta to position i.
func (f *Fenwick) Add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of positions [0, i]. PrefixSum(-1) is 0.
func (f *Fenwick) PrefixSum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// SuffixSum returns the sum of positions [i, n).
func (f *Fenwick) SuffixSum(i int) int {
	return f.PrefixSum(f.Len()-1) - f.PrefixSum(i-1)
}

// Total returns the sum over all positions.
func (f *Fenwick) Total() int { return f.PrefixSum(f.Len() - 1) }
