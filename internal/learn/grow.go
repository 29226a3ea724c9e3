package learn

import (
	"cmp"
	"slices"

	"repro/internal/xrand"
)

// trainSet is a training set laid out once per fit for the presorted tree
// builder: flat per-feature columns and, per feature, the row ids in
// ascending order of that column. Every tree of a forest reads it; nothing
// writes it after newTrainSet returns.
type trainSet struct {
	n, d  int
	cols  []float64 // cols[f*n+i] = X[i][f]
	order []int32   // order[f*n:(f+1)*n]: row ids ascending by column f
	y     []bool
}

// newTrainSet copies X into columns and sorts each column once. The sort
// key is (value, row id) with NaN before every number — a strict total
// order on any input, so the order (and with it every tree) is a function
// of the data alone, never of the sort algorithm.
func newTrainSet(X [][]float64, y []bool) *trainSet {
	n, d := len(X), len(X[0])
	ts := &trainSet{n: n, d: d, cols: make([]float64, n*d), order: make([]int32, n*d), y: y}
	for i, row := range X {
		for f, v := range row {
			ts.cols[f*n+i] = v
		}
	}
	for f := 0; f < d; f++ {
		col, ord := ts.col(f), ts.order[f*n:(f+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return ts
}

func (ts *trainSet) col(f int) []float64 { return ts.cols[f*ts.n : (f+1)*ts.n] }

// treeNodes is a fitted tree in struct-of-arrays form: parallel slices
// indexed by node id. Node 0 is the root and a left child always follows
// its parent directly (grow appends the left subtree first), which the
// compiled forest layout relies on to keep that link implicit.
type treeNodes struct {
	feature   []int32 // split feature, or -1 for a leaf
	threshold []float64
	left      []int32
	right     []int32
	prob      []float64 // positive fraction at the node
}

func (t *treeNodes) reset() {
	t.feature = t.feature[:0]
	t.threshold = t.threshold[:0]
	t.left = t.left[:0]
	t.right = t.right[:0]
	t.prob = t.prob[:0]
}

// appendLeaf adds a node with no split yet and returns its id.
func (t *treeNodes) appendLeaf(prob float64) int {
	t.feature = append(t.feature, -1)
	t.threshold = append(t.threshold, 0)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	t.prob = append(t.prob, prob)
	return len(t.feature) - 1
}

// grower grows CART trees over one trainSet without sorting at the nodes.
// A training row enters a tree with an integer weight (its bootstrap
// multiplicity; 1 for a standalone tree), each feature keeps the in-bag
// rows as one list in column order, and a node is the same range [lo, hi)
// of every list: a split search is one weighted scan per candidate
// feature, and a split is a stable partition of each list, which leaves
// both children sorted. Weights stand in for duplicated rows exactly —
// copies of a row share every feature value, so no split can fall between
// them, and at every boundary between distinct values the weighted counts
// are the integers the duplicated scan reached.
//
// All scratch belongs to the grower and is reused by every tree it grows.
type grower struct {
	ts       *trainSet
	maxDepth int
	minLeaf  int
	mtry     int         // candidate features per split; 0 or >= d means all
	rand     *xrand.Rand // feature-subset stream of the current tree

	w        []int32 // weight per row; 0 = out of bag
	wpos     []int32 // w where the label is positive, else 0
	lists    []int32 // lists[f*n : f*n+m]: the m in-bag rows ascending by column f
	goesLeft []bool  // per row: side of the split being applied
	spill    []int32 // right-hand rows while a list is partitioned
	features []int   // candidate-feature permutation
	nodes    treeNodes
}

func newGrower(ts *trainSet, t *DecisionTree) *grower {
	return &grower{
		ts: ts, maxDepth: t.maxDepth(), minLeaf: t.minLeaf(), mtry: t.MTry, rand: t.Rand,
		w: make([]int32, ts.n), wpos: make([]int32, ts.n),
		lists: make([]int32, ts.n*ts.d), goesLeft: make([]bool, ts.n),
		spill: make([]int32, ts.n), features: make([]int, ts.d),
	}
}

// bootstrap draws the tree's bag from r — the n IntN(n) draws a row-copying
// bootstrap makes, kept as multiplicities — and leaves r as the tree's
// feature-subset stream.
func (g *grower) bootstrap(r *xrand.Rand) {
	n := g.ts.n
	clear(g.w)
	for i := 0; i < n; i++ {
		g.w[r.IntN(n)]++
	}
	g.rand = r
}

// everyRow puts each training row in the bag once.
func (g *grower) everyRow() {
	for i := range g.w {
		g.w[i] = 1
	}
}

// grow builds the tree over the current bag into g.nodes.
func (g *grower) grow() {
	ts := g.ts
	total, pos := 0, 0
	for i, w := range g.w {
		g.wpos[i] = 0
		if ts.y[i] {
			g.wpos[i] = w
			pos += int(w)
		}
		total += int(w)
	}
	m := 0 // in-bag rows: the same count in every feature's list
	for f := 0; f < ts.d; f++ {
		list := g.lists[f*ts.n:]
		m = 0
		for _, i := range ts.order[f*ts.n : (f+1)*ts.n] {
			if g.w[i] > 0 {
				list[m] = i
				m++
			}
		}
	}
	g.nodes.reset()
	g.node(0, m, total, pos, 0)
}

// node builds the subtree over rows [lo, hi) of every list — n weighted
// rows, pos of them positive — and returns its node id.
func (g *grower) node(lo, hi, n, pos, depth int) int {
	ni := g.nodes.appendLeaf(float64(pos) / float64(n))
	if depth >= g.maxDepth || pos == 0 || pos == n || n < 2*g.minLeaf {
		return ni
	}
	feat, thresh, ok := g.bestSplit(lo, hi, n, pos)
	if !ok {
		return ni
	}
	// Sides come from the test scoring will apply, not from the scan
	// position: a midpoint can round onto its right neighbour (and is NaN
	// between infinities), so the two may disagree.
	col := g.ts.col(feat)
	leftRows, leftN, leftPos := 0, 0, 0
	for _, i := range g.lists[feat*g.ts.n+lo : feat*g.ts.n+hi] {
		l := col[i] <= thresh
		g.goesLeft[i] = l
		if l {
			leftRows++
			leftN += int(g.w[i])
			leftPos += int(g.wpos[i])
		}
	}
	if leftN < g.minLeaf || n-leftN < g.minLeaf {
		return ni
	}
	for f := 0; f < g.ts.d; f++ {
		list := g.lists[f*g.ts.n+lo : f*g.ts.n+hi]
		l, r := 0, 0
		for _, i := range list {
			if g.goesLeft[i] {
				list[l] = i
				l++
			} else {
				g.spill[r] = i
				r++
			}
		}
		copy(list[l:], g.spill[:r])
	}
	mid := lo + leftRows
	l := g.node(lo, mid, leftN, leftPos, depth+1)
	r := g.node(mid, hi, n-leftN, pos-leftPos, depth+1)
	g.nodes.feature[ni] = int32(feat)
	g.nodes.threshold[ni] = thresh
	g.nodes.left[ni] = int32(l)
	g.nodes.right[ni] = int32(r)
	return ni
}

// bestSplit finds the Gini-optimal (feature, threshold) for the node over
// the candidate feature set: the first strict maximum of the impurity
// decrease, features in candidate order, thresholds ascending.
func (g *grower) bestSplit(lo, hi, n, totalPos int) (int, float64, bool) {
	d := g.ts.d
	features := g.features
	for j := range features {
		features[j] = j
	}
	if g.mtry > 0 && g.mtry < d && g.rand != nil {
		g.rand.Shuffle(d, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:g.mtry]
	}
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	parentImp := giniImpurity(totalPos, n)
	for _, f := range features {
		col := g.ts.col(f)
		list := g.lists[f*g.ts.n+lo : f*g.ts.n+hi]
		leftPos, leftN := 0, 0
		v := col[list[0]]
		for k := 0; k < len(list)-1; k++ {
			i := list[k]
			leftN += int(g.w[i])
			leftPos += int(g.wpos[i])
			// Can only split between distinct values. A NaN (sorted
			// first) is below nothing, so no boundary opens beside one and
			// no midpoint is taken of one.
			cur := v
			v = col[list[k+1]]
			if !(cur < v) {
				continue
			}
			if leftN < g.minLeaf || n-leftN < g.minLeaf {
				continue
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			imp := (float64(leftN)*giniImpurity(leftPos, leftN) +
				float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
			if gain := parentImp - imp; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (cur + v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}

func giniImpurity(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}
