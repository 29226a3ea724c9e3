package learn

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// The reference: the tree builder the presorted grower replaced, kept as
// it was — a bootstrap that copies rows, and a split search that re-sorts
// the node's rows once per candidate feature — so the differential tests
// and FuzzForestFit can hold the grower to it bit for bit.

func refFitTree(t *DecisionTree, X [][]float64, y []bool) {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.treeNodes.reset()
	refGrow(t, X, y, idx, 0)
}

func refGrow(t *DecisionTree, X [][]float64, y []bool, idx []int, depth int) int {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	ni := t.appendLeaf(float64(pos) / float64(len(idx)))
	if depth >= t.maxDepth() || pos == 0 || pos == len(idx) || len(idx) < 2*t.minLeaf() {
		return ni
	}
	feat, thresh, ok := refBestSplit(t, X, y, idx)
	if !ok {
		return ni
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.minLeaf() || len(right) < t.minLeaf() {
		return ni
	}
	l := refGrow(t, X, y, left, depth+1)
	r := refGrow(t, X, y, right, depth+1)
	t.feature[ni] = int32(feat)
	t.threshold[ni] = thresh
	t.left[ni] = int32(l)
	t.right[ni] = int32(r)
	return ni
}

func refBestSplit(t *DecisionTree, X [][]float64, y []bool, idx []int) (int, float64, bool) {
	d := len(X[0])
	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	if t.MTry > 0 && t.MTry < d && t.Rand != nil {
		t.Rand.Shuffle(d, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MTry]
	}
	n := len(idx)
	totalPos := 0
	for _, i := range idx {
		if y[i] {
			totalPos++
		}
	}
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	parentImp := giniImpurity(totalPos, n)
	order := make([]int, n)
	for _, f := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		leftPos, leftN := 0, 0
		for k := 0; k < n-1; k++ {
			i := order[k]
			leftN++
			if y[i] {
				leftPos++
			}
			if X[order[k]][f] == X[order[k+1]][f] {
				continue
			}
			if leftN < t.minLeaf() || n-leftN < t.minLeaf() {
				continue
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			imp := (float64(leftN)*giniImpurity(leftPos, leftN) +
				float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
			if gain := parentImp - imp; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}

// refFitForest is RandomForest.Fit as it was: per tree, n rows copied by
// IntN(n) draws from the tree's stream, a reference tree grown on the
// copies, all trees compiled in order.
func refFitForest(f *RandomForest, X [][]float64, y []bool) flatForest {
	n, d := len(X), len(X[0])
	mtry := int(math.Ceil(math.Sqrt(float64(d))))
	r := xrand.New(f.Seed)
	rngs := make([]*xrand.Rand, f.trees())
	for b := range rngs {
		rngs[b] = r.Split()
	}
	var ff flatForest
	for _, tr := range rngs {
		bx := make([][]float64, n)
		by := make([]bool, n)
		for i := 0; i < n; i++ {
			j := tr.IntN(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		t := &DecisionTree{MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, MTry: mtry, Rand: tr}
		refFitTree(t, bx, by)
		ff.appendTree(&t.treeNodes)
	}
	return ff
}

// compileForest compiles standalone trees into one block, in order.
func compileForest(trees []*DecisionTree) flatForest {
	var ff flatForest
	for _, t := range trees {
		ff.appendTree(&t.treeNodes)
	}
	return ff
}

// sameForest compares two compiled forests bit for bit (thresholds by
// their bits, so a NaN threshold equals itself).
func sameForest(t testing.TB, label string, got, want flatForest) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) || len(got.roots) != len(want.roots) || len(got.prob) != len(want.prob) {
		t.Fatalf("%s: %d nodes / %d roots / %d probs, reference %d / %d / %d", label,
			len(got.nodes), len(got.roots), len(got.prob), len(want.nodes), len(want.roots), len(want.prob))
	}
	for i := range got.roots {
		if got.roots[i] != want.roots[i] {
			t.Fatalf("%s: root %d at node %d, reference %d", label, i, got.roots[i], want.roots[i])
		}
	}
	for i, g := range got.nodes {
		w := want.nodes[i]
		if g.feature != w.feature || g.right != w.right || math.Float64bits(g.value) != math.Float64bits(w.value) ||
			math.Float64bits(got.prob[i]) != math.Float64bits(want.prob[i]) {
			t.Fatalf("%s: node %d = %+v (prob %v), reference %+v (prob %v)", label, i, g, got.prob[i], w, want.prob[i])
		}
	}
}

// genRows draws an n × d training set whose columns mix the shapes that
// stress a split search: continuous values, heavy ties (a few distinct
// levels), a constant column, and adjacent floats whose midpoint rounds
// onto a neighbour. Labels follow the first column with noise, so trees
// grow deep enough to meet every stop rule.
func genRows(r *xrand.Rand, n, d int) ([][]float64, []bool) {
	kinds := make([]int, d)
	for f := range kinds {
		kinds[f] = r.IntN(4)
	}
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		X[i] = make([]float64, d)
		for f, kind := range kinds {
			switch kind {
			case 0:
				X[i][f] = r.NormFloat64()
			case 1:
				X[i][f] = float64(r.IntN(4))
			case 2:
				X[i][f] = 3.5
			default:
				X[i][f] = 1 + float64(r.IntN(3))*0x1p-52
			}
		}
		y[i] = (X[i][0] > 0.3) != r.Bool(0.2)
	}
	return X, y
}

// TestForestFitMatchesReference: over random shapes — n in [2, 300], d in
// [1, 6], tied and constant columns, MinLeaf/MaxDepth variants, MTry < d —
// the compiled forest equals the reference fit bit for bit, and so does a
// standalone DecisionTree (Rand == nil, every row once).
func TestForestFitMatchesReference(t *testing.T) {
	r := xrand.New(15)
	for c := 0; c < 240; c++ {
		n, d := 2+r.IntN(299), 1+r.IntN(6)
		X, y := genRows(r, n, d)
		f := &RandomForest{
			Trees: 1 + r.IntN(12), Seed: r.Uint64(), Parallelism: 1 + c%3,
			MaxDepth: []int{0, 0, 1, 3, 20}[r.IntN(5)], MinLeaf: []int{0, 0, 1, 5, 40}[r.IntN(5)],
		}
		label := fmt.Sprintf("case %d (n=%d d=%d trees=%d seed=%d depth=%d leaf=%d)",
			c, n, d, f.Trees, f.Seed, f.MaxDepth, f.MinLeaf)
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		sameForest(t, label+" forest", f.flat, refFitForest(f, X, y))

		got := &DecisionTree{MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf}
		if err := got.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		want := &DecisionTree{MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf}
		refFitTree(want, X, y)
		sameForest(t, label+" tree", compileForest([]*DecisionTree{got}), compileForest([]*DecisionTree{want}))
	}
}

// TestForestFitNonFinite: NaN and ±Inf feature values must not panic, and
// the fit must not depend on the worker count. (The reference is not
// consulted: its per-node sort hands NaN to a comparator that is not an
// order, so its result depends on the sort's internals.)
func TestForestFitNonFinite(t *testing.T) {
	r := xrand.New(23)
	X, y := genRows(r, 200, 4)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	for i := range X {
		for f := range X[i] {
			if r.Bool(0.15) {
				X[i][f] = specials[r.IntN(len(specials))]
			}
		}
	}
	fit := func(p int) flatForest {
		f := &RandomForest{Trees: 30, Seed: 5, Parallelism: p}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, x := range X {
			if s := f.Score(x); !(s >= 0 && s <= 1) {
				t.Fatalf("score %v outside [0, 1]", s)
			}
		}
		return f.flat
	}
	seq := fit(1)
	for i, n := range seq.nodes {
		if n.feature >= 0 && math.IsNaN(n.value) {
			t.Fatalf("node %d splits on a NaN threshold", i)
		}
	}
	for _, p := range []int{4, runtime.NumCPU()} {
		sameForest(t, "parallelism", fit(p), seq)
	}
	tr := NewDecisionTree(0)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
}

// FuzzForestFit drives the grower and the reference with generated rows,
// labels, seeds and limits. Feature values are small integers scaled by a
// fuzzed step, so ties, constant columns and adjacent floats all occur.
func FuzzForestFit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint64(1), uint8(2), uint8(0), uint8(0), 1.0)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 7, 7}, uint64(9), uint8(1), uint8(1), uint8(3), 0x1p-52)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint64(3), uint8(5), uint8(4), uint8(1), 1e300)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, d, minLeaf, maxDepth uint8, step float64) {
		dims := 1 + int(d%6)
		n := len(data) / dims
		if n < 1 || n > 400 || math.IsNaN(step) || math.IsInf(step, 0) {
			t.Skip()
		}
		X := make([][]float64, n)
		y := make([]bool, n)
		for i := range X {
			X[i] = make([]float64, dims)
			for j := range X[i] {
				b := data[i*dims+j]
				X[i][j] = 1 + float64(b>>1)*step
				if j == 0 {
					y[i] = b&1 == 1
				}
			}
		}
		rf := &RandomForest{Trees: 5, Seed: seed, Parallelism: 1 + int(seed%3),
			MaxDepth: int(maxDepth % 16), MinLeaf: int(minLeaf % 8)}
		if err := rf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		sameForest(t, "forest", rf.flat, refFitForest(rf, X, y))
	})
}
