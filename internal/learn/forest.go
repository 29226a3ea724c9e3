package learn

import (
	"math"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/xrand"
)

// RandomForest bags MTry-restricted decision trees over bootstrap samples
// and scores by soft voting (mean of per-tree leaf probabilities), matching
// the paper's default classifier (random forest, n=100 estimators).
//
// Training and batch scoring run on a bounded worker pool (Parallelism).
// Each tree's bootstrap and split randomness comes from its own sub-stream,
// pre-split from the forest seed before any tree is dispatched, so the
// fitted ensemble — and every score it produces, by Score or by either
// path of ScoreBatch — is bit-identical for any Parallelism value,
// including the sequential Parallelism == 1.
type RandomForest struct {
	Trees       int // 0 means the default 100
	MaxDepth    int // per-tree depth cap; 0 means the default 12
	MinLeaf     int
	Seed        uint64 // stream seed for bootstraps and feature subsets
	Parallelism int    // worker bound for Fit/ScoreBatch; 0 means GOMAXPROCS

	// flat is the fitted ensemble compiled for scoring.
	flat flatForest
	// path is how the latest ScoreBatch scored (ForestScorePath).
	path atomic.Pointer[ScorePath]
}

// NewRandomForest returns a forest with the given number of trees.
func NewRandomForest(trees int, seed uint64) *RandomForest {
	return &RandomForest{Trees: trees, Seed: seed}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "forest" }

func (f *RandomForest) trees() int {
	if f.Trees <= 0 {
		return 100
	}
	return f.Trees
}

// Fit trains the ensemble. The training set is laid out and sorted once
// (newTrainSet); trees then grow concurrently in contiguous blocks, one
// grower — and one set of scratch — per block. See the type comment for
// the determinism guarantee.
func (f *RandomForest) Fit(X [][]float64, y []bool) error {
	if err := validateFit(X, y); err != nil {
		return err
	}
	ts := newTrainSet(X, y)
	cfg := DecisionTree{
		MaxDepth: f.MaxDepth,
		MinLeaf:  f.MinLeaf,
		MTry:     int(math.Ceil(math.Sqrt(float64(ts.d)))),
	}
	T := f.trees()

	// Pre-commit randomness: one sub-stream per tree, split in tree order
	// from the forest stream before dispatch. This is the same Split
	// sequence the sequential loop performed, so tree b sees the same
	// stream regardless of scheduling.
	r := xrand.New(f.Seed)
	rngs := make([]*xrand.Rand, T)
	for b := range rngs {
		rngs[b] = r.Split()
	}

	workers := min(par.Workers(f.Parallelism), T)
	block := (T + workers - 1) / workers
	parts := make([]flatForest, (T+block-1)/block)
	par.ForEachChunk(workers, T, block, func(lo, hi int) {
		g := newGrower(ts, &cfg)
		part := &parts[lo/block]
		for b := lo; b < hi; b++ {
			g.bootstrap(rngs[b])
			g.grow()
			part.appendTree(&g.nodes)
		}
	})
	f.flat = concatForests(parts)
	f.path.Store(nil)
	return nil
}

// ForestSize returns the tree and node counts of a fitted forest — what a
// score costs per object — and zeros for any other classifier.
func ForestSize(c Classifier) (trees, nodes int) {
	if f, ok := c.(*RandomForest); ok {
		return len(f.flat.roots), len(f.flat.nodes)
	}
	return 0, 0
}

// Score averages the tree probabilities.
func (f *RandomForest) Score(x []float64) float64 {
	if len(f.flat.roots) == 0 {
		return 0.5
	}
	return f.flat.score(x)
}

// scoreBatchChunk is the object-chunk size for walking a batch in
// parallel: large enough to amortize dispatch, small enough to
// load-balance across workers, since the cost of a walk follows the row.
const scoreBatchChunk = 256

// ScoreBatch implements BatchScorer: it writes exactly Score(X[i]) to
// out[i] for every row, under the Parallelism bound. The compiled forest
// has two evaluations that agree bit for bit: the walk (flatForest.score)
// and, for a batch large enough to pay for building it, the rank grid
// (forestGrid).
func (f *RandomForest) ScoreBatch(X [][]float64, out []float64) {
	out = out[:len(X)]
	if len(f.flat.roots) == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return
	}
	workers, chunk := par.Workers(f.Parallelism), scoreBatchChunk
	path := ScorePath{Path: "walk"}
	var g *forestGrid
	if len(X)*len(f.flat.roots) >= gridMinWork*len(f.flat.nodes) {
		g = gridScratch.Get()
		defer g.release()
		if g.build(&f.flat) {
			// One range per worker: a grid row costs the same whatever its
			// values, and the tuple table of scoreRange wants long ranges.
			chunk = (len(X) + workers - 1) / workers
			g.ranges = sized(g.ranges, (len(X)+chunk-1)/chunk)
			path.Path, path.Cells = "grid", len(g.cells)
		}
		for _, thr := range g.thr {
			path.Thresholds += len(thr)
		}
	}
	var tuples atomic.Int64
	par.ForEachChunk(workers, len(X), chunk, func(lo, hi int) {
		if path.Cells > 0 {
			tuples.Add(int64(g.scoreRange(X, out, lo, hi, &g.ranges[lo/chunk])))
		} else {
			f.flat.scoreRange(X, out, lo, hi)
		}
	})
	path.Tuples = int(tuples.Load())
	f.path.Store(&path)
}

// gridMinWork is the batch size, in tree evaluations per forest node, from
// which ScoreBatch builds the grid. Building costs what walking 7–10 tree
// evaluations per node does and a grid row a quarter of a walked one or
// less (EXPERIMENTS.md, "Rank-grid forest scoring"); the rule starts at
// one and a half times the worst break-even read, where the grid is
// already ~1.3× ahead.
const gridMinWork = 15

// ScorePath says how a fitted forest scored its latest batch.
type ScorePath struct {
	Path       string // "grid" or "walk"
	Thresholds int    // distinct split thresholds, all features; 0 when the batch was too small to consider the grid
	Cells      int    // leaf-table cells, all trees; 0 with Thresholds > 0 means the tables would pass the cap
	Tuples     int    // forest evaluations the grid made: one per row, or per distinct rank tuple of a range where the tuple table ran
}

// ForestScorePath reports how a fitted forest scored its latest batch, and
// the zero value for any other classifier or before the first batch.
func ForestScorePath(c Classifier) ScorePath {
	if f, ok := c.(*RandomForest); ok {
		if p := f.path.Load(); p != nil {
			return *p
		}
	}
	return ScorePath{}
}

// flatNode is one compiled tree node, packed to 16 bytes so four nodes
// share a cache line. value holds the split threshold for internal nodes
// and the leaf probability for leaves; the left child is implicit (always
// the next node — the grower appends the left subtree immediately after
// its parent), so only the right child index is stored.
type flatNode struct {
	value   float64
	feature int32 // -1 for leaf
	right   int32 // right child (global index); left child is ni+1
}

// flatForest is the whole ensemble compiled into one contiguous node
// block, every tree's nodes concatenated with child links rebased to the
// global index space and one root offset per tree. Scoring walks this
// single packed array — no per-tree object, no interface dispatch. (A
// five-slice struct-of-arrays layout was measured first and lost: a tree
// descent is data-dependent, so splitting one node across five slices
// touches five cache lines per step instead of one.)
type flatForest struct {
	nodes []flatNode
	// prob keeps every node's positive fraction for the cold degenerate
	// path (a feature index beyond the scored row, where the walk must
	// return the internal node's own probability, which value cannot hold).
	prob  []float64
	roots []int32 // root node of each tree, in tree order
}

// appendTree compiles one fitted tree onto the end of the block.
func (ff *flatForest) appendTree(t *treeNodes) {
	base := int32(len(ff.nodes))
	ff.roots = append(ff.roots, base)
	for ni, feat := range t.feature {
		n := flatNode{feature: feat}
		if feat < 0 {
			n.value = t.prob[ni]
		} else {
			// The packed layout keeps the left child implicit; fail
			// loudly if a future change to the grower breaks the adjacency
			// invariant rather than silently walking wrong children.
			if t.left[ni] != int32(ni)+1 {
				panic("learn: flatForest: left child not adjacent to parent")
			}
			n.value = t.threshold[ni]
			n.right = base + t.right[ni]
		}
		ff.nodes = append(ff.nodes, n)
	}
	ff.prob = append(ff.prob, t.prob...)
}

// concatForests joins blocks compiled apart, in order, rebasing each
// block's node indices onto the joined array.
func concatForests(parts []flatForest) flatForest {
	if len(parts) == 1 {
		return parts[0]
	}
	total, trees := 0, 0
	for i := range parts {
		total += len(parts[i].nodes)
		trees += len(parts[i].roots)
	}
	ff := flatForest{
		nodes: make([]flatNode, 0, total),
		prob:  make([]float64, 0, total),
		roots: make([]int32, 0, trees),
	}
	for i := range parts {
		base := int32(len(ff.nodes))
		for _, n := range parts[i].nodes {
			if n.feature >= 0 {
				n.right += base
			}
			ff.nodes = append(ff.nodes, n)
		}
		for _, root := range parts[i].roots {
			ff.roots = append(ff.roots, base+root)
		}
		ff.prob = append(ff.prob, parts[i].prob...)
	}
	return ff
}

// score walks every tree for one object, summing leaf probabilities in
// tree order — the order, hence the float rounding, that the grid and the
// original per-tree loop sum in.
func (ff *flatForest) score(x []float64) float64 {
	s := 0.0
	for _, root := range ff.roots {
		s += ff.walk(root, x)
	}
	return s / float64(len(ff.roots))
}

// scoreRange walks objects [lo, hi), object-major: the row and its
// running sum stay in registers across all trees, and the packed node
// block (16 bytes/node) is small enough to stay cache-resident across
// objects. This is the batch path of small batches and of forests without
// a grid; a large batch trades the data-dependent descents for table
// lookups (forestGrid.scoreRange).
func (ff *flatForest) scoreRange(X [][]float64, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = ff.score(X[i])
	}
}

// walk descends one tree from root and returns the leaf probability.
func (ff *flatForest) walk(root int32, x []float64) float64 {
	ni := root
	for {
		n := &ff.nodes[ni]
		f := n.feature
		if f < 0 {
			return n.value
		}
		if int(f) >= len(x) {
			// Scored row shorter than the training rows: fall back to the
			// internal node's own positive fraction, as Score does.
			return ff.prob[ni]
		}
		if x[f] <= n.value {
			ni++ // left child is adjacent by construction
		} else {
			ni = n.right
		}
	}
}
