package learn

import (
	"math"
	"slices"

	"repro/internal/par"
)

// forestGrid is a fitted flatForest compiled for scoring one large batch:
// the same function as the walk, evaluated without descending a tree.
//
// A split tests x[f] <= thr, so where a row lands in a tree depends on x[f]
// only through its rank among the tree's thresholds on f: how many of them
// are below x[f], which is the smallest i with thr[i] >= x[f] over the
// sorted distinct thresholds (x[f] <= thr[k] exactly when that i <= k; a
// NaN x[f] is below nothing and ranks past the end, as the walk sends it
// right at every split). Each tree gets a mixed-radix table with one cell
// per combination of its own per-feature ranks, holding the leaf the walk
// reaches from there. The forest keeps, per feature, the sorted distinct
// thresholds of all trees and, for each rank among those, one row of T
// cell offsets: what that rank contributes to each tree's cell index.
// Scoring a row is one rank lookup per feature, one pass per feature but
// the last adding an offset row into T cell indices, and T loads — each
// index plus the last feature's offset — summed in tree order, so the
// float sum rounds as flatForest.score rounds it.
//
// A grid lives for one ScoreBatch and goes back to gridScratch: a count
// fits a forest, scores one batch and drops both, so tables kept on the
// forest would be built once anyway. Every slice below is reused by the
// next build, whatever its forest, so a count whose grid comes off the
// list builds it without allocating.
type forestGrid struct {
	trees int
	thr   [][]float64 // thr[f]: sorted distinct non-NaN thresholds on f (slices of vals)
	// off[f][r*T+t] is tree t's local rank at forest rank r on f times the
	// weight of f in t's cell index; feature 0's rows also carry t's first
	// cell, so a row's cell in t is the sum over f of its offsets.
	off    [][]uint32 // slices of block
	cells  []float64  // every tree's table back to back; empty when the forest has no grid
	tuples int        // ∏(len(thr[f])+1), the rank tuples a row can have; 0 when past gridMaxTuples

	// The rank index: feature f's span from thr[f][0] up is cut into
	// len(bucket[f]) equal buckets, scale[f] of them per unit, and
	// bucket[f][b] counts the thresholds in the buckets below b. scale[f]
	// is 0 where the span is not a finite positive float (an infinite
	// threshold, an overflowing span, fewer than two thresholds): such a
	// feature keeps the binary search.
	scale  []float64
	bucket [][]uint32 // slices of index
	index  []uint32

	ranges []gridRange // per concurrent scoreRange, its scratch

	// Build scratch.
	ff    *flatForest
	vals  []float64
	block []uint32
	start []int   // start[f]: first slot of feature f among the forest's distinct thresholds
	slot  []int32 // per internal node: the slot of its threshold, -1 for a NaN threshold
	// Per slot, for the tree being built: whether it splits there (tree ==
	// t+1) and that threshold's rank among the tree's own.
	mark  []struct{ tree, local int32 }
	radix []int32 // radix[f*T+t]: one more than the distinct thresholds tree t has on f
	// The tree whose cells are being filled: the weight of each feature's
	// local rank in a cell index, the box of local ranks the walk has
	// narrowed the current node to, and the tree's table.
	stride, lo, hi []int32
	table          []float64
}

// gridRange is the scratch of one scoreRange.
type gridRange struct {
	memo  []float64 // score per rank tuple; negative until evaluated
	ranks []int     // the scored row's rank on each feature
	idx   []uint32  // the scored row's cell in each tree
}

var gridScratch = par.NewFreeList((*forestGrid).bytes)

// release returns g to gridScratch, without the forest it was built from.
func (g *forestGrid) release() {
	g.ff = nil
	gridScratch.Put(g)
}

// bytes is the heap g holds: what its slices' arrays hold, headers of the
// slice-of-slice ones included.
func (g *forestGrid) bytes() int {
	const word, header = 8, 24
	n := header*(cap(g.thr)+cap(g.off)+cap(g.bucket)) + word*(cap(g.cells)+cap(g.scale)+cap(g.vals)+cap(g.start)+cap(g.mark)) +
		4*(cap(g.index)+cap(g.block)+cap(g.slot)+cap(g.radix)+cap(g.stride)+cap(g.lo)+cap(g.hi))
	for _, r := range g.ranges[:cap(g.ranges)] {
		n += 3*header + word*(cap(r.memo)+cap(r.ranks)) + 4*cap(r.idx)
	}
	return n
}

const (
	// gridCellsPerNode caps the cell tables at a multiple of the walk's own
	// node block. A tree's cells are the product of its per-feature
	// threshold counts, so deep trees over many features keep the walk.
	gridCellsPerNode = 16
	// gridMaxTuples is where counting a forest's rank tuples stops, so the
	// product cannot overflow. A range keeps a tuple table only when it
	// has twice as many rows as tuples; past 2^25 rows it goes without.
	gridMaxTuples = 1 << 24
)

// sized returns s with length n, on its own array when that is large
// enough. The contents are whatever the array held.
func sized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// build compiles ff into g and reports whether ff has a grid: it has none
// without a split, or when its cell tables would pass the cap — g.thr is
// built by then, g.cells is empty.
func (g *forestGrid) build(ff *flatForest) bool {
	T := len(ff.roots)
	g.ff, g.trees, g.thr, g.cells = ff, T, g.thr[:0], g.cells[:0]
	d := 0
	for _, n := range ff.nodes {
		d = max(d, int(n.feature)+1)
	}
	if d == 0 {
		return false
	}

	// Thresholds: bucket by feature into one block, sort and de-duplicate
	// each bucket in place.
	g.start = sized(g.start, d+1)
	clear(g.start)
	for _, n := range ff.nodes {
		if n.feature >= 0 && n.value == n.value {
			g.start[n.feature+1]++
		}
	}
	for f := 0; f < d; f++ {
		g.start[f+1] += g.start[f]
	}
	g.vals = sized(g.vals, g.start[d])
	for _, n := range ff.nodes { // start[f] runs up to start[f+1] ...
		if n.feature >= 0 && n.value == n.value {
			g.vals[g.start[n.feature]] = n.value
			g.start[n.feature]++
		}
	}
	copy(g.start[1:], g.start[:d]) // ... and back
	g.start[0] = 0
	ranks := 0
	g.tuples = 1
	for f := 0; f < d; f++ {
		seg := g.vals[g.start[f]:g.start[f+1]]
		slices.Sort(seg)
		seg = slices.Compact(seg)
		g.thr = append(g.thr, seg)
		ranks += len(seg) + 1
		if g.tuples *= len(seg) + 1; g.tuples > gridMaxTuples {
			g.tuples = 0
		}
	}

	// Size every tree's table before building any.
	g.slot = sized(g.slot, len(ff.nodes))
	g.mark = sized(g.mark, len(g.vals))
	clear(g.mark)
	g.radix = sized(g.radix, d*T)
	clear(g.radix)
	limit := min(gridCellsPerNode*len(ff.nodes), math.MaxUint32) // offsets are uint32
	total := 0
	for t := 0; t < T; t++ {
		lo, hi := ff.treeSpan(t)
		for ni := lo; ni < hi; ni++ {
			n := ff.nodes[ni]
			if n.feature < 0 {
				continue
			}
			g.slot[ni] = -1
			if n.value == n.value {
				s := g.start[n.feature] + rank(g.thr[n.feature], n.value)
				g.slot[ni] = int32(s)
				if g.mark[s].tree != int32(t)+1 {
					g.mark[s].tree = int32(t) + 1
					g.radix[int(n.feature)*T+t]++
				}
			}
		}
		cells := 1
		for f := 0; f < d; f++ {
			g.radix[f*T+t]++
			if cells *= int(g.radix[f*T+t]); cells > limit {
				return false
			}
		}
		if total += cells; total > limit {
			return false
		}
	}

	// Offsets and cells, one tree at a time. Every offset and every cell
	// is written, so neither array is cleared.
	g.block = sized(g.block, ranks*T)
	g.off = g.off[:0]
	for f, r := 0, 0; f < d; f++ {
		u := len(g.thr[f]) + 1
		g.off = append(g.off, g.block[r*T:(r+u)*T])
		r += u
	}
	g.cells = sized(g.cells, total)
	g.stride, g.lo, g.hi = sized(g.stride, d), sized(g.lo, d), sized(g.hi, d)
	first := 0
	for t := 0; t < T; t++ {
		lo, hi := ff.treeSpan(t)
		for ni := lo; ni < hi; ni++ {
			if ff.nodes[ni].feature >= 0 && g.slot[ni] >= 0 {
				g.mark[g.slot[ni]].tree = int32(t) + 1
			}
		}
		size := 1
		for f := d - 1; f >= 0; f-- {
			g.stride[f], g.lo[f], g.hi[f] = int32(size), 0, g.radix[f*T+t]-1
			size *= int(g.radix[f*T+t])
			// Sweep the forest's ranks on f: a rank's local rank is the
			// number of this tree's thresholds below it.
			col, local, at := g.off[f], int32(0), uint32(0)
			if f == 0 {
				at = uint32(first)
			}
			marks := g.mark[g.start[f] : g.start[f]+len(g.thr[f])]
			for r := range marks {
				col[r*T+t] = at
				if m := &marks[r]; m.tree == int32(t)+1 {
					m.local = local
					local++
					at += uint32(g.stride[f])
				}
			}
			col[len(marks)*T+t] = at
		}
		g.table = g.cells[first : first+size]
		g.fill(ff.roots[t])
		first += size
	}
	g.indexRanks()
	return true
}

// rankBuckets is the rank index's buckets per threshold.
const rankBuckets = 4

// indexRanks builds the rank index, one merge pass over each feature's
// thresholds and buckets.
func (g *forestGrid) indexRanks() {
	total := 0
	for _, thr := range g.thr {
		total += rankBuckets * len(thr)
	}
	g.index = sized(g.index, total)
	g.scale, g.bucket = sized(g.scale, len(g.thr)), g.bucket[:0]
	at := 0
	for f, thr := range g.thr {
		g.scale[f] = 0
		n := len(thr)
		if n < 2 {
			g.bucket = append(g.bucket, nil)
			continue
		}
		nb := rankBuckets * n
		col := g.index[at : at+nb]
		at += nb
		g.bucket = append(g.bucket, col)
		scale := float64(nb) / (thr[n-1] - thr[0])
		if !(scale > 0 && scale <= math.MaxFloat64) {
			continue
		}
		g.scale[f] = scale
		r := 0
		for b := range col {
			for r < n && bucketOf(thr[r], thr[0], scale, nb) < b {
				r++
			}
			col[b] = uint32(r)
		}
	}
}

// bucketOf is the bucket of x ≥ lo among nb buckets of scale per unit from
// lo. It never decreases as x grows, and a NaN lands in the last bucket.
func bucketOf(x, lo, scale float64, nb int) int {
	if t := (x - lo) * scale; t < float64(nb-1) {
		return int(t)
	}
	return nb - 1
}

// rankOf is rank(g.thr[f], x) by the rank index: the count of thresholds
// in the buckets below x's, then a scan to the first threshold ≥ x. Every
// threshold in a lower bucket is below x, because bucketOf never
// decreases, so the scan only moves up — and it ends by checking
// thr[r−1] < x ≤ thr[r], so the answer is rank's whatever the bucket
// arithmetic rounded to.
func (g *forestGrid) rankOf(f int, x float64) int {
	thr := g.thr[f]
	n := len(thr)
	switch {
	case n == 0 || x <= thr[0]:
		return 0
	case !(x <= thr[n-1]): // above every threshold, or NaN
		return n
	case g.scale[f] == 0:
		return rank(thr, x)
	}
	col := g.bucket[f]
	r := min(int(col[bucketOf(x, thr[0], g.scale[f], len(col))]), n-1)
	for thr[r] < x {
		r++
	}
	if thr[r-1] >= x {
		return rank(thr, x)
	}
	return r
}

// fill writes the leaf under node ni into every cell of the current box:
// the cells whose local ranks pass every test on the way down to ni. A
// split at the tree's k-th threshold on f sends local ranks up to k left
// and the rest right; a NaN threshold sends every rank right.
func (g *forestGrid) fill(ni int32) {
	n := g.ff.nodes[ni]
	if n.feature < 0 {
		g.fillBox(0, 0, n.value)
		return
	}
	f, k := n.feature, int32(-1)
	if s := g.slot[ni]; s >= 0 {
		k = g.mark[s].local
	}
	lo, hi := g.lo[f], g.hi[f]
	if lo <= k {
		g.hi[f] = min(hi, k)
		g.fill(ni + 1)
		g.hi[f] = hi
	}
	if hi > k {
		g.lo[f] = max(lo, k+1)
		g.fill(n.right)
		g.lo[f] = lo
	}
}

// fillBox writes v into the cells of the current box, features f and up.
func (g *forestGrid) fillBox(f int, cell int32, v float64) {
	if f == len(g.stride)-1 {
		run := g.table[cell+g.lo[f] : cell+g.hi[f]+1]
		for i := range run {
			run[i] = v
		}
		return
	}
	for j := g.lo[f]; j <= g.hi[f]; j++ {
		g.fillBox(f+1, cell+j*g.stride[f], v)
	}
}

// scoreRange scores rows [lo, hi) of X into out, bit for bit what the walk
// returns for each, with s as its scratch, and reports how many rank
// tuples it evaluated. Rows with the same rank on every feature reach the
// same cell of every tree, so when the range has at least twice as many
// rows as a row can have tuples, a dense table keeps each tuple's score
// and a tuple is evaluated once. A row too short for the forest's
// features takes the walk, which stops at the first split it cannot test.
func (g *forestGrid) scoreRange(X [][]float64, out []float64, lo, hi int, s *gridRange) (evals int) {
	T := g.trees
	s.memo = s.memo[:0]
	if g.tuples > 0 && g.tuples <= (hi-lo)/2 {
		s.memo = sized(s.memo, g.tuples)
		for i := range s.memo {
			s.memo[i] = -1
		}
	}
	s.ranks, s.idx = sized(s.ranks, len(g.thr)), sized(s.idx, T)
	memo, ranks, idx := s.memo, s.ranks, s.idx
	for i := lo; i < hi; i++ {
		x := X[i]
		if len(x) < len(g.thr) {
			out[i] = g.ff.score(x)
			continue
		}
		tuple := 0
		for f, thr := range g.thr {
			ranks[f] = g.rankOf(f, x[f])
			tuple = tuple*(len(thr)+1) + ranks[f]
		}
		if len(memo) > 0 && memo[tuple] >= 0 {
			out[i] = memo[tuple]
			continue
		}
		// A tree's cell is the sum of the row's offsets over the features;
		// the last feature's is added as its cell is loaded.
		d := len(ranks) - 1
		last, sum := g.off[d][ranks[d]*T:][:T], 0.0
		if d == 0 {
			for _, c := range last {
				sum += g.cells[c]
			}
		} else {
			base := g.off[0][ranks[0]*T:][:T]
			if d > 1 {
				copy(idx, base)
				for f := 1; f < d; f++ {
					row := g.off[f][ranks[f]*T:][:T]
					for t := range idx {
						idx[t] += row[t]
					}
				}
				base = idx
			}
			for t, c := range base {
				sum += g.cells[c+last[t]]
			}
		}
		sum /= float64(T)
		out[i] = sum
		evals++
		if len(memo) > 0 {
			memo[tuple] = sum
		}
	}
	return evals
}

// treeSpan returns the node range of tree t.
func (ff *flatForest) treeSpan(t int) (lo, hi int) {
	hi = len(ff.nodes)
	if t+1 < len(ff.roots) {
		hi = int(ff.roots[t+1])
	}
	return int(ff.roots[t]), hi
}

// rank returns the smallest i with thr[i] >= x, len(thr) when there is
// none — which includes every NaN x.
func rank(thr []float64, x float64) int {
	lo, hi := 0, len(thr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if thr[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
