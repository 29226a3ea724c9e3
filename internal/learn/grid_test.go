package learn

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// probeRows builds rows to score against a forest fitted on X (d columns):
// fresh draws, rows holding NaN, ±Inf and ±0, exact training rows, rows set
// to exact split thresholds and to their float neighbours, and rows longer
// and shorter than d (down to empty).
func probeRows(r *xrand.Rand, ff *flatForest, X [][]float64, d, n int) [][]float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64}
	rows := make([][]float64, n)
	for i := range rows {
		width := d
		switch r.IntN(12) {
		case 0:
			width = d + 1 + r.IntN(2)
		case 1:
			width = r.IntN(d)
		}
		row := make([]float64, width)
		for j := range row {
			row[j] = 3 * r.NormFloat64()
		}
		switch r.IntN(4) {
		case 0: // a training row
			copy(row, X[r.IntN(len(X))])
		case 1: // thresholds, exactly and one ulp to either side
			for k := 0; k < 1+r.IntN(3); k++ {
				if nd := ff.nodes[r.IntN(len(ff.nodes))]; nd.feature >= 0 && int(nd.feature) < width {
					v := nd.value
					switch r.IntN(3) {
					case 0:
						v = math.Nextafter(v, math.Inf(1))
					case 1:
						v = math.Nextafter(v, math.Inf(-1))
					}
					row[nd.feature] = v
				}
			}
		case 2:
			if width > 0 {
				row[r.IntN(width)] = specials[r.IntN(len(specials))]
			}
		}
		rows[i] = row
	}
	return rows
}

// sameScores holds a batch to Score row by row, bit for bit (a NaN would
// have to match by its bits too).
func sameScores(t testing.TB, label string, f *RandomForest, rows [][]float64, got []float64) {
	t.Helper()
	if len(got) != len(rows) {
		t.Fatalf("%s: %d scores for %d rows", label, len(got), len(rows))
	}
	for i, x := range rows {
		if want := f.Score(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: batch[%d] = %v, Score(%v) = %v", label, i, got[i], x, want)
		}
	}
}

// TestForestScoreBatchMatchesScore: ScoreBatch is bit-equal to Score on
// either path — over random shapes (n in [2, 300], d in [1, 6], tied and
// constant columns, MaxDepth/MinLeaf variants), probe rows of every
// awkward kind (probeRows), batches on both sides of the size rule, with
// and without the tuple table, and at Parallelism 1 / 4 / NumCPU, where
// each worker range keeps its own tuple table.
func TestForestScoreBatchMatchesScore(t *testing.T) {
	r := xrand.New(29)
	grids, overCap, shared := 0, 0, 0
	for c := 0; c < 120; c++ {
		n, d := 2+r.IntN(299), 1+r.IntN(6)
		X, y := genRows(r, n, d)
		f := &RandomForest{
			Trees: 1 + r.IntN(12), Seed: r.Uint64(), Parallelism: 1,
			MaxDepth: []int{0, 0, 1, 3, 20}[r.IntN(5)], MinLeaf: []int{0, 0, 1, 5, 40}[r.IntN(5)],
		}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("case %d (n=%d d=%d trees=%d nodes=%d depth=%d leaf=%d)",
			c, n, d, f.Trees, len(f.flat.nodes), f.MaxDepth, f.MinLeaf)
		if p := ForestScorePath(f); p != (ScorePath{}) {
			t.Fatalf("%s: path %+v before any batch", label, p)
		}

		// Under the rule: the walk, and the grid not even sized.
		under := (gridMinWork*len(f.flat.nodes)+f.Trees-1)/f.Trees - 1 // the most rows the rule still walks
		small := probeRows(r, &f.flat, X, d, under)
		sameScores(t, label+" small batch", f, small, ScoreAll(f, small))
		if p := ForestScorePath(f); p != (ScorePath{Path: "walk"}) {
			t.Fatalf("%s: %d rows scored by %+v, the rule starts at %d", label, under, p, under+1)
		}

		// At the rule and past it: the grid where the forest fits one. The
		// larger batch also has rows enough for the tuple table wherever
		// the forest has few enough thresholds.
		for _, rows := range []int{under + 1, 2*under + 700} {
			big := probeRows(r, &f.flat, X, d, rows)
			for _, p := range []int{1, 4, runtime.NumCPU()} {
				f.Parallelism = p
				sameScores(t, fmt.Sprintf("%s %d rows p=%d", label, rows, p), f, big, ScoreAll(f, big))
				switch path := ForestScorePath(f); {
				case len(f.flat.nodes) == f.Trees: // no split anywhere: nothing to rank
					if path != (ScorePath{Path: "walk"}) {
						t.Fatalf("%s: forest of single leaves scored by %+v", label, path)
					}
				case path.Cells == 0:
					overCap++
					if path.Path != "walk" || path.Thresholds == 0 || path.Tuples != 0 {
						t.Fatalf("%s: no grid, path %+v", label, path)
					}
				default:
					grids++
					if path.Path != "grid" || path.Thresholds == 0 || path.Cells < f.Trees || path.Tuples < 1 || path.Tuples > rows {
						t.Fatalf("%s: %d rows, path %+v", label, rows, path)
					}
					if path.Tuples < rows/2 {
						shared++
					}
				}
			}
		}
	}
	if grids < 100 || overCap < 6 || shared < 20 {
		t.Fatalf("paths exercised: %d grid batches, %d over the cap, %d with shared tuples", grids, overCap, shared)
	}
}

// TestForestScoreBatchConcurrent: goroutines scoring one shared forest at
// once — as the shards of one execution do — each get Score's bits, on
// either path, from grids recycled through the one pool.
func TestForestScoreBatchConcurrent(t *testing.T) {
	r := xrand.New(37)
	X, y := genRows(r, 120, 3)
	f := &RandomForest{Trees: 25, Seed: 9, Parallelism: 2}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	batches := make([][][]float64, 8)
	for i := range batches {
		batches[i] = probeRows(r, &f.flat, X, 3, 30+i*400) // the smallest walk, the rest build grids
	}
	var wg sync.WaitGroup
	for _, rows := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := ScoreAll(f, rows)
				for i, x := range rows {
					if want := f.Score(x); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Errorf("%d rows: batch[%d] = %v, Score = %v", len(rows), i, got[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if p := ForestScorePath(f); p.Path == "" {
		t.Fatal("no path recorded")
	}
}

// TestForestGridOverCap: a forest whose cell tables would pass the cap
// keeps the walk at any batch size, and says so.
func TestForestGridOverCap(t *testing.T) {
	r := xrand.New(31)
	X := make([][]float64, 2000)
	y := make([]bool, len(X))
	for i := range X {
		X[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		y[i] = X[i][0]*X[i][1]+0.5*r.NormFloat64() > X[i][2]
	}
	f := &RandomForest{Trees: 10, Seed: 3, Parallelism: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	rows := probeRows(r, &f.flat, X, 3, gridMinWork*len(f.flat.nodes)/f.Trees+1)
	sameScores(t, "over cap", f, rows, ScoreAll(f, rows))
	if p := ForestScorePath(f); p.Path != "walk" || p.Thresholds == 0 || p.Cells != 0 || p.Tuples != 0 {
		t.Fatalf("path %+v, want the walk with thresholds counted and no cells", p)
	}
}

// TestForestGridDegenerate: the shapes Fit cannot produce or rarely does.
// A forest of single leaves has no grid; a NaN threshold sends every row
// right; a tree may test one threshold twice.
func TestForestGridDegenerate(t *testing.T) {
	leaf := func(v float64) flatNode { return flatNode{value: v, feature: -1} }
	stumps := flatForest{nodes: []flatNode{leaf(0.25), leaf(1)}, prob: []float64{0.25, 1}, roots: []int32{0, 1}}
	g := new(forestGrid)
	if g.build(&stumps) || len(g.cells) != 0 {
		t.Fatalf("forest without splits got %d cells", len(g.cells))
	}

	ff := flatForest{
		nodes: []flatNode{
			// x0 <= NaN ? 0.1 : (x1 <= 0.5 ? (x1 <= 0.5 ? 0.2 : 0.3) : 0.4)
			{value: math.NaN(), feature: 0, right: 2}, leaf(0.1),
			{value: 0.5, feature: 1, right: 6}, {value: 0.5, feature: 1, right: 5}, leaf(0.2), leaf(0.3), leaf(0.4),
			// x0 <= -1 ? 0.6 : (x0 <= 2 ? 0.7 : 0.8)
			{value: -1, feature: 0, right: 9}, leaf(0.6), {value: 2, feature: 0, right: 11}, leaf(0.7), leaf(0.8),
		},
		roots: []int32{0, 7},
	}
	ff.prob = make([]float64, len(ff.nodes))
	if !g.build(&ff) || len(g.thr) != 2 || len(g.thr[0]) != 2 || len(g.thr[1]) != 1 || len(g.cells) != 2+3 {
		t.Fatalf("grid thresholds %v, %d cells", g.thr, len(g.cells))
	}
	var rows [][]float64
	for _, a := range []float64{math.NaN(), math.Inf(-1), -1, 0, 2, 3} {
		for _, b := range []float64{math.NaN(), 0.5, 0.75, math.Inf(1)} {
			rows = append(rows, []float64{a, b})
		}
	}
	for _, span := range []int{1, len(rows)} { // without and with the tuple table
		got := make([]float64, len(rows))
		for lo := 0; lo < len(rows); lo += span {
			g.scoreRange(rows, got, lo, lo+span, new(gridRange))
		}
		for i, x := range rows {
			if want := ff.score(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("span %d: grid(%v) = %v, walk %v", span, x, got[i], want)
			}
		}
	}
}

// TestRankIndexMatchesRank: the rank index answers what the binary search
// does at every threshold, at each threshold's float neighbours, at ±0,
// ±Inf, NaN and the extremes, for features with no threshold, one, dense
// and clustered ones, and spans that overflow or are not finite.
func TestRankIndexMatchesRank(t *testing.T) {
	r := xrand.New(37)
	random := make([]float64, 500)
	for i := range random {
		random[i] = r.NormFloat64() * math.Pow(2, float64(r.IntN(20)-10))
	}
	clustered := make([]float64, 300)
	for i := range clustered {
		clustered[i] = float64(i%3) + float64(i)*0x1p-40
	}
	features := map[string][]float64{
		"none":       nil,
		"one":        {0.5},
		"two":        {-1, 1},
		"negzero":    {math.Copysign(0, -1), 0.25},
		"random":     random,
		"clustered":  clustered,
		"overflow":   {-math.MaxFloat64, 0, math.MaxFloat64},
		"infinite":   {math.Inf(-1), -2, 3, math.Inf(1)},
		"subnormal":  {0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64},
		"neighbours": {1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2), 1e300},
	}
	for _, name := range slices.Sorted(maps.Keys(features)) {
		thr := slices.Clone(features[name])
		slices.Sort(thr)
		thr = slices.Compact(thr)
		g := &forestGrid{thr: [][]float64{{}, thr}}
		g.indexRanks()
		probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
		for _, v := range thr {
			probes = append(probes, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, r.NormFloat64()*math.Pow(2, float64(r.IntN(24)-12)))
		}
		for _, x := range probes {
			if got, want := g.rankOf(1, x), rank(thr, x); got != want {
				t.Fatalf("%s: rankOf(%v) = %d, rank %d", name, x, got, want)
			}
			if got := g.rankOf(0, x); got != 0 {
				t.Fatalf("%s: rankOf(%v) = %d on a feature without thresholds", name, x, got)
			}
		}
	}
}

// FuzzForestScore fits a forest on generated rows, labels, seeds and
// limits (as FuzzForestFit does) and scores generated rows — training
// values, midpoints between them, their float neighbours, NaN, ±Inf, ±0,
// short and long rows — through the grid, with and without the tuple
// table, against the walk.
func FuzzForestScore(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{0, 1, 2, 3, 250, 251, 252, 253, 254, 255}, uint64(1), uint8(2), uint8(0), uint8(0), 1.0)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 7, 7}, []byte{7, 7, 8, 9, 255, 0}, uint64(9), uint8(1), uint8(1), uint8(3), 0x1p-52)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint64(3), uint8(5), uint8(4), uint8(1), 1e300)
	// Probe rows on split thresholds (b%6 == 1 is a midpoint, 3 an ulp
	// below one) and non-finite values (b >= 240), and a step at which the
	// training values and the threshold span overflow to +Inf.
	f.Add([]byte{2, 9, 4, 11, 6, 13, 8, 15, 10, 17, 12, 19}, []byte{1, 7, 13, 19, 25, 31, 3, 9, 240, 241, 242, 243, 244, 1, 7}, uint64(4), uint8(1), uint8(0), uint8(0), 1.0)
	f.Add([]byte{0, 30, 60, 90, 120, 150, 180, 210, 250, 255, 1, 3}, []byte{1, 241, 7, 242, 13, 240, 19, 243, 25, 244, 0, 235}, uint64(6), uint8(0), uint8(0), uint8(0), 1e307)
	// Grids over one feature (the sum reads the last feature's offsets
	// alone) and over three (offsets added before the fused last one).
	f.Add([]byte{3, 8, 1, 14, 5, 22, 9, 2, 13, 30, 7, 18, 11, 4, 21, 16}, []byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 240, 241, 0, 44}, uint64(5), uint8(0), uint8(0), uint8(0), 1.0)
	f.Add([]byte{1, 40, 80, 6, 90, 20, 3, 70, 50, 8, 10, 100, 5, 60, 30, 2, 120, 90, 7, 15, 65, 4, 110, 45, 9, 35, 85, 0, 55, 25},
		[]byte{1, 241, 7, 13, 60, 100, 30, 90, 3, 240, 55, 19, 25, 85, 121, 8, 9, 10, 37, 73, 109, 0, 44, 242, 61, 97, 133}, uint64(7), uint8(2), uint8(0), uint8(0), 1.0)
	f.Fuzz(func(t *testing.T, data, probe []byte, seed uint64, d, minLeaf, maxDepth uint8, step float64) {
		dims := 1 + int(d%6)
		n := len(data) / dims
		if n < 1 || n > 400 || len(probe) > 2000 || math.IsNaN(step) || math.IsInf(step, 0) {
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
		rf := &RandomForest{Trees: 5, Seed: seed, Parallelism: 1,
			MaxDepth: int(maxDepth % 16), MinLeaf: int(minLeaf % 8)}
		if err := rf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		// One probe byte per value: 0–239 a training level, a midpoint or
		// an ulp off one; 240–255 a special. Row widths cycle through
		// dims, dims+1 and dims-1.
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		var rows [][]float64
		for len(probe) > 0 {
			width := dims + []int{0, 0, 1, -1}[len(rows)%4]
			width = min(width, len(probe))
			row := make([]float64, width)
			for j, b := range probe[:width] {
				switch v := 1 + float64(b/6)*step; {
				case b >= 240:
					row[j] = specials[int(b)%len(specials)]
				case b%6 == 1:
					row[j] = v + step/2
				case b%6 == 2:
					row[j] = math.Nextafter(v, math.Inf(1))
				case b%6 == 3:
					row[j] = math.Nextafter(v+step/2, math.Inf(-1))
				default:
					row[j] = v
				}
			}
			rows = append(rows, row)
			probe = probe[max(width, 1):]
		}
		g := new(forestGrid)
		if !g.build(&rf.flat) {
			sameScores(t, "walk", rf, rows, ScoreAll(rf, rows))
			return
		}
		for _, span := range []int{1, max(len(rows), 1)} {
			got := make([]float64, len(rows))
			for lo := 0; lo < len(rows); lo += span {
				g.scoreRange(rows, got, lo, min(lo+span, len(rows)), new(gridRange))
			}
			sameScores(t, fmt.Sprintf("grid, ranges of %d", span), rf, rows, got)
		}
	})
}
