package geom

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(10)
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Add(0, 3)
	f.Add(5, 2)
	f.Add(9, 1)
	if got := f.PrefixSum(0); got != 3 {
		t.Fatalf("PrefixSum(0) = %d", got)
	}
	if got := f.PrefixSum(4); got != 3 {
		t.Fatalf("PrefixSum(4) = %d", got)
	}
	if got := f.PrefixSum(5); got != 5 {
		t.Fatalf("PrefixSum(5) = %d", got)
	}
	if got := f.Total(); got != 6 {
		t.Fatalf("Total = %d", got)
	}
	if got := f.SuffixSum(5); got != 3 {
		t.Fatalf("SuffixSum(5) = %d", got)
	}
	if got := f.PrefixSum(-1); got != 0 {
		t.Fatalf("PrefixSum(-1) = %d", got)
	}
}

func TestFenwickAgainstNaive(t *testing.T) {
	r := xrand.New(1)
	const n = 64
	f := NewFenwick(n)
	ref := make([]int, n)
	for step := 0; step < 500; step++ {
		i := r.IntN(n)
		d := r.IntN(7) - 3
		f.Add(i, d)
		ref[i] += d
		q := r.IntN(n)
		want := 0
		for j := 0; j <= q; j++ {
			want += ref[j]
		}
		if got := f.PrefixSum(q); got != want {
			t.Fatalf("step %d: PrefixSum(%d) = %d, want %d", step, q, got, want)
		}
	}
}

func randomPoints(r *xrand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = r.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

func bruteCountWithin(pts [][]float64, q []float64, radius float64) int {
	cnt := 0
	for _, p := range pts {
		if math.Sqrt(sqDist(p, q)) <= radius {
			cnt++
		}
	}
	return cnt
}

func TestKDTreeCountWithin(t *testing.T) {
	r := xrand.New(2)
	for _, dim := range []int{1, 2, 3, 5} {
		pts := randomPoints(r, 300, dim)
		tree := NewKDTree(pts)
		for trial := 0; trial < 50; trial++ {
			q := pts[r.IntN(len(pts))]
			radius := r.Float64() * 5
			want := bruteCountWithin(pts, q, radius)
			if got := tree.CountWithin(q, radius); got != want {
				t.Fatalf("dim=%d CountWithin = %d, want %d", dim, got, want)
			}
		}
	}
}

func TestKDTreeCountWithinEdge(t *testing.T) {
	tree := NewKDTree(nil)
	if got := tree.CountWithin([]float64{0, 0}, 1); got != 0 {
		t.Fatalf("empty tree count = %d", got)
	}
	pts := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	tree = NewKDTree(pts)
	if got := tree.CountWithin([]float64{1, 1}, 0); got != 2 {
		t.Fatalf("duplicate points at radius 0: got %d, want 2", got)
	}
	if got := tree.CountWithin([]float64{0, 0}, -1); got != 0 {
		t.Fatalf("negative radius: got %d", got)
	}
	if got := tree.CountWithin([]float64{0, 0}, 100); got != 3 {
		t.Fatalf("huge radius: got %d, want 3", got)
	}
}

func TestKDTreeKNearest(t *testing.T) {
	r := xrand.New(3)
	pts := randomPoints(r, 200, 2)
	tree := NewKDTree(pts)
	for trial := 0; trial < 30; trial++ {
		q := []float64{r.Float64() * 10, r.Float64() * 10}
		k := 1 + r.IntN(10)
		got := tree.KNearest(q, k)
		// Brute-force reference.
		type cand struct {
			idx int
			d2  float64
		}
		cands := make([]cand, len(pts))
		for i, p := range pts {
			cands[i] = cand{i, sqDist(p, q)}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].d2 < cands[b].d2 })
		if len(got) != k {
			t.Fatalf("KNearest returned %d, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Dist2-cands[i].d2) > 1e-12 {
				t.Fatalf("neighbor %d dist %v, want %v", i, got[i].Dist2, cands[i].d2)
			}
		}
		// Must be sorted nearest-first.
		for i := 1; i < len(got); i++ {
			if got[i].Dist2 < got[i-1].Dist2 {
				t.Fatalf("KNearest not sorted: %v", got)
			}
		}
	}
}

func TestKNearestMoreThanN(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}}
	tree := NewKDTree(pts)
	got := tree.KNearest([]float64{0, 0}, 10)
	if len(got) != 2 {
		t.Fatalf("want all 2 points, got %d", len(got))
	}
	if tree.KNearest([]float64{0, 0}, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestDominanceCountsAgainstNaive(t *testing.T) {
	r := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.IntN(200)
		pts := make([]Point2, n)
		for i := range pts {
			// Small integer grid to generate plenty of ties.
			pts[i] = Point2{float64(r.IntN(10)), float64(r.IntN(10))}
		}
		want := DominanceCountsNaive(pts)
		got := DominanceCounts(pts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d point %d (%v): got %d, want %d",
					trial, i, pts[i], got[i], want[i])
			}
		}
	}
}

func TestDominanceCountsQuick(t *testing.T) {
	f := func(coords []uint8) bool {
		if len(coords) < 2 {
			return true
		}
		n := len(coords) / 2
		pts := make([]Point2, n)
		for i := 0; i < n; i++ {
			pts[i] = Point2{float64(coords[2*i] % 8), float64(coords[2*i+1] % 8)}
		}
		want := DominanceCountsNaive(pts)
		got := DominanceCounts(pts)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSkybandSize(t *testing.T) {
	// Diagonal staircase: nobody dominates anybody.
	pts := []Point2{{1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}}
	if got := SkybandSize(pts, 1); got != 5 {
		t.Fatalf("staircase skyband = %d, want 5", got)
	}
	// Total order: point i dominated by all points after it.
	pts = []Point2{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	if got := SkybandSize(pts, 1); got != 1 {
		t.Fatalf("chain 1-skyband = %d, want 1", got)
	}
	if got := SkybandSize(pts, 3); got != 3 {
		t.Fatalf("chain 3-skyband = %d, want 3", got)
	}
	// Identical points never dominate each other.
	pts = []Point2{{2, 2}, {2, 2}, {2, 2}}
	if got := SkybandSize(pts, 1); got != 3 {
		t.Fatalf("identical points skyband = %d, want 3", got)
	}
	if got := SkybandSize(nil, 1); got != 0 {
		t.Fatalf("empty skyband = %d", got)
	}
}

func TestDominanceEmptyAndSingle(t *testing.T) {
	if got := DominanceCounts(nil); len(got) != 0 {
		t.Fatal("nil input should give empty counts")
	}
	got := DominanceCounts([]Point2{{1, 2}})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point counts = %v", got)
	}
}

func BenchmarkDominanceCounts(b *testing.B) {
	r := xrand.New(5)
	pts := make([]Point2, 10000)
	for i := range pts {
		pts[i] = Point2{r.Float64() * 1000, r.Float64() * 1000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DominanceCounts(pts)
	}
}

func BenchmarkKDTreeCountWithin(b *testing.B) {
	r := xrand.New(6)
	pts := randomPoints(r, 10000, 2)
	tree := NewKDTree(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.CountWithin(pts[i%len(pts)], 0.5)
	}
}

func BenchmarkKDTreeBuild(b *testing.B) {
	r := xrand.New(7)
	pts := randomPoints(r, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewKDTree(pts)
	}
}
