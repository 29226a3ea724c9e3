package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// orderByScoreRef is the comparator sort the radix order replaced, kept as
// its reference: (score, index) ascending, -0 and +0 equal. It is defined
// for NaN-free scores only; a NaN compares equal to every score and the
// sort's result is then unspecified.
func orderByScoreRef(restIdx []int, scores []float64) {
	type scored struct {
		score float64
		idx   int
	}
	packed := make([]scored, len(restIdx))
	for i, idx := range restIdx {
		packed[i] = scored{scores[i], idx}
	}
	slices.SortFunc(packed, func(a, b scored) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i, p := range packed {
		restIdx[i], scores[i] = p.idx, p.score
	}
}

// checkOrder sorts copies of restIdx and scores with orderByScore and
// holds the result to the reference bit for bit: the NaN-free objects in
// the reference's order, then the NaN ones by index.
func checkOrder(t *testing.T, restIdx []int, scores []float64) {
	t.Helper()
	gotIdx, gotScores := slices.Clone(restIdx), slices.Clone(scores)
	orderByScore(gotIdx, gotScores)

	var wantIdx, nanIdx []int
	var wantScores, nanScores []float64
	for i, s := range scores {
		if s != s {
			nanIdx, nanScores = append(nanIdx, restIdx[i]), append(nanScores, s)
		} else {
			wantIdx, wantScores = append(wantIdx, restIdx[i]), append(wantScores, s)
		}
	}
	orderByScoreRef(wantIdx, wantScores)
	nan := make([]int, len(nanIdx))
	for i := range nan {
		nan[i] = i
	}
	slices.SortFunc(nan, func(a, b int) int { return cmp.Compare(nanIdx[a], nanIdx[b]) })
	for _, k := range nan {
		wantIdx, wantScores = append(wantIdx, nanIdx[k]), append(wantScores, nanScores[k])
	}

	for i := range wantIdx {
		if gotIdx[i] != wantIdx[i] || math.Float64bits(gotScores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("position %d of %d: got (%v, %d), want (%v, %d)", i, len(wantIdx),
				gotScores[i], gotIdx[i], wantScores[i], wantIdx[i])
		}
	}
}

// TestOrderByScoreMatchesComparator holds the radix order to the
// comparator sort over forest-like scores (k/100, heavy ties), signed
// zeros, all-equal and extreme values, lengths 0 and 1, and restIdx both
// ascending, as scoreRest hands it over, and shuffled.
func TestOrderByScoreMatchesComparator(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := xrand.New(36)
	gens := map[string]func(i int) float64{
		"forest": func(int) float64 { return float64(r.IntN(101)) / 100 },
		"zeros":  func(int) float64 { return []float64{0, negZero, 0.5}[r.IntN(3)] },
		"equal":  func(int) float64 { return 0.25 },
		"signed": func(int) float64 { return r.NormFloat64() * math.Pow(10, float64(r.IntN(40)-20)) },
		"extremes": func(int) float64 {
			return []float64{math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.SmallestNonzeroFloat64, negZero, 1}[r.IntN(6)]
		},
	}
	for _, name := range slices.Sorted(maps.Keys(gens)) {
		for _, n := range []int{0, 1, 2, 7, 300, 5000} {
			for _, shuffled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n%d/shuffled%v", name, n, shuffled), func(t *testing.T) {
					restIdx, scores := make([]int, n), make([]float64, n)
					for i := range restIdx {
						restIdx[i], scores[i] = 3*i+1, gens[name](i)
					}
					if shuffled {
						r.Shuffle(n, func(i, j int) { restIdx[i], restIdx[j] = restIdx[j], restIdx[i] })
					}
					checkOrder(t, restIdx, scores)
				})
			}
		}
	}
}

// TestOrderByScoreNaNLast pins where a NaN score goes: after every number,
// NaNs by index, each keeping its bits.
func TestOrderByScoreNaNLast(t *testing.T) {
	payload := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Copysign(math.NaN(), -1)
	restIdx := []int{8, 2, 5, 1, 9, 4}
	scores := []float64{payload, 0.5, negNaN, math.Inf(1), 0.5, math.NaN()}
	orderByScore(restIdx, scores)
	if want := []int{2, 9, 1, 4, 5, 8}; !slices.Equal(restIdx, want) {
		t.Fatalf("order %v, want %v", restIdx, want)
	}
	for i, want := range []float64{0.5, 0.5, math.Inf(1), math.NaN(), negNaN, payload} {
		if math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Fatalf("score %d: bits %x, want %x", i, math.Float64bits(scores[i]), math.Float64bits(want))
		}
	}
}

// FuzzOrderByScore holds the radix order to the comparator sort over
// fuzzer-chosen scores, one per byte pair — a k/100 forest score, a signed
// zero, an infinity, a NaN or raw bits — and a seeded shuffle of restIdx.
func FuzzOrderByScore(f *testing.F) {
	f.Add([]byte{0, 50, 0, 50, 0, 100, 1, 0, 1, 0}, uint64(0), false)
	f.Add([]byte{1, 0, 1, 1, 2, 0, 2, 1, 3, 7, 0, 3}, uint64(5), true)
	f.Add([]byte{4, 0xff, 4, 0x80, 4, 0x7f, 0, 99, 3, 0}, uint64(9), true)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, shuffle bool) {
		n := len(data) / 2
		restIdx, scores := make([]int, n), make([]float64, n)
		for i := range n {
			kind, v := data[2*i]%5, data[2*i+1]
			restIdx[i] = 2*i - n
			switch kind {
			case 0:
				scores[i] = float64(v%101) / 100
			case 1:
				scores[i] = math.Copysign(0, float64(int(v%2)*2-1))
			case 2:
				scores[i] = math.Inf(int(v%2)*2 - 1)
			case 3:
				scores[i] = math.NaN()
			default:
				scores[i] = math.Float64frombits(uint64(v)<<56 | uint64(v)*0x0101010101)
			}
		}
		if shuffle {
			xrand.New(seed).Shuffle(n, func(i, j int) { restIdx[i], restIdx[j] = restIdx[j], restIdx[i] })
		}
		checkOrder(t, restIdx, scores)
	})
}
