package shard

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// sliceSorted is the reference sortCands must reproduce: the sort.Slice
// ordering on (Hash, Key) that bottom-k selection used before.
func sliceSorted(hs []Cand) []Cand {
	out := slices.Clone(hs)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Hash != out[b].Hash {
			return out[a].Hash < out[b].Hash
		}
		return out[a].Key < out[b].Key
	})
	return out
}

// TestSortCandsMatchesSortSlice: (Hash, Key) is a total order over
// distinct keys, so sortCands gives sort.Slice's order element for
// element — over real hashes; over hashes drawn from a handful of values,
// where ties on Hash are the rule and Key alone decides; and over
// candidates already ascending or descending.
func TestSortCandsMatchesSortSlice(t *testing.T) {
	r := xrand.New(11)
	for trial := 0; trial < 400; trial++ {
		n := r.IntN(400)
		hs := candsOf(randomKeys(n, uint64(trial)), uint64(trial), TagSample)
		switch trial % 4 {
		case 1:
			for i := range hs {
				hs[i].Hash = uint64(r.IntN(4)) // mostly equal hashes
			}
		case 2:
			hs = sliceSorted(hs)
		case 3:
			hs = sliceSorted(hs)
			slices.Reverse(hs)
		}
		want := sliceSorted(hs)
		sortCands(hs)
		if !slices.Equal(hs, want) {
			t.Fatalf("trial %d (n=%d): sortCands differs from sort.Slice", trial, n)
		}
	}
}

// TestBottomKFullCoverageAscending: when k covers the population, BottomK
// and MergeBottomK return every key ascending, as sort.Slice ordered them.
func TestBottomKFullCoverageAscending(t *testing.T) {
	keys := randomKeys(300, 5)
	want := slices.Clone(keys)
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if got := BottomK(keys, len(keys), 3, TagSample); !slices.Equal(got, want) {
		t.Fatal("BottomK at full coverage is not the keys ascending")
	}
	parts := [][]Cand{LocalCands(keys[:120], 300, 3, TagSample), LocalCands(keys[120:], 300, 3, TagSample)}
	if got := MergeBottomK(parts, 300, len(keys)); !slices.Equal(got, want) {
		t.Fatal("MergeBottomK at full coverage is not the keys ascending")
	}
}

// BenchmarkSortCands sorts one 300-object shard's bottom-k candidates: the
// sort under every BottomK, LocalCands and MergeBottomK call.
func BenchmarkSortCands(b *testing.B) {
	hs := candsOf(randomKeys(300, 42), 7, TagSample)
	buf := make([]Cand, len(hs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, hs)
		sortCands(buf)
	}
}
