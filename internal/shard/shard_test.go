package shard

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

func randomKeys(n int, seed uint64) []int64 {
	r := xrand.New(seed)
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		k := int64(r.Uint64() % uint64(n*10))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestMergeBottomKEquivalence is the merge-exactness pin: for any
// partition of the keys and any k, LocalCands+MergeBottomK equals the
// single-set BottomK byte for byte.
func TestMergeBottomKEquivalence(t *testing.T) {
	keys := randomKeys(500, 42)
	const seed, tag = 7, TagSample
	for _, shards := range []int{1, 2, 3, 8} {
		parts := make([][]int64, shards)
		for _, k := range keys {
			s := OwnerOf(k, shards)
			parts[s] = append(parts[s], k)
		}
		for _, k := range []int{0, 1, 10, 250, 499, 500, 700} {
			want := BottomK(keys, k, seed, tag)
			cands := make([][]Cand, shards)
			for s, p := range parts {
				cands[s] = LocalCands(p, k, seed, tag)
			}
			got := MergeBottomK(cands, k, len(keys))
			if len(got) != len(want) {
				t.Fatalf("shards=%d k=%d: merged %d keys, want %d", shards, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d k=%d: merged[%d]=%d, want %d", shards, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestOwnerOf(t *testing.T) {
	keys := randomKeys(200, 9)
	for _, k := range keys {
		if o := OwnerOf(k, 1); o != 0 {
			t.Fatalf("OwnerOf(%d, 1) = %d", k, o)
		}
		for _, s := range []int{2, 3, 8} {
			o := OwnerOf(k, s)
			if o < 0 || o >= s {
				t.Fatalf("OwnerOf(%d, %d) = %d out of range", k, s, o)
			}
			if o2 := OwnerOf(k, s); o2 != o {
				t.Fatalf("OwnerOf(%d, %d) unstable: %d then %d", k, s, o, o2)
			}
		}
	}
	// The partition must actually spread keys for reasonable counts.
	used := make(map[int]bool)
	for _, k := range keys {
		used[OwnerOf(k, 4)] = true
	}
	if len(used) != 4 {
		t.Fatalf("200 keys landed on only %d of 4 shards", len(used))
	}
}

func TestSpec(t *testing.T) {
	s := Spec{Index: 2, Count: 8}
	if s.String() != "2/8" {
		t.Fatalf("Spec.String() = %q", s.String())
	}
	if !s.Valid() {
		t.Fatal("2/8 should be valid")
	}
	for _, bad := range []Spec{{Index: -1, Count: 4}, {Index: 4, Count: 4}, {Index: 0, Count: 0}} {
		if bad.Valid() {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
}

func TestGroupTagDistinct(t *testing.T) {
	tags := map[uint64]string{}
	for _, g := range []string{"east", "west", "north", "", "east\x1f1"} {
		tag := GroupTag(g)
		if prev, dup := tags[tag]; dup {
			t.Fatalf("GroupTag collision between %q and %q", prev, g)
		}
		tags[tag] = g
	}
}

func TestLessGroupKey(t *testing.T) {
	cases := []struct {
		a, b []string
		want bool
	}{
		{[]string{"2"}, []string{"10"}, true}, // numeric, not lexical
		{[]string{"10"}, []string{"2"}, false},
		{[]string{"east"}, []string{"west"}, true},
		{[]string{"east", "1"}, []string{"east", "2"}, true},
		{[]string{"east"}, []string{"east", "2"}, true}, // shorter first
		{[]string{"1.5"}, []string{"1.25"}, false},
		{[]string{"9007199254740992"}, []string{"9007199254740993"}, true}, // integers exactly, past 2^53
		{[]string{"9007199254740993"}, []string{"9007199254740992"}, false},
		{[]string{"9"}, []string{"1a"}, true}, // numbers before text: "10" < "1a" < "9" would be a cycle
		{[]string{"1a"}, []string{"10"}, false},
		{[]string{"NaN"}, []string{"1"}, false}, // NaN is text
	}
	for _, c := range cases {
		if got := LessGroupKey(c.a, c.b); got != c.want {
			t.Errorf("LessGroupKey(%v, %v) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
	// Irreflexive and a strict weak order over a sample set.
	keys := [][]string{{"1"}, {"2"}, {"10"}, {"x"}, {"x", "1"}}
	sort.Slice(keys, func(a, b int) bool { return LessGroupKey(keys[a], keys[b]) })
	for i := range keys {
		if LessGroupKey(keys[i], keys[i]) {
			t.Fatalf("LessGroupKey(%v, %v) is reflexive", keys[i], keys[i])
		}
	}
}
