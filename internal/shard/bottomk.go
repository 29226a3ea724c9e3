package shard

import (
	"cmp"
	"slices"

	"repro/internal/live"
)

// Cand is one candidate of a per-shard bottom-k selection: the object key
// and its selection hash. Candidates from different shards merge by
// re-sorting on (Hash, Key) — the same order BottomK uses — so the merged
// prefix is exactly the unsharded selection.
type Cand struct {
	Hash uint64 `json:"hash"`
	Key  int64  `json:"key"`
}

// BottomK deterministically samples k of the given keys: the k smallest
// by (Mix64(seed, tag, key), key). When k covers the whole population the
// selection is every key, sorted ascending. Under appends the selection
// changes only near the threshold — expected O(k·delta/N) membership churn
// — which is what keeps a live refresh's label bill proportional to the
// delta, and a larger k is a strict prefix extension, which is what lets a
// budget extension reuse every earlier label. This is the one hash-plan
// sampling primitive: Drive, per-shard candidates (MergeBottomK recovers
// exactly this selection), and LiveQuery.Refresh all draw through it.
func BottomK(keys []int64, k int, seed, tag uint64) []int64 {
	if k >= len(keys) {
		out := append([]int64(nil), keys...)
		slices.Sort(out)
		return out
	}
	if k <= 0 {
		return nil
	}
	hs := candsOf(keys, seed, tag)
	sortCands(hs)
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = hs[i].Key
	}
	return out
}

// LocalCands returns one shard's bottom-k candidates: its min(k, n)
// smallest (hash, key) pairs, sorted. The global bottom-k of the whole
// population is always a subset of the union of per-shard bottom-k sets,
// which is what makes MergeBottomK exact.
func LocalCands(keys []int64, k int, seed, tag uint64) []Cand {
	if k <= 0 {
		return nil
	}
	hs := candsOf(keys, seed, tag)
	sortCands(hs)
	if k < len(hs) {
		hs = hs[:k]
	}
	return hs
}

// MergeBottomK merges per-shard candidate sets into the global bottom-k
// over a population of total keys. It is byte-identical to
// BottomK(allKeys, k, seed, tag) provided every part was produced by
// LocalCands with the same (k, seed, tag): when k covers the population
// the result is every key ascending (BottomK's full-coverage order);
// otherwise the k smallest (hash, key) pairs in hash order.
func MergeBottomK(parts [][]Cand, k, total int) []int64 {
	if k <= 0 {
		return nil
	}
	all := make([]Cand, 0, k*len(parts))
	for _, p := range parts {
		all = append(all, p...)
	}
	if k >= total {
		out := make([]int64, 0, len(all))
		for _, c := range all {
			out = append(out, c.Key)
		}
		slices.Sort(out)
		return out
	}
	sortCands(all)
	if k > len(all) {
		k = len(all)
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].Key
	}
	return out
}

func candsOf(keys []int64, seed, tag uint64) []Cand {
	hs := make([]Cand, len(keys))
	for i, key := range keys {
		hs[i] = Cand{Hash: live.Mix64(seed, tag, uint64(key)), Key: key}
	}
	return hs
}

// sortCands orders candidates by (Hash, Key), a total order over distinct
// keys, so the order — and every selection taken from it — does not
// depend on the sort algorithm.
func sortCands(hs []Cand) {
	slices.SortFunc(hs, func(a, b Cand) int {
		return cmp.Or(cmp.Compare(a.Hash, b.Hash), cmp.Compare(a.Key, b.Key))
	})
}
