// Package shard is the hash-plan executor: the one implementation of the
// deterministic sample/learn/label/estimate recipe that lsserve serves.
// Drive runs it over N >= 1 workers — a population partitioned into
// hash-aligned shards, or a single worker holding all of it (the unsharded
// reuse-catalog path) — and merges the partial results through the
// stratified estimator, byte-identically at any worker count. The
// recipe's arithmetic lives in recipe.go, where lsample's live refresh
// calls the same steps.
//
// The identity argument is the same pure-function-of-(snapshot, seed)
// trick the live layer uses for sample membership:
//
//   - Sample membership is hash bottom-k: an object key k belongs to the
//     size-b sample iff Mix64(seed, tag, k) is among the b smallest hashes
//     of the population. Each shard reports its local bottom-k candidates;
//     the union of per-shard bottom-k sets always contains the global
//     bottom-k, so re-sorting the candidates and keeping k reproduces the
//     unsharded selection exactly (MergeBottomK).
//   - Labels are pure functions of (snapshot, key, predicate): which shard
//     evaluates the predicate cannot change the label.
//   - Classifier training is a pure function of (learn sample order,
//     labels, train seed): the merged learn sample is broadcast to every
//     shard, each trains the identical forest locally, and per-row scores
//     of disjoint shards concatenate into exactly the scores a single
//     process would have computed.
//   - Everything downstream of scoring — equal-count cuts over the merged
//     score multiset, stratum membership, proportional allocation,
//     per-stratum bottom-k, and the stratified estimator — consumes
//     integer tallies or full multisets, both of which merge exactly.
//
// The Worker interface abstracts one shard's primitives; Local implements
// it in-process, and the serving layer implements it over HTTP so the
// same Drive loop powers lsample's catalog and WithShards paths and the
// lsserve coordinator/worker roles.
package shard

import (
	"fmt"
	"hash/fnv"

	"repro/internal/live"
)

// Hash-plan domain-separation tags: the learn sample, the estimation
// sample, and classifier seeds draw from independent Mix64 streams. Every
// executor of the recipe — Drive at any worker count and lsample's live
// refresh — reads them from here.
const (
	// TagLearn selects the learn-phase bottom-k sample ("LEARN").
	TagLearn = 0x4c4541524e
	// TagSample selects the estimation-phase bottom-k sample ("SAMPL").
	TagSample = 0x53414d504c
	// TagTrain derives the classifier training seed ("TRAIN").
	TagTrain = 0x545241494e
	// TagShard places object keys on shards ("SHARD"). It is distinct from
	// the sampling tags so shard placement and sample membership stay
	// independent hashes.
	TagShard = 0x5348415244
	// TagGroup derives per-group fallback sampling tags ("GROUP").
	TagGroup = 0x47524f5550
)

// Spec identifies one shard of a layout: shard Index of Count total.
type Spec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// String renders the spec in the catalog's Shard key form, "index/count".
func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Valid reports whether the spec is a well-formed layout member.
func (s Spec) Valid() bool { return s.Count >= 1 && s.Index >= 0 && s.Index < s.Count }

// OwnerOf places an object key on a shard: a pure function of the key, so
// every process computes the same partition without coordination. Shard
// placement hashes with TagShard, keeping it independent of sample
// membership — a shard neither concentrates nor starves sample mass.
func OwnerOf(key int64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(live.Mix64(TagShard, uint64(key)) % uint64(shards))
}

// GroupTag derives the per-group fallback sampling tag from the group's
// canonical key (folded by FNV-1a 64), domain-separated from the
// shared-sample tag so a group's top-up draw is independent of the shared
// selection.
func GroupTag(canonical string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return live.Mix64(TagSample, TagGroup, h.Sum64())
}
