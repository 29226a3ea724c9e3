// Package catalog materializes learn-phase artifacts — hash-selected
// samples (implicitly, via per-key labels) and the classifier's per-key
// scores, which are the stratification design — and reuses them across
// queries. Entries are keyed by (dataset snapshot, shard, Q1 shape,
// feature-column set, estimation plan); lookups classify into direct reuse (the plan matches:
// skip sampling and learning, relabel only if the predicate differs),
// extension (the plan partially covers the request: top up the hash
// bottom-k sample — a strict prefix extension, hence deterministic — and
// retrain), or materialization on a miss. Eviction is size-weighted LFU
// with pin protection; snapshot invalidation hooks let the serving layer
// drop entries the moment their data version is superseded.
//
// The package owns storage, accounting, and eviction only. The estimation
// algorithms that fill and read entries live in repro/lsample, which is
// also where the determinism contract (reused estimates byte-identical to
// their from-scratch equivalents) is enforced and tested.
package catalog

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Reuse classifications recorded per execution. Release maps them onto the
// hit/extension/miss counters.
const (
	ReuseNone      = "none"      // entry was empty: this execution materialized it
	ReuseDirect    = "direct"    // plan fully covered: sampling+learning skipped
	ReuseExtension = "extension" // plan partially covered: sample topped up / retrained
)

// Key identifies one materialized plan. All components are canonical
// strings so keys are comparable and printable; String joins them with an
// unambiguous separator.
type Key struct {
	// Snapshot is the sorted "name@snapID,…" identity of every table
	// snapshot the query reads. Any data change produces a different
	// snapshot identity, so stale entries can never serve new data.
	Snapshot string
	// Shard scopes the entry to one data partition ("" = unsharded). A
	// sharded executor sets it to the shard's identity so per-shard
	// artifacts compose without colliding — the key scheme is designed for
	// the planned scale-out partitioning.
	Shard string
	// Query is the Q1 shape: the canonical object-enumeration query (Q2)
	// fingerprinted with only the parameters Q2 itself reads. Predicate-only
	// (Q3) parameters are deliberately excluded so predicate variants of
	// the same shape share an entry.
	Query string
	// Features is the sorted feature-column set ("-" for feature-free
	// plans).
	Features string
	// Plan is the estimator identity: method, classifier, strata, seed —
	// everything that changes the learned artifacts. The labeling budget is
	// deliberately NOT part of the plan: budget changes are what the
	// extension path absorbs.
	Plan string
}

// String renders the canonical map key.
func (k Key) String() string {
	return k.Snapshot + "\x1f" + k.Shard + "\x1f" + k.Query + "\x1f" + k.Features + "\x1f" + k.Plan
}

// SnapshotTables parses the Snapshot component into (table name, snapshot
// id) pairs; malformed parts yield ok=false. Invalidation hooks use it to
// match entries against the currently served snapshot set.
func (k Key) SnapshotTables() (pairs map[string]uint64, ok bool) {
	pairs = make(map[string]uint64)
	for _, part := range strings.Split(k.Snapshot, ",") {
		name, idStr, found := strings.Cut(part, "@")
		if !found || name == "" {
			return nil, false
		}
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			return nil, false
		}
		pairs[name] = id
	}
	return pairs, true
}

// Entry is one materialized plan. The artifact fields are guarded by the
// entry mutex (Lock/Unlock), which executions hold for the whole
// estimation — concurrent identical plans therefore serialize on the entry
// and the followers reuse the leader's labels, which is exactly the
// coalescing a shared catalog wants. Accounting fields are guarded by the
// owning catalog's mutex.
type Entry struct {
	// Key is the identity the entry was acquired under.
	Key Key

	mu sync.Mutex

	// Budget is the labeling budget the artifacts were materialized at
	// (0 = empty entry awaiting materialization).
	Budget int
	// KLearn is the learn-sample size the lss design was trained at.
	KLearn int
	// Scores is the lss stratification design: object key → classifier
	// score, covering every object of the materialized plan's enumeration
	// (nil for feature-free plans). Scores are only a stratification
	// function, so reusing them under a different predicate fingerprint is
	// legitimate: estimates stay unbiased. Stratum cuts are recomputed from
	// them on every run.
	Scores map[int64]float64

	// spaces holds per-predicate-fingerprint label memos: labels are pure
	// functions of (snapshot, key, predicate), so a memo hit is
	// byte-identical to a fresh evaluation.
	spaces map[string]*labelSpace

	// accounting, guarded by the catalog mutex
	bytes int64
	uses  int64
	last  int64
	pins  int
}

// labelSpace is the label memo for one predicate fingerprint.
type labelSpace struct {
	labels map[int64]bool
	last   int64
}

// maxLabelSpaces bounds per-entry predicate variants; the least recently
// used space is dropped when a new fingerprint would exceed it.
const maxLabelSpaces = 16

// Lock acquires the entry's artifact mutex for one execution.
func (e *Entry) Lock() { e.mu.Lock() }

// Unlock releases the artifact mutex.
func (e *Entry) Unlock() { e.mu.Unlock() }

// Labels returns the label memo for the given predicate fingerprint,
// creating it (and evicting the least recently used space past the cap) on
// first use. Callers must hold the entry lock.
func (e *Entry) Labels(fp string, clock int64) map[int64]bool {
	if e.spaces == nil {
		e.spaces = make(map[string]*labelSpace)
	}
	sp, ok := e.spaces[fp]
	if !ok {
		if len(e.spaces) >= maxLabelSpaces {
			oldFP, oldLast := "", int64(0)
			for f, s := range e.spaces {
				if oldFP == "" || s.last < oldLast {
					oldFP, oldLast = f, s.last
				}
			}
			delete(e.spaces, oldFP)
		}
		sp = &labelSpace{labels: make(map[int64]bool)}
		e.spaces[fp] = sp
	}
	sp.last = clock
	return sp.labels
}

// sizeLocked estimates the entry's resident bytes; callers must hold the
// entry mutex. Map overheads are approximated per element — the point is
// proportionality for the eviction policy, not byte-exact accounting.
func (e *Entry) sizeLocked() int64 {
	b := int64(256)
	b += int64(len(e.Scores)) * 24
	for _, sp := range e.spaces {
		b += 64 + int64(len(sp.labels))*17
	}
	return b
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	Entries    int   // materialized plans currently resident
	Bytes      int64 // estimated resident bytes across all entries
	Hits       int64 // direct-reuse executions
	Extensions int64 // extension executions (sample top-up / retrain)
	Misses     int64 // materializing executions
	Evictions  int64 // entries removed by the byte budget or invalidation
}

// Catalog is a thread-safe store of materialized plans with a byte budget.
type Catalog struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[string]*Entry
	bytes    int64
	clock    int64

	hits, exts, misses, evictions int64
}

// DefaultMaxBytes is the byte budget used when New is given a non-positive
// one.
const DefaultMaxBytes = 64 << 20

// New returns an empty catalog with the given byte budget (<= 0 selects
// DefaultMaxBytes).
func New(maxBytes int64) *Catalog {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Catalog{maxBytes: maxBytes, entries: make(map[string]*Entry)}
}

// SetMaxBytes adjusts the byte budget and evicts down to it immediately.
func (c *Catalog) SetMaxBytes(maxBytes int64) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c.mu.Lock()
	c.maxBytes = maxBytes
	c.evictLocked()
	c.mu.Unlock()
}

// Acquire returns the entry for k, creating an empty one on a miss. The
// entry is pinned (exempt from eviction) until the matching Release. The
// caller then takes the entry lock, inspects/updates the artifacts, and
// finally calls Release with the reuse classification.
func (c *Catalog) Acquire(k Key) *Entry {
	ks := k.String()
	c.mu.Lock()
	e, ok := c.entries[ks]
	if !ok {
		e = &Entry{Key: k}
		c.entries[ks] = e
	}
	c.clock++
	e.uses++
	e.last = c.clock
	e.pins++
	c.mu.Unlock()
	return e
}

// Clock returns a monotonically increasing stamp for label-space recency.
func (c *Catalog) Clock() int64 {
	c.mu.Lock()
	c.clock++
	v := c.clock
	c.mu.Unlock()
	return v
}

// Release unpins the entry, re-accounts its size, records the execution's
// reuse classification (one of the Reuse constants; "" records nothing,
// e.g. after an error), and enforces the byte budget. An entry that was
// invalidated while pinned is simply dropped from accounting.
//
// The size is measured before taking the catalog mutex: executions hold
// the entry lock across the whole estimation and call Clock() under it, so
// the lock order is entry.mu → catalog.mu, never the reverse. A concurrent
// mutation between measuring and accounting only makes the size estimate
// momentarily stale; that execution's own Release re-measures.
func (c *Catalog) Release(e *Entry, reuse string) {
	e.mu.Lock()
	size := e.sizeLocked()
	e.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch reuse {
	case ReuseDirect:
		c.hits++
	case ReuseExtension:
		c.exts++
	case ReuseNone:
		c.misses++
	}
	if e.pins > 0 {
		e.pins--
	}
	if cur, ok := c.entries[e.Key.String()]; ok && cur == e {
		c.bytes += size - e.bytes
		e.bytes = size
		c.evictLocked()
	}
}

// evictLocked enforces the byte budget: while over it, the unpinned entry
// with the lowest uses/bytes density (oldest on ties) is dropped. Pinned
// entries — executions in flight — are never evicted.
func (c *Catalog) evictLocked() {
	for c.bytes > c.maxBytes {
		var victim *Entry
		var victimKey string
		var victimScore float64
		for ks, e := range c.entries {
			if e.pins > 0 {
				continue
			}
			score := float64(e.uses) / float64(e.bytes+1)
			if victim == nil || score < victimScore ||
				(score == victimScore && e.last < victim.last) {
				victim, victimKey, victimScore = e, ks, score
			}
		}
		if victim == nil {
			return // everything resident is pinned; try again on next Release
		}
		delete(c.entries, victimKey)
		c.bytes -= victim.bytes
		c.evictions++
	}
}

// Invalidate drops every entry whose key matches pred, returning how many
// were removed. Pinned entries are removed from the map too — in-flight
// executions keep their reference and finish on the detached entry, whose
// updates are then simply dropped.
func (c *Catalog) Invalidate(pred func(Key) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for ks, e := range c.entries {
		if pred(e.Key) {
			delete(c.entries, ks)
			c.bytes -= e.bytes
			c.evictions++
			removed++
		}
	}
	return removed
}

// Stats returns the current accounting snapshot.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Extensions: c.exts,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
}

// Keys returns the resident keys, sorted by their canonical string form
// (diagnostics and tests).
func (c *Catalog) Keys() []Key {
	c.mu.Lock()
	out := make([]Key, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.Key)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
