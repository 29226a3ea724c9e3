// Package catalog keeps what labeling bought — per-key labels, per predicate
// fingerprint — for every later execution over the same data. An entry is a
// label memo and nothing else, keyed by what a label depends on besides its
// predicate: (dataset snapshot, shard, Q1 shape, feature-column set). No
// seed, budget, method, classifier or stratum count is in the key and no
// sample, score or classifier in the entry: hash bottom-k samples are pure
// functions of (key, seed, tag), so an execution recomputes its sample and
// finds in the memo whichever labels an earlier one paid for, classifying
// itself by what the memo answered — direct (every label), extension
// (some), none (the entry had never been asked). Eviction is size-weighted
// LFU with pin protection; snapshot invalidation hooks let the serving
// layer drop entries the moment their data version is superseded.
//
// The package owns storage, accounting, and eviction only. The estimation
// that fills and reads entries lives in repro/lsample, which also enforces
// and tests the determinism contract: an estimate is byte-identical to its
// catalog-free equivalent, whatever the catalog holds.
package catalog

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// Reuse classifications recorded per execution. Release maps them onto the
// hit/extension/miss counters.
const (
	ReuseNone      = "none"      // the entry had never been asked for a label
	ReuseDirect    = "direct"    // every label came from the memo
	ReuseExtension = "extension" // some labels came from the memo, some were fresh
)

// Key identifies one entry. All components are canonical strings so keys
// are comparable and printable; String joins them with an unambiguous
// separator.
type Key struct {
	// Snapshot is the sorted "name@snapID,…" identity of every table
	// snapshot the query reads. Any data change produces a different
	// snapshot identity, so stale entries can never serve new data.
	Snapshot string
	// Shard scopes the entry to one hash partition of the population ("" =
	// the whole of it, one worker).
	Shard string
	// Query is the Q1 shape: the canonical object-enumeration query (Q2)
	// fingerprinted with only the parameters Q2 itself reads. Predicate-only
	// (Q3) parameters are deliberately excluded so predicate variants of
	// the same shape share an entry.
	Query string
	// Features is the sorted feature-column set ("-" for feature-free
	// plans). No label depends on it; it keeps an oracle or srs pass from
	// pre-labeling the entry an lss plan over the same data is priced on.
	Features string
}

// String renders the canonical map key.
func (k Key) String() string {
	return k.Snapshot + "\x1f" + k.Shard + "\x1f" + k.Query + "\x1f" + k.Features
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

// Entry is one label memo. Its fields are guarded by the entry mutex
// (Lock/Unlock), which an execution takes only to read labels and to write
// fresh ones back — never while a predicate runs, so executions of any seed
// and budget share an entry concurrently. Accounting fields are guarded by
// the owning catalog's mutex.
type Entry struct {
	// Key is the identity the entry was acquired under.
	Key Key

	mu sync.Mutex

	// Materialized reports that some execution has asked the entry for a
	// label: the ones after it reuse, the one that set it did not.
	Materialized bool

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

// Lock acquires the entry's mutex.
func (e *Entry) Lock() { e.mu.Lock() }

// Unlock releases the entry's mutex.
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

// sizeLocked is the entry's resident bytes — what a heap profile would
// charge it, to within allocator rounding (TestCatalogAccountsResidentBytes
// in repro/lsample holds it to ± 25 % of the measured heap): the struct,
// its key strings and the catalog's map slot with its copy of them, and per
// predicate fingerprint the label memo at what a Go map costs. Callers must
// hold the entry mutex.
func (e *Entry) sizeLocked() int64 {
	k := e.Key
	key := int64(len(k.Snapshot) + len(k.Shard) + len(k.Query) + len(k.Features))
	b := int64(unsafe.Sizeof(*e)) + key
	b += key + 4 + 2*(16+8) // Catalog.entries: the joined key string and a slot at a typical half load
	if e.spaces != nil {
		b += mapBytes(len(e.spaces), 16+8)
		for fp, sp := range e.spaces {
			b += int64(len(fp)) + int64(unsafe.Sizeof(*sp)) + mapBytes(len(sp.labels), 8+8)
		}
	}
	return b
}

// mapBytes is the heap behind a Go map of n entries whose key and value
// pad to slot bytes, as the runtime's swiss tables lay it out: a 48-byte
// header, then groups of eight slots with a control byte each, the slot
// count doubling whenever an insert would pass 7/8 full — so the cost per
// entry swings between about 1.15 and 2.6 slots, and a flat per-entry
// figure is wrong by up to half. (Measured at go1.24: a map[int64]bool of
// 26 / 105 / 300 labels holds 664 / 2 392 / 9 560 B; this gives 664 /
// 2 392 / 9 304.)
func mapBytes(n int, slot int64) int64 {
	const header = 48
	if n == 0 {
		return header // groups are allocated on the first insert
	}
	slots, table := 8, int64(0) // up to eight entries live in one bare group
	if n > slots {
		table = 40 // the table and its directory
		for slots*7/8 < n {
			slots *= 2
		}
	}
	return header + table + int64(slots)*(slot+1)
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	Entries    int   // label memos currently resident
	Bytes      int64 // resident bytes across all entries (Entry.sizeLocked)
	Hits       int64 // executions every label of which the memo answered
	Extensions int64 // executions that bought some labels and reused others
	Misses     int64 // executions on an entry never asked before
	Evictions  int64 // entries removed by the byte budget or invalidation
}

// Catalog is a thread-safe store of label memos with a byte budget.
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
// caller takes the entry lock around each read and write of its labels and
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
// reuse classification (one of the Reuse constants; "" records nothing: the
// execution asked the entry for no label), and enforces the byte budget. An
// entry that was invalidated while pinned is simply dropped from accounting.
//
// The size is measured before taking the catalog mutex: executions call
// Clock() under the entry lock, so the lock order is entry.mu → catalog.mu,
// never the reverse. A concurrent
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
