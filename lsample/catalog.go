package lsample

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/predicate"
	"repro/internal/qcompile"
	"repro/internal/sql"
)

// Reuse classifications reported in Estimate.Reuse by catalog-served
// executions.
const (
	// ReuseDirect reports that the catalog's label memo answered every
	// label: zero predicate evaluations, and no predicate was even built.
	ReuseDirect = "direct"
	// ReuseExtension reports that the memo answered some labels and the
	// rest were bought: a larger budget over the same seed (the hash
	// bottom-k sample is a strict prefix extension), or a seed, method or
	// Q3 parameter nobody ran before over an entry earlier counts used.
	ReuseExtension = "extension"
	// ReuseNone reports that no earlier execution had asked the entry (or
	// one of a sharded run's entries) for a label.
	ReuseNone = "none"
)

// Catalog is the cross-query reuse catalog: a bounded, thread-safe store
// of what labeling bought — per-key labels per predicate, and nothing else:
// no sample, score, classifier or design — keyed by what a label depends
// on: (table snapshots, shard, Q1 shape, feature-column set). Attach one
// with WithCatalog and SQL executions of the srs, lss, and oracle methods
// stop paying twice for a label: every seed, budget and method that counts
// over the same snapshot finds the labels any earlier count bought, under
// size-weighted LFU eviction. A Catalog
// may be shared by any number of sessions and queries serving the same
// snapshots; see the package documentation ("Cross-query reuse catalog")
// for the determinism contract.
type Catalog struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[catalogKey]*catalogEntry
	clock    int64        // stamps entry and label-space recency
	stats    CatalogStats // kept current under mu
}

// defaultCatalogBytes is the byte budget a non-positive one selects.
const defaultCatalogBytes = 64 << 20

// NewCatalog returns an empty reuse catalog bounded to maxBytes of live
// entry bytes (<= 0 selects the default 64 MiB). The bound is on the heap
// the entries hold; a process's resident size runs about twice that under
// Go's default GOGC.
func NewCatalog(maxBytes int64) *Catalog {
	if maxBytes <= 0 {
		maxBytes = defaultCatalogBytes
	}
	return &Catalog{maxBytes: maxBytes, entries: make(map[catalogKey]*catalogEntry)}
}

// CatalogStats is a point-in-time snapshot of a reuse catalog's
// accounting, in the shape the service's /v1/stats endpoint serves.
type CatalogStats struct {
	// Entries is the number of label memos currently resident: one per
	// (snapshots, shard, Q1 shape, feature-column set) counted over.
	Entries int `json:"entries"`
	// Bytes is the live heap the resident entries hold (within 25 % of a
	// heap profile's figure).
	Bytes int64 `json:"bytes"`
	// Hits counts direct-reuse executions (per entry asked for a label).
	Hits int64 `json:"hits"`
	// Extensions counts executions that reused some labels and bought
	// others.
	Extensions int64 `json:"extensions"`
	// Misses counts executions on an entry never asked for a label before.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed by the byte budget or invalidation.
	Evictions int64 `json:"evictions"`
}

// Stats returns the catalog's current accounting snapshot.
func (c *Catalog) Stats() CatalogStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EvictStale drops every entry that references a table snapshot no longer
// in current (keyed by table name): a different pinned snapshot of the
// same name, or a name absent from current entirely. Serving layers call
// it whenever a registration or ingest publishes a new snapshot, so a
// replaced table can never keep serving reuse hits from its old data.
// It returns the number of entries dropped. Pinned entries go too: an
// execution in flight finishes on its detached entry, whose updates are
// then simply dropped.
func (c *Catalog) EvictStale(current map[string]*Table) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for _, e := range c.entries {
		for name, id := range e.snapIDs {
			if t := current[name]; t == nil || t.snapshotID() != id {
				c.dropLocked(e)
				removed++
				break
			}
		}
	}
	return removed
}

// catalogKey identifies one entry by what a label depends on besides its
// predicate. No seed, budget, method, classifier or stratum count is in
// it: hash bottom-k samples are pure functions of (key, seed, tag), so an
// execution recomputes its sample and finds in the memo whichever labels an
// earlier one paid for.
type catalogKey struct {
	// snapshot is the sorted "name@snapID,…" identity of every table
	// snapshot the query reads: any data change makes a different key, so
	// a stale entry can never serve new data.
	snapshot string
	// shard scopes the entry to one hash partition of the population ("" =
	// the whole of it, one worker).
	shard string
	// query is the Q1 shape: the object-enumeration query (Q2)
	// fingerprinted with only the parameters Q2 itself reads, so predicate
	// variants of one shape share an entry, one space per predicate without
	// its count threshold.
	query string
	// features is the sorted feature-column set ("-" for feature-free
	// plans). No label depends on it; it keeps an oracle or srs pass from
	// pre-labeling the entry an lss plan over the same data is priced on.
	features string
}

// catalogKey builds the entry identity for one execution of this prepared
// query, less the shard component its worker adds, and the name → snapshot
// id map the entry is stamped with for EvictStale: pinned snapshot ids, the
// Q2 fingerprint under only the parameters Q2 reads (so Q3-only parameter
// changes share the entry, one space per predicate without its count
// threshold), and the feature-column set.
// An entry holds only labels, and a label is a pure function of (snapshot,
// key, predicate), so every seed and budget of every plan over that feature
// set shares the one entry.
func (q *PreparedQuery) catalogKey(strs map[string]string, featCols []string) (catalogKey, map[string]uint64) {
	ids := make(map[string]uint64, len(q.snaps))
	parts := make([]string, 0, len(q.snaps))
	for name, t := range q.snaps {
		ids[name] = t.snapshotID()
		parts = append(parts, fmt.Sprintf("%s@%d", name, ids[name]))
	}
	sort.Strings(parts)
	q2strs := make(map[string]string, len(strs))
	for name, v := range strs {
		if q.q2IDs[name] {
			q2strs[name] = v
		}
	}
	feats := "-"
	if len(featCols) > 0 {
		feats = strings.Join(featCols, ",")
	}
	return catalogKey{
		snapshot: strings.Join(parts, ","),
		query:    sql.Fingerprint(q.dec.Objects, q2strs),
		features: feats,
	}, ids
}

// countThreshold names the parameter a compiled HAVING COUNT(*) <op> p
// compares the group's row count with, and op, when p appears nowhere else
// in the query: a label space keyed without p then serves every value of
// it. Anything else — the interpreter, a literal or computed threshold, a p
// read by Q2 or elsewhere in Q3 — returns "".
func countThreshold(shape *sql.SelectStmt, prog *qcompile.Program) (param, op string) {
	if prog == nil {
		return "", ""
	}
	name, op, ok := prog.CountParam()
	if !ok {
		return "", ""
	}
	uses := 0
	sql.WalkStmtDeep(shape, func(e sql.Expr) {
		if cr, ok := e.(*sql.ColumnRef); ok && cr.Name == name {
			uses++
		}
	}, nil)
	if uses != 1 {
		return "", ""
	}
	return name, op
}

// countSpace returns the comparison this binding's threshold makes and the
// fingerprint, less the threshold, of the count space that answers it — ""
// unless the query has a count parameter (countThreshold) bound to a finite
// number. Each execution still evaluates at its own threshold; only which
// labels a stored bound settles depends on it.
func (q *PreparedQuery) countSpace(vals map[string]engine.Value, strs map[string]string) (countRule, string) {
	if q.countParam == "" {
		return countRule{}, ""
	}
	var t float64
	switch v := vals[q.countParam]; v.Kind {
	case engine.KInt:
		t = float64(v.I)
	case engine.KFloat:
		t = v.F
	default:
		return countRule{}, ""
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return countRule{}, ""
	}
	rest := maps.Clone(strs)
	delete(rest, q.countParam)
	return countRule{op: q.countOp, t: t}, "count " + sql.Fingerprint(q.shape, rest)
}

// catalogEntry is one label memo. The embedded mutex guards materialized
// and spaces; an execution takes it only to read labels and to write fresh
// ones back — never while a predicate runs, so executions of any seed and
// budget share an entry concurrently. The accounting fields are guarded by
// the catalog's mutex.
type catalogEntry struct {
	sync.Mutex
	key     catalogKey
	snapIDs map[string]uint64 // the snapshot ids key.snapshot names, by table

	// materialized reports that some execution has asked the entry for a
	// label: the ones after it reuse, the one that set it did not.
	materialized bool
	// spaces holds one label space per predicate without its count
	// threshold: a count space per threshold-free fingerprint for a compiled
	// HAVING COUNT(*) <op> p, a one-bit space per predicate fingerprint for
	// every other predicate. Labels are pure functions of (snapshot, key,
	// predicate), so a memo hit is byte-identical to a fresh evaluation.
	spaces map[string]*labelSpace

	bytes, uses, last int64
	pins              int
}

// labelSpace is the label memo for one predicate fingerprint: one bit per
// key, or, for a count space, what count-reporting evaluations learned of
// each key's group size, which answers the predicate at every threshold it
// settles (countBound).
type labelSpace struct {
	labels map[int64]bool
	counts map[int64]countBound // a count space's memo; nil in a one-bit space
	last   int64
}

// countBound bounds one object's group row count c: lo = hi = c once a walk
// completed, hi = unbounded while walks only stopped early at lo rows. Both
// saturate at unbounded, a weaker fact, never a false one, and the pair fits
// the 16-byte slot a map[int64]bool pads to. Writers only intersect, so a
// racing writer can only tighten a bound.
type countBound struct{ lo, hi int32 }

const unbounded = math.MaxInt32

func boundOf(c predicate.Count) countBound {
	lo := int32(min(c.N, unbounded))
	if c.Exact {
		return countBound{lo, lo}
	}
	return countBound{lo, unbounded}
}

func (b countBound) meet(o countBound) countBound {
	return countBound{max(b.lo, o.lo), min(b.hi, o.hi)}
}

// countRule is the comparison a count space answers at for one execution:
// HAVING COUNT(*) op t.
type countRule struct {
	op string
	t  float64
}

// label is the predicate at r's threshold, when b settles it.
func (b countBound) label(r countRule) (label, settled bool) {
	return qcompile.CountSettles(r.op, r.t, int64(b.lo), b.hi != unbounded)
}

// maxLabelSpaces bounds per-entry predicate variants; the least recently
// used space is dropped when a new fingerprint would exceed it.
const maxLabelSpaces = 16

// acquire pins the entry for k — creating an empty one stamped with
// snapIDs on a miss — and returns it with its label space under fp (a count
// space when counted) and whether an earlier execution had asked it for a
// label. The pin exempts the entry from eviction until the matching
// release; the caller takes the entry's lock around each read and write of
// the space.
func (c *Catalog) acquire(k catalogKey, snapIDs map[string]uint64, fp string, counted bool) (e *catalogEntry, sp *labelSpace, materialized bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &catalogEntry{key: k, snapIDs: snapIDs}
		c.entries[k] = e
		c.stats.Entries++
	}
	c.clock++
	stamp := c.clock
	e.uses++
	e.last = stamp
	e.pins++
	c.mu.Unlock()
	e.Lock()
	defer e.Unlock()
	return e, e.space(fp, counted, stamp), e.materialized
}

// space returns the label space under fp, creating it — a count space when
// counted — and dropping the least recently used space past the cap on
// first use. Callers must hold the entry lock.
func (e *catalogEntry) space(fp string, counted bool, clock int64) *labelSpace {
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
		if counted {
			sp.labels, sp.counts = nil, make(map[int64]countBound)
		}
		e.spaces[fp] = sp
	}
	sp.last = clock
	return sp
}

// release unpins the entry, records the execution's reuse classification
// (one of the Reuse constants; "" records nothing: the execution asked the
// entry for no label, and it stays as materialized as it was), re-accounts
// its size and enforces the byte budget. An entry EvictStale dropped while
// pinned is left out of the accounting.
func (c *Catalog) release(e *catalogEntry, reuse string) {
	e.Lock()
	if reuse != "" {
		e.materialized = true
	}
	size := e.sizeLocked()
	e.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch reuse {
	case ReuseDirect:
		c.stats.Hits++
	case ReuseExtension:
		c.stats.Extensions++
	case ReuseNone:
		c.stats.Misses++
	}
	e.pins--
	if c.entries[e.key] == e {
		c.stats.Bytes += size - e.bytes
		e.bytes = size
		c.evictLocked()
	}
}

// evictLocked enforces the byte budget: while over it, the unpinned entry
// with the lowest uses/bytes density (oldest on ties) is dropped. Pinned
// entries — executions in flight — are never evicted.
func (c *Catalog) evictLocked() {
	for c.stats.Bytes > c.maxBytes {
		var victim *catalogEntry
		var victimScore float64
		for _, e := range c.entries {
			if e.pins > 0 {
				continue
			}
			score := float64(e.uses) / float64(e.bytes+1)
			if victim == nil || score < victimScore ||
				(score == victimScore && e.last < victim.last) {
				victim, victimScore = e, score
			}
		}
		if victim == nil {
			return // everything resident is pinned; try again on next release
		}
		c.dropLocked(victim)
	}
}

// dropLocked removes a resident entry from the catalog and its accounting.
func (c *Catalog) dropLocked(e *catalogEntry) {
	delete(c.entries, e.key)
	c.stats.Entries--
	c.stats.Bytes -= e.bytes
	c.stats.Evictions++
}

// sizeLocked is the entry's resident bytes — what a heap profile would
// charge it, to within allocator rounding (TestCatalogAccountsResidentBytes
// holds it to ± 25 % of the measured heap): the struct with its key
// strings, the catalog's map slot (its key shares those strings), the
// snapshot-id map (shared by a layout's shard entries, charged to each),
// and per label space its memo at what a Go map costs (a count bound fills
// the 16-byte slot a label pads to).
// Callers must hold the entry lock.
func (e *catalogEntry) sizeLocked() int64 {
	k := e.key
	b := int64(unsafe.Sizeof(*e)) + int64(len(k.snapshot)+len(k.shard)+len(k.query)+len(k.features))
	b += 2 * int64(unsafe.Sizeof(k)+8) // Catalog.entries: a key and pointer slot at a typical half load
	b += mapBytes(len(e.snapIDs), 16+8)
	if e.spaces != nil {
		b += mapBytes(len(e.spaces), 16+8)
		for fp, sp := range e.spaces {
			b += int64(len(fp)) + int64(unsafe.Sizeof(*sp))
			if sp.counts != nil {
				b += mapBytes(len(sp.counts), 8+8)
			} else {
				b += mapBytes(len(sp.labels), 8+8)
			}
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
