package lsample

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// Reuse classifications reported in Estimate.Reuse by catalog-served
// executions.
const (
	// ReuseDirect reports that the catalog's label memo answered every
	// label: zero predicate evaluations, and no predicate was even built.
	ReuseDirect = catalog.ReuseDirect
	// ReuseExtension reports that the memo answered some labels and the
	// rest were bought: a larger budget over the same seed (the hash
	// bottom-k sample is a strict prefix extension), or a seed, method or
	// Q3 parameter nobody ran before over an entry earlier counts used.
	ReuseExtension = catalog.ReuseExtension
	// ReuseNone reports that no earlier execution had asked the entry (or
	// one of a sharded run's entries) for a label.
	ReuseNone = catalog.ReuseNone
)

// Catalog is the cross-query reuse catalog: a bounded, thread-safe store
// of what labeling bought — per-key labels per predicate, and nothing else:
// no sample, score, classifier or design — keyed by what a label depends
// on: (table snapshots, shard, Q1 shape, feature-column set). Attach one
// with WithCatalog (or WithCatalogBudget) and SQL executions of the srs,
// lss, and oracle methods stop paying twice for a label: every seed,
// budget and method that counts over the same snapshot finds the labels
// any earlier count bought, under size-weighted LFU eviction. A Catalog
// may be shared by any number of sessions and queries serving the same
// snapshots; see the package documentation ("Cross-query reuse catalog")
// for the determinism contract.
type Catalog struct {
	inner *catalog.Catalog
}

// NewCatalog returns an empty reuse catalog bounded to maxBytes of live
// entry bytes (<= 0 selects the default 64 MiB). The bound is on the heap
// the entries hold; a process's resident size runs about twice that under
// Go's default GOGC.
func NewCatalog(maxBytes int64) *Catalog {
	return &Catalog{inner: catalog.New(maxBytes)}
}

// SetMaxBytes adjusts the catalog's byte budget, evicting immediately if
// the resident artifacts exceed the new bound.
func (c *Catalog) SetMaxBytes(maxBytes int64) { c.inner.SetMaxBytes(maxBytes) }

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
	return CatalogStats(c.inner.Stats())
}

// EvictStale drops every entry that references a table snapshot no longer
// in current (keyed by table name): a different pinned snapshot of the
// same name, or a name absent from current entirely. Serving layers call
// it whenever a registration or ingest publishes a new snapshot, so a
// replaced table can never keep serving reuse hits from its old data.
// It returns the number of entries dropped.
func (c *Catalog) EvictStale(current map[string]*Table) int {
	ids := make(map[string]uint64, len(current))
	for name, t := range current {
		if t != nil {
			ids[name] = t.snapshotID()
		}
	}
	return c.inner.Invalidate(func(k catalog.Key) bool {
		pairs, ok := k.SnapshotTables()
		if !ok {
			return true
		}
		for name, id := range pairs {
			if ids[name] != id {
				return true
			}
		}
		return false
	})
}

// catalogKey builds the entry identity for one execution of this prepared
// query, less the Shard component its worker adds: pinned snapshot ids, the
// Q2 fingerprint under only the parameters Q2 reads (so Q3-only parameter
// changes share the entry, a label space each), and the feature-column set.
// An entry holds only labels, and a label is a pure function of (snapshot,
// key, predicate), so every seed and budget of every plan over that feature
// set shares the one entry.
func (q *PreparedQuery) catalogKey(strs map[string]string, featCols []string) catalog.Key {
	parts := make([]string, 0, len(q.snaps))
	for name, t := range q.snaps {
		parts = append(parts, fmt.Sprintf("%s@%d", name, t.snapshotID()))
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
	return catalog.Key{
		Snapshot: strings.Join(parts, ","),
		Query:    sql.Fingerprint(q.dec.Objects, q2strs),
		Features: feats,
	}
}
