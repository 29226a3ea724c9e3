package lsample

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/shard"
	"repro/internal/sql"
)

// Reuse classifications reported in Estimate.Reuse by catalog-served
// executions.
const (
	// ReuseDirect reports that materialized artifacts fully covered the
	// plan: sampling and learning were skipped.
	ReuseDirect = catalog.ReuseDirect
	// ReuseExtension reports partial coverage: the hash bottom-k sample was
	// topped up (a strict prefix extension) and the classifier retrained at
	// the new learn-sample size, reusing every memoized label.
	ReuseExtension = catalog.ReuseExtension
	// ReuseNone reports that this execution materialized a fresh entry.
	ReuseNone = catalog.ReuseNone
)

// Catalog is the cross-query reuse catalog: a bounded, thread-safe store
// of what labeling bought — hash-selected samples (as per-key labels) and,
// for lss, the learn sample's keys and training labels, never scores or a
// classifier — keyed by (table snapshots, Q1
// shape, feature-column set, estimation plan). Attach one with
// WithCatalog (or WithCatalogBudget) and SQL executions of the srs, lss,
// and oracle methods reuse each other's work: direct reuse when a plan is
// already materialized, deterministic sample extension when only the
// budget grew, materialization on a miss with size-weighted LFU eviction.
// A Catalog may be shared by any number of sessions and queries serving
// the same snapshots; see the package documentation ("Cross-query reuse
// catalog") for the determinism contract.
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
	// Entries is the number of materialized plans currently resident.
	Entries int `json:"entries"`
	// Bytes is the live heap the resident entries hold (within 25 % of a
	// heap profile's figure).
	Bytes int64 `json:"bytes"`
	// Hits counts direct-reuse executions.
	Hits int64 `json:"hits"`
	// Extensions counts extension executions (sample top-up / retrain).
	Extensions int64 `json:"extensions"`
	// Misses counts executions that materialized a fresh entry.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed by the byte budget or invalidation.
	Evictions int64 `json:"evictions"`
}

// Stats returns the catalog's current accounting snapshot.
func (c *Catalog) Stats() CatalogStats {
	s := c.inner.Stats()
	return CatalogStats{
		Entries:    s.Entries,
		Bytes:      s.Bytes,
		Hits:       s.Hits,
		Extensions: s.Extensions,
		Misses:     s.Misses,
		Evictions:  s.Evictions,
	}
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

// catalogKey builds the seed-free components of the entry identity for one
// execution of this prepared query: pinned snapshot ids, the Q2 fingerprint
// under only the parameters Q2 reads (so Q3-only parameter changes share
// the entry), and the feature-column set. The unsharded entry adds the
// estimation plan (config.planKey) — it stores an lss design, which the
// plan decides. A per-shard entry adds its Shard identity instead and stops
// there: it holds only labels, and a label is a pure function of
// (snapshot, key, predicate), so every seed and budget of every plan over
// that feature set shares the one entry.
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

// planKey is the unsharded entry's Plan component: method, classifier,
// strata, seed — everything that changes learned artifacts except the
// budget, which the extension path absorbs.
func (cfg config) planKey() string {
	clf, strata := "-", "-"
	if needsFeatures(cfg.method) {
		clf = cfg.classifier
		if clf == "" {
			clf = "rf"
		}
		strata = strconv.Itoa(shard.StrataCount(cfg.strata))
	}
	return cfg.method + "|" + clf + "|" + strata + "|" + strconv.FormatUint(cfg.seed, 10)
}
