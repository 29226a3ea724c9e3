package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/lsample"
)

// Registry is the shared, thread-safe dataset catalog. Served tables are
// immutable snapshots (the engine only reads them); replacing a table under
// the same name bumps a monotonic version, which cache keys incorporate so
// stale results can never be served after a reload. Live datasets register
// their mutable LiveTable alongside the current pinned snapshot: ingestion
// applies deltas to the live table and Repin publishes the new snapshot
// under a fresh version, giving streaming updates the same cache-soundness
// as full re-registration.
type Registry struct {
	mu      sync.RWMutex
	tables  map[string]*tableEntry
	counter atomic.Uint64
}

type tableEntry struct {
	t       *lsample.Table
	version uint64
	live    *lsample.LiveTable // nil for static registrations
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tables: make(map[string]*tableEntry)}
}

// Register adds or replaces the table under its name, returning the
// assigned version. The caller must not mutate t afterwards.
func (r *Registry) Register(t *lsample.Table) uint64 {
	v := r.counter.Add(1)
	r.mu.Lock()
	r.tables[t.Name()] = &tableEntry{t: t, version: v}
	r.mu.Unlock()
	return v
}

// RegisterLive adds or replaces a live dataset, serving its current pinned
// snapshot. Later ingests mutate the live table and Repin the entry.
func (r *Registry) RegisterLive(lt *lsample.LiveTable) uint64 {
	v := r.counter.Add(1)
	r.mu.Lock()
	r.tables[lt.Name()] = &tableEntry{t: lt.Snapshot(), version: v, live: lt}
	r.mu.Unlock()
	return v
}

// Live returns the named dataset's live table, if it was registered live.
func (r *Registry) Live(name string) (*lsample.LiveTable, bool) {
	r.mu.RLock()
	e, ok := r.tables[name]
	r.mu.RUnlock()
	if !ok || e.live == nil {
		return nil, false
	}
	return e.live, true
}

// Repin publishes the live dataset's newest snapshot under a fresh
// version; requests started against the previous pin keep their snapshot.
// lt must still be the registered live table — a mismatch means the
// dataset was re-registered concurrently (the ingested rows went to an
// orphaned table) and Repin refuses rather than publishing the wrong data.
func (r *Registry) Repin(name string, lt *lsample.LiveTable) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.tables[name]
	if !ok || e.live == nil || e.live != lt {
		return 0, false
	}
	v := r.counter.Add(1)
	r.tables[name] = &tableEntry{t: e.live.Snapshot(), version: v, live: e.live}
	return v, true
}

// Current returns the currently served snapshot of every registered table,
// keyed by name; reuse-catalog invalidation compares entries against it.
func (r *Registry) Current() map[string]*lsample.Table {
	r.mu.RLock()
	out := make(map[string]*lsample.Table, len(r.tables))
	for name, e := range r.tables {
		out[name] = e.t
	}
	r.mu.RUnlock()
	return out
}

// Get returns the named table and its registration version.
func (r *Registry) Get(name string) (*lsample.Table, uint64, bool) {
	r.mu.RLock()
	e, ok := r.tables[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return e.t, e.version, true
}

// DatasetInfo describes one registered table.
type DatasetInfo struct {
	Name    string `json:"name"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Version uint64 `json:"version"`
	Live    bool   `json:"live,omitempty"` // accepts /v1/ingest deltas
}

// List returns all registered tables, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	out := make([]DatasetInfo, 0, len(r.tables))
	for name, e := range r.tables {
		out = append(out, DatasetInfo{
			Name:    name,
			Rows:    e.t.NumRows(),
			Cols:    e.t.NumCols(),
			Version: e.version,
			Live:    e.live != nil,
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pin is one consistent resolution of the tables a query references: the
// snapshots to execute against, their version vector (what every store
// tags its entries with), and the vector's canonical "name@version,…" form
// (what store keys, the admission queues and the shard version fence carry).
type Pin struct {
	Tables   map[string]*lsample.Table
	Vector   map[string]uint64
	Versions string
}

// Resolve pins every named table under one lock acquisition. names is only
// read: it may be the service's memoized table list for a query text.
func (r *Registry) Resolve(names []string) (Pin, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	p := Pin{
		Tables: make(map[string]*lsample.Table, len(sorted)),
		Vector: make(map[string]uint64, len(sorted)),
	}
	var ver strings.Builder
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, name := range sorted {
		e, ok := r.tables[name]
		if !ok {
			return Pin{}, fmt.Errorf("%w: unknown dataset %q", ErrBadRequest, name)
		}
		if i > 0 {
			ver.WriteByte(',')
		}
		ver.WriteString(name)
		ver.WriteByte('@')
		ver.WriteString(strconv.FormatUint(e.version, 10))
		p.Tables[name], p.Vector[name] = e.t, e.version
	}
	p.Versions = ver.String()
	return p, nil
}

// Serves reports whether every table of a version vector is still the one
// the registry serves — false once any of them was replaced or re-pinned.
func (r *Registry) Serves(vector map[string]uint64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, v := range vector {
		if e, ok := r.tables[name]; !ok || e.version != v {
			return false
		}
	}
	return true
}
