package lsample

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/live"
	"repro/internal/wal"
)

// LiveTable is a mutable dataset: it accepts append/update/delete batches
// while queries run against immutable pinned snapshots. Each applied batch
// bumps the table version; Snapshot pins the current state as a regular
// Table that stays valid forever. Appends publish in O(columns) — snapshots
// share columnar storage — while updates and deletes compact row storage on
// the next snapshot (an O(rows) copy) and start a new storage epoch.
//
// A LiveTable is safe for concurrent use: ingestion, snapshotting, and
// estimation over previously pinned snapshots may all overlap freely.
type LiveTable struct {
	lt *live.Table
}

// NewLiveTable creates an empty live table with the compact
// "name:kind,name:kind" schema used throughout the SDK. keyCol names the
// unique int column updates and deletes address rows by — required for the
// object table of refreshed queries; pass "" for an append-only table (for
// example, a fact table of events that are only ever added).
func NewLiveTable(name, schema, keyCol string) (*LiveTable, error) {
	sch, err := parseSchema(schema)
	if err != nil {
		return nil, err
	}
	lt, err := live.New(name, sch, keyCol)
	if err != nil {
		return nil, badf("%v", err)
	}
	return &LiveTable{lt: lt}, nil
}

// Name returns the table name queries refer to.
func (t *LiveTable) Name() string { return t.lt.Name() }

// KeyColumn returns the configured key column, or "" for append-only
// tables.
func (t *LiveTable) KeyColumn() string { return t.lt.KeyColumn() }

// Version returns the current version; it increases by one per applied
// batch.
func (t *LiveTable) Version() uint64 { return t.lt.Version() }

// NumRows returns the current number of live rows.
func (t *LiveTable) NumRows() int { return t.lt.NumRows() }

// NumCols returns the column count.
func (t *LiveTable) NumCols() int { return len(t.lt.Schema()) }

// Append applies a single-row append batch; values must match the schema
// kinds in order. For keyed tables the key must be new. On durable tables
// a nil return means the row is fsync-durable; a durability failure is
// reported via ErrUnavailable and applies nothing.
func (t *LiveTable) Append(vals ...any) error {
	if err := t.lt.Append(vals...); err != nil {
		return liveErr(err)
	}
	return nil
}

// Apply applies one delta batch atomically (all rows validate before any
// applies) and returns what changed. On durable tables the batch is logged
// and fsynced before it applies: a nil error means it survives a crash,
// and an ErrUnavailable error means nothing was applied.
func (t *LiveTable) Apply(b *DeltaBatch) (DeltaSummary, error) {
	sum, err := t.lt.Apply(&b.b)
	if err != nil {
		return DeltaSummary{}, liveErr(err)
	}
	return t.summary(sum), nil
}

// summary reports what sum changed, with the table version after it.
func (t *LiveTable) summary(sum live.Summary) DeltaSummary {
	return DeltaSummary{
		Appended: sum.Appended,
		Updated:  sum.Updated,
		Deleted:  sum.Deleted,
		Batches:  sum.Batches,
		Version:  t.lt.Version(),
	}
}

// ApplyDelta stream-parses a delta in the named format — "csv" (a header
// row, then append rows) or "ndjson" (one {"op":..., "key":..., "row":...}
// object per line, supporting append, update, and delete) — applying it in
// batches of batchRows (0 means a sensible default). Memory use is bounded
// by one batch, not the stream. Batches applied before a mid-stream error
// stay applied; the returned summary reports what was committed.
func (t *LiveTable) ApplyDelta(format string, r io.Reader, batchRows int) (DeltaSummary, error) {
	return t.ApplyDeltaStep(format, r, batchRows, nil)
}

// ApplyDeltaStep is ApplyDelta with a step callback invoked after each
// applied batch (carrying that batch's summary and the version serving
// it) — the hook replay tools use to refresh an estimate per batch. A nil
// step behaves like ApplyDelta; a step error aborts the remaining stream
// (the erroring batch itself stays applied).
func (t *LiveTable) ApplyDeltaStep(format string, r io.Reader, batchRows int, step func(DeltaSummary) error) (DeltaSummary, error) {
	f, err := live.ParseFormat(format)
	if err != nil {
		return DeltaSummary{}, badf("%v", err)
	}
	sum, perr := live.ParseDelta(t.lt.Schema(), f, r, batchRows, func(b *live.Batch) error {
		s, err := t.lt.Apply(b)
		if err != nil {
			return err
		}
		if step != nil {
			return step(t.summary(s))
		}
		return nil
	})
	out := t.summary(sum)
	if perr != nil {
		// Double-wrap: callers branch on ErrInvalid / ErrUnavailable, but
		// the underlying error (e.g. an http.MaxBytesError from a capped
		// ingest body) must stay reachable through the chain too.
		mark := ErrInvalid
		if errors.Is(perr, wal.ErrUnavailable) {
			mark = ErrUnavailable
		}
		return out, fmt.Errorf("%w: applying %s delta to %q: %w", mark, format, t.Name(), perr)
	}
	return out, nil
}

// Snapshot pins the current state as an immutable Table satisfying the
// ordinary DataSource contract: every current SDK method runs unchanged
// against it, and it never observes later mutations.
func (t *LiveTable) Snapshot() *Table {
	s := t.lt.Snapshot()
	return &Table{
		tab:  s.Tab,
		live: &liveMeta{src: t.lt, snap: s},
	}
}

// DeltaBatch builds one atomic mutation batch for LiveTable.Apply. The
// zero value is ready to use; methods return the batch for chaining.
type DeltaBatch struct {
	b live.Batch
}

// Append adds an append of a new row (schema order).
func (d *DeltaBatch) Append(vals ...any) *DeltaBatch {
	d.b.Rows = append(d.b.Rows, live.Row{Op: live.OpAppend, Vals: vals})
	return d
}

// Update adds a full-row replacement of the row with the given key; vals
// must carry the same key.
func (d *DeltaBatch) Update(key int64, vals ...any) *DeltaBatch {
	d.b.Rows = append(d.b.Rows, live.Row{Op: live.OpUpdate, Key: key, Vals: vals})
	return d
}

// Delete adds a deletion of the row with the given key.
func (d *DeltaBatch) Delete(key int64) *DeltaBatch {
	d.b.Rows = append(d.b.Rows, live.Row{Op: live.OpDelete, Key: key})
	return d
}

// Len returns the number of mutations in the batch.
func (d *DeltaBatch) Len() int { return len(d.b.Rows) }

// DeltaSummary reports what an applied delta changed and the table version
// after it.
type DeltaSummary struct {
	// Appended is the number of rows appended.
	Appended int
	// Updated is the number of rows replaced by key.
	Updated int
	// Deleted is the number of rows deleted by key.
	Deleted int
	// Batches is the number of atomic batches the delta applied as.
	Batches int
	// Version is the table version after the delta.
	Version uint64
}

// Rows returns the total number of mutated rows.
func (s DeltaSummary) Rows() int { return s.Appended + s.Updated + s.Deleted }

// LiveSource is a DataSource over live and static tables: Table returns the
// current pinned snapshot of a live table (or the static table as-is), so a
// Session.Refresh against it always sees the newest published state while
// every PreparedQuery keeps the snapshot it bound. Safe for concurrent use.
//
// Tables are resolved one at a time; replacing several related live tables
// "at once" can still interleave with a concurrent multi-table Prepare —
// the same caveat every DataSource carries.
type LiveSource struct {
	mu     sync.RWMutex
	static map[string]*Table
	lives  map[string]*LiveTable
}

// NewLiveSource returns a source serving the given static tables; register
// live tables with AddLive.
func NewLiveSource(tables ...*Table) *LiveSource {
	s := &LiveSource{static: make(map[string]*Table, len(tables)), lives: make(map[string]*LiveTable)}
	for _, t := range tables {
		s.static[t.Name()] = t
	}
	return s
}

// Add registers or replaces a static table.
func (s *LiveSource) Add(t *Table) {
	s.mu.Lock()
	s.static[t.Name()] = t
	delete(s.lives, t.Name())
	s.mu.Unlock()
}

// AddLive registers or replaces a live table.
func (s *LiveSource) AddLive(t *LiveTable) {
	s.mu.Lock()
	s.lives[t.Name()] = t
	delete(s.static, t.Name())
	s.mu.Unlock()
}

// Live returns the named live table, if registered as one.
func (s *LiveSource) Live(name string) (*LiveTable, bool) {
	s.mu.RLock()
	t, ok := s.lives[name]
	s.mu.RUnlock()
	return t, ok
}

// Table implements DataSource: live tables resolve to their current pinned
// snapshot.
func (s *LiveSource) Table(name string) (*Table, error) {
	s.mu.RLock()
	lt, okLive := s.lives[name]
	st, okStatic := s.static[name]
	s.mu.RUnlock()
	switch {
	case okLive:
		return lt.Snapshot(), nil
	case okStatic:
		return st, nil
	}
	return nil, badf("unknown dataset %q", name)
}

// Names implements DataSource.
func (s *LiveSource) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.static)+len(s.lives))
	for name := range s.static {
		out = append(out, name)
	}
	for name := range s.lives {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}
