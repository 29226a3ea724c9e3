// Package live implements mutable datasets under the repository's
// otherwise-immutable table model: a live.Table accepts append/update/delete
// batches and publishes immutable MVCC snapshots that satisfy the same
// contract as any other *dataset.Table, so the whole estimation pipeline
// (engine, qcompile, feature selection, the paper's methods) runs unchanged
// against a pinned snapshot while ingestion continues.
//
// # Snapshot model
//
// Storage is columnar and append-only within an epoch: an append extends the
// column arrays, and a snapshot is a dataset.Prefix view sharing that
// storage — O(columns), not O(rows). Updates and deletes tombstone rows;
// the next snapshot compacts live rows into fresh arrays and bumps the
// epoch. Two snapshots of the same table with the same epoch are therefore
// literal prefixes of one another: every row of the older one appears at
// the same position with the same values in the newer one. Incremental
// consumers (hash-index patching, feature-matrix extension, label memos)
// key their fast path on exactly this prefix property; an epoch change
// tells them to rebuild.
//
// Versions increase by one per applied batch and identify snapshots for
// cache keys; epochs only change when row positions move.
package live

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// Op is one mutation kind within a Batch.
type Op uint8

// Op values.
const (
	// OpAppend inserts a new row (a new key, when the table has a key column).
	OpAppend Op = iota
	// OpUpdate replaces the row with the given key by a new full row.
	OpUpdate
	// OpDelete removes the row with the given key.
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpAppend:
		return "append"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Row is one mutation: an operation, the addressed key (updates and
// deletes), and the full row values in schema order (appends and updates).
type Row struct {
	Op   Op
	Key  int64 // ignored for appends (derived from Vals when a key column exists)
	Vals []any // nil for deletes
}

// Batch is an ordered list of mutations applied atomically under the
// table's lock; a batch bumps the version exactly once.
type Batch struct {
	Rows []Row
}

// Summary reports what a batch (or a stream of batches) changed.
type Summary struct {
	Appended int
	Updated  int
	Deleted  int
	Batches  int
}

// Add accumulates another summary.
func (s *Summary) Add(o Summary) {
	s.Appended += o.Appended
	s.Updated += o.Updated
	s.Deleted += o.Deleted
	s.Batches += o.Batches
}

// Rows returns the total number of mutated rows.
func (s Summary) Rows() int { return s.Appended + s.Updated + s.Deleted }

// Table is a mutable dataset: columnar storage plus a tombstone bitmap,
// with per-batch versioning and snapshot publication. Safe for concurrent
// use; snapshots taken at any time remain valid forever.
type Table struct {
	mu     sync.Mutex
	name   string
	schema dataset.Schema
	keyCol int // -1 when the table has no key column (append-only)

	store   *dataset.Table
	tomb    []bool
	nTomb   int
	keyIdx  map[int64]int // key -> storage row, live rows only
	version uint64
	epoch   uint64

	appended, updated, deleted uint64 // lifetime counters

	snap *Snapshot // cached snapshot for the current version

	// Durability (nil/zero for memory-only tables; see OpenDurable).
	log      *wal.Log
	autoCkpt int64 // checkpoint when the log grows past this many bytes
	closed   bool
}

// Snapshot is one immutable published state of a live table. Tab satisfies
// the usual table contract; Version identifies the state for cache keys;
// (Epoch, Rows) let incremental consumers detect the prefix-extension fast
// path: two snapshots with equal Epoch are prefixes of one another.
type Snapshot struct {
	Tab     *dataset.Table
	Version uint64
	Epoch   uint64
	Rows    int
}

// New returns an empty live table. keyCol names the unique int64 key column
// updates and deletes address rows by; it may be empty, making the table
// append-only (updates and deletes are then rejected).
func New(name string, schema dataset.Schema, keyCol string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("live: missing table name")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("live: empty schema")
	}
	kc := -1
	if keyCol != "" {
		kc = schema.Index(keyCol)
		if kc < 0 {
			return nil, fmt.Errorf("live: schema has no key column %q", keyCol)
		}
		if schema[kc].Kind != dataset.Int {
			return nil, fmt.Errorf("live: key column %q must be an int column", keyCol)
		}
	}
	return &Table{
		name:   name,
		schema: append(dataset.Schema(nil), schema...),
		keyCol: kc,
		store:  dataset.New(name, schema),
		keyIdx: make(map[int64]int),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. The caller must not modify it.
func (t *Table) Schema() dataset.Schema { return t.schema }

// KeyColumn returns the key column name, or "" for append-only tables.
func (t *Table) KeyColumn() string {
	if t.keyCol < 0 {
		return ""
	}
	return t.schema[t.keyCol].Name
}

// Version returns the current version (one increment per applied batch).
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// NumRows returns the number of live (non-tombstoned) rows.
func (t *Table) NumRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store.NumRows() - t.nTomb
}

// Append applies a single-row append batch.
func (t *Table) Append(vals ...any) error {
	_, err := t.Apply(&Batch{Rows: []Row{{Op: OpAppend, Vals: vals}}})
	return err
}

// Apply validates and applies one batch atomically, returning its summary.
// The batch either applies fully or not at all: validation runs before any
// mutation. Appends of an existing key (on keyed tables) and
// updates/deletes of a missing key are errors; updates and deletes on
// key-less tables are errors.
//
// On a durable table (OpenDurable) the batch is written and fsynced to the
// write-ahead log BEFORE any in-memory mutation: a nil return means the
// batch will survive a crash, and a durability error (wrapping
// wal.ErrUnavailable) means nothing was applied at all — memory and disk
// never diverge.
func (t *Table) Apply(b *Batch) (Summary, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLocked(b, true)
}

// applyLocked runs the validate → log → mutate pipeline. logIt is false
// only during recovery replay, where the record being applied is already on
// disk.
func (t *Table) applyLocked(b *Batch, logIt bool) (Summary, error) {
	if t.closed {
		return Summary{}, fmt.Errorf("live: table %q is closed: %w", t.name, wal.ErrUnavailable)
	}
	if t.log != nil && logIt {
		if err := t.log.Err(); err != nil {
			return Summary{}, fmt.Errorf("live: table %q: %w", t.name, err)
		}
	}
	if len(b.Rows) == 0 {
		return Summary{}, nil
	}
	sum, err := t.validateLocked(b)
	if err != nil {
		return Summary{}, err
	}
	if t.log != nil && logIt {
		// Write-ahead: the record must be durable before memory changes, so
		// an fsync failure leaves the table exactly as it was and the
		// client is never acknowledged for data disk does not have.
		if err := t.log.Append(wal.KindBatch, t.version+1, encodeBatch(t.schema, b)); err != nil {
			return Summary{}, fmt.Errorf("live: logging batch for %q: %w", t.name, err)
		}
		if err := t.log.Commit(); err != nil {
			return Summary{}, fmt.Errorf("live: committing batch for %q: %w", t.name, err)
		}
	}
	t.mutateLocked(b, sum)
	sum.Batches = 1
	if t.log != nil && logIt && t.autoCkpt > 0 && t.log.SizeSinceCheckpoint() > t.autoCkpt {
		// Bound replay cost. The batch above is already durable and
		// acknowledged; a checkpoint failure turns the log sticky-failed
		// and surfaces on the next Apply.
		t.checkpointLocked() //nolint:errcheck
	}
	return sum, nil
}

// validateLocked checks every row against the schema and the key index as
// it will be at that point in the batch, without mutating storage, and
// returns the would-be summary.
func (t *Table) validateLocked(b *Batch) (Summary, error) {
	// pendKeys tracks key liveness changes earlier batch rows would make.
	pendKeys := make(map[int64]bool) // key -> alive after the pending ops
	alive := func(k int64) bool {
		if v, ok := pendKeys[k]; ok {
			return v
		}
		_, ok := t.keyIdx[k]
		return ok
	}
	var sum Summary
	for ri, r := range b.Rows {
		switch r.Op {
		case OpAppend:
			if err := t.checkVals(r.Vals); err != nil {
				return Summary{}, fmt.Errorf("live: batch row %d: %w", ri, err)
			}
			if t.keyCol >= 0 {
				k := r.Vals[t.keyCol].(int64)
				if alive(k) {
					return Summary{}, fmt.Errorf("live: batch row %d: append of existing key %d (use update)", ri, k)
				}
				pendKeys[k] = true
			}
			sum.Appended++
		case OpUpdate:
			if t.keyCol < 0 {
				return Summary{}, fmt.Errorf("live: batch row %d: update on key-less table %q", ri, t.name)
			}
			if err := t.checkVals(r.Vals); err != nil {
				return Summary{}, fmt.Errorf("live: batch row %d: %w", ri, err)
			}
			if k := r.Vals[t.keyCol].(int64); k != r.Key {
				return Summary{}, fmt.Errorf("live: batch row %d: update key %d does not match row key %d", ri, r.Key, k)
			}
			if !alive(r.Key) {
				return Summary{}, fmt.Errorf("live: batch row %d: update of unknown key %d", ri, r.Key)
			}
			sum.Updated++
		case OpDelete:
			if t.keyCol < 0 {
				return Summary{}, fmt.Errorf("live: batch row %d: delete on key-less table %q", ri, t.name)
			}
			if !alive(r.Key) {
				return Summary{}, fmt.Errorf("live: batch row %d: delete of unknown key %d", ri, r.Key)
			}
			pendKeys[r.Key] = false
			sum.Deleted++
		default:
			return Summary{}, fmt.Errorf("live: batch row %d: unknown op %d", ri, int(r.Op))
		}
	}
	return sum, nil
}

// mutateLocked applies a validated batch: storage errors are impossible
// here, so the batch can never half-apply.
func (t *Table) mutateLocked(b *Batch, sum Summary) {
	for _, r := range b.Rows {
		switch r.Op {
		case OpAppend:
			t.store.MustAppendRow(r.Vals...)
			t.tomb = append(t.tomb, false)
			if t.keyCol >= 0 {
				t.keyIdx[r.Vals[t.keyCol].(int64)] = t.store.NumRows() - 1
			}
		case OpUpdate:
			old := t.keyIdx[r.Key]
			t.tomb[old] = true
			t.nTomb++
			t.store.MustAppendRow(r.Vals...)
			t.tomb = append(t.tomb, false)
			t.keyIdx[r.Key] = t.store.NumRows() - 1
		case OpDelete:
			old := t.keyIdx[r.Key]
			t.tomb[old] = true
			t.nTomb++
			delete(t.keyIdx, r.Key)
		}
	}
	t.appended += uint64(sum.Appended)
	t.updated += uint64(sum.Updated)
	t.deleted += uint64(sum.Deleted)
	t.version++
	t.snap = nil
}

// checkVals validates a full row against the schema (same kinds as
// dataset.Table.AppendRow, with int accepted for int64 convenience).
func (t *Table) checkVals(vals []any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("row has %d values, schema has %d columns", len(vals), len(t.schema))
	}
	for i, c := range t.schema {
		switch c.Kind {
		case dataset.Float:
			if _, ok := vals[i].(float64); !ok {
				return fmt.Errorf("column %q wants float64, got %T", c.Name, vals[i])
			}
		case dataset.Int:
			switch v := vals[i].(type) {
			case int64:
			case int:
				vals[i] = int64(v)
			default:
				return fmt.Errorf("column %q wants int64, got %T", c.Name, vals[i])
			}
		case dataset.String:
			if _, ok := vals[i].(string); !ok {
				return fmt.Errorf("column %q wants string, got %T", c.Name, vals[i])
			}
		}
	}
	return nil
}

// Snapshot publishes the current state as an immutable snapshot. With no
// tombstones outstanding this is O(columns): a prefix view over shared
// storage. Tombstones trigger a compaction first — live rows are copied to
// fresh arrays and the epoch is bumped, telling incremental consumers that
// row positions moved.
func (t *Table) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap != nil {
		return t.snap
	}
	if t.nTomb > 0 {
		t.compactLocked()
	}
	n := t.store.NumRows()
	t.snap = &Snapshot{
		Tab:     t.store.Prefix(n),
		Version: t.version,
		Epoch:   t.epoch,
		Rows:    n,
	}
	return t.snap
}

// compactLocked rewrites storage with live rows only, preserving order, and
// bumps the epoch. On durable tables it appends (without fsync — the record
// piggybacks on the next batch commit) a compaction record so replay
// reproduces the same epoch numbering; losing the record in a crash only
// shifts recovered epochs, never content, because compaction preserves
// live-row order. Caller holds t.mu.
func (t *Table) compactLocked() {
	n := t.store.NumRows()
	fresh := dataset.New(t.name, t.schema)
	vals := make([]any, len(t.schema))
	for r := 0; r < n; r++ {
		if t.tomb[r] {
			continue
		}
		for c := range t.schema {
			vals[c] = t.store.Value(r, c)
		}
		fresh.MustAppendRow(vals...)
		if t.keyCol >= 0 {
			t.keyIdx[vals[t.keyCol].(int64)] = fresh.NumRows() - 1
		}
	}
	t.store = fresh
	t.tomb = make([]bool, fresh.NumRows())
	t.nTomb = 0
	t.epoch++
	if t.log != nil && !t.closed {
		var payload [8]byte
		binary.LittleEndian.PutUint64(payload[:], t.epoch)
		// Best-effort: an error turns the log sticky-failed and surfaces on
		// the next Apply; the snapshot itself is still consistent.
		t.log.Append(wal.KindCompact, t.version, payload[:]) //nolint:errcheck
	}
}

// PrefixExtends reports whether newer extends older as a literal prefix:
// same epoch, at least as many rows. Both snapshots must come from the same
// table.
func PrefixExtends(older, newer *Snapshot) bool {
	return older != nil && newer != nil &&
		older.Epoch == newer.Epoch && older.Rows <= newer.Rows
}
