package live

import (
	"encoding/binary"
	"fmt"
	"path"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// Spec names a durable table: its identity is persisted to meta.json on
// first open and verified on every reopen, so a data directory can never be
// silently reinterpreted under a different schema.
type Spec struct {
	Name   string
	Schema dataset.Schema
	KeyCol string // "" for append-only tables
}

// DurableOptions tunes OpenDurable. The zero value is production defaults
// over the real filesystem.
type DurableOptions struct {
	// FS is the filesystem to persist into (default wal.OS). Tests inject
	// faultfs here.
	FS wal.FS
	// SegmentBytes rotates WAL segments past this size (default 4 MiB).
	SegmentBytes int64
	// AutoCheckpointBytes checkpoints automatically once the log holds this
	// many bytes since the last checkpoint (default 64 MiB; < 0 disables).
	AutoCheckpointBytes int64
}

const (
	metaName           = "meta.json"
	defaultAutoCkpt    = 64 << 20
	maxCheckpointBytes = 1 << 32 // sanity bound when decoding
)

// OpenDurable opens (creating if absent) a durable live table rooted at
// dir. New directories get a meta.json identity and an empty WAL; existing
// ones are verified against spec, then recovered: the newest valid
// checkpoint is restored and every durable WAL record after it replayed, so
// the table resumes at exactly the state whose batches were acknowledged.
// Torn tails (a crash mid-append) are truncated; corrupt sealed segments or
// checkpoints are an error — recovery never loads garbage.
//
// When spec is nil the identity is read from meta.json, which must already
// exist.
func OpenDurable(dir string, spec *Spec, o DurableOptions) (*Table, error) {
	if o.FS == nil {
		o.FS = wal.OS
	}
	if o.AutoCheckpointBytes == 0 {
		o.AutoCheckpointBytes = defaultAutoCkpt
	}
	if err := o.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("live: creating %s: %w", dir, err)
	}

	metaPath := path.Join(dir, metaName)
	raw, readErr := o.FS.ReadFile(metaPath)
	switch {
	case readErr == nil:
		name, schema, keyCol, err := decodeMeta(raw)
		if err != nil {
			return nil, fmt.Errorf("live: %s: %w", metaPath, err)
		}
		if spec == nil {
			spec = &Spec{Name: name, Schema: schema, KeyCol: keyCol}
		} else if err := spec.matches(name, schema, keyCol); err != nil {
			return nil, fmt.Errorf("live: %s does not match requested table: %w", dir, err)
		}
	case spec == nil:
		return nil, fmt.Errorf("live: %s has no %s and no spec was given: %w", dir, metaName, readErr)
	default:
		data, err := encodeMeta(spec.Name, spec.Schema, spec.KeyCol)
		if err != nil {
			return nil, err
		}
		if err := wal.WriteAtomic(o.FS, metaPath, data); err != nil {
			return nil, fmt.Errorf("live: writing %s: %w", metaPath, err)
		}
	}

	t, err := New(spec.Name, spec.Schema, spec.KeyCol)
	if err != nil {
		return nil, err
	}

	log, rec, err := wal.Open(o.FS, dir, wal.Options{SegmentBytes: o.SegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("live: opening WAL for %q: %w", spec.Name, err)
	}
	if err := t.replay(rec); err != nil {
		log.Close() //nolint:errcheck
		return nil, err
	}
	// Attach the log only after replay: replayed records must not be
	// re-logged, and replay-triggered compactions must not emit records.
	t.mu.Lock()
	t.log = log
	t.autoCkpt = o.AutoCheckpointBytes
	t.mu.Unlock()
	return t, nil
}

func (s *Spec) matches(name string, schema dataset.Schema, keyCol string) error {
	if s.Name != name {
		return fmt.Errorf("directory holds table %q, want %q", name, s.Name)
	}
	if s.KeyCol != keyCol {
		return fmt.Errorf("directory key column is %q, want %q", keyCol, s.KeyCol)
	}
	if len(s.Schema) != len(schema) {
		return fmt.Errorf("directory schema has %d columns, want %d", len(schema), len(s.Schema))
	}
	for i, c := range schema {
		if s.Schema[i] != c {
			return fmt.Errorf("directory schema column %d is %s:%s, want %s:%s",
				i, c.Name, c.Kind, s.Schema[i].Name, s.Schema[i].Kind)
		}
	}
	return nil
}

// replay restores the checkpoint and applies every recovered record. The
// table has no log attached yet, so nothing here writes back to disk.
func (t *Table) replay(rec *wal.Recovery) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.Checkpoint != nil {
		if uint64(len(rec.Checkpoint)) > maxCheckpointBytes {
			return fmt.Errorf("live: checkpoint for %q is implausibly large", t.name)
		}
		if err := t.restoreCheckpointLocked(rec.Checkpoint); err != nil {
			return fmt.Errorf("live: restoring checkpoint for %q: %w", t.name, err)
		}
		if t.version != rec.CheckpointVersion {
			return fmt.Errorf("live: checkpoint for %q decodes to version %d, file claims %d",
				t.name, t.version, rec.CheckpointVersion)
		}
	}
	for _, r := range rec.Records {
		switch r.Kind {
		case wal.KindBatch:
			if r.Version != t.version+1 {
				return fmt.Errorf("live: replaying %q: batch version %d after %d", t.name, r.Version, t.version)
			}
			b, err := decodeBatch(t.schema, r.Payload)
			if err != nil {
				return fmt.Errorf("live: replaying %q version %d: %w", t.name, r.Version, err)
			}
			if _, err := t.applyLocked(b, false); err != nil {
				return fmt.Errorf("live: replaying %q version %d: %w", t.name, r.Version, err)
			}
		case wal.KindCompact:
			if len(r.Payload) != 8 {
				return fmt.Errorf("live: replaying %q: compaction record has %d payload bytes", t.name, len(r.Payload))
			}
			if r.Version != t.version {
				return fmt.Errorf("live: replaying %q: compaction at version %d, table at %d", t.name, r.Version, t.version)
			}
			if t.nTomb > 0 {
				t.compactLocked()
			}
			// Trust the recorded epoch over our own counting so epochs stay
			// stable across restarts even when a redundant compaction record
			// was logged.
			t.epoch = binary.LittleEndian.Uint64(r.Payload)
			t.snap = nil
		default:
			return fmt.Errorf("live: replaying %q: unknown record kind %d", t.name, r.Kind)
		}
	}
	return nil
}

// Durable reports whether the table persists batches to a write-ahead log.
func (t *Table) Durable() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log != nil
}

// Checkpoint compacts the table and atomically persists its full state,
// then prunes WAL segments the checkpoint covers. Recovery cost restarts
// from zero. No-op (nil) on memory-only tables.
func (t *Table) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		return nil
	}
	if t.closed {
		return fmt.Errorf("live: table %q is closed: %w", t.name, wal.ErrUnavailable)
	}
	return t.checkpointLocked()
}

// checkpointLocked writes a checkpoint at the current version. Compacts
// first so the image carries no tombstones. Caller holds t.mu and has
// checked t.log != nil.
func (t *Table) checkpointLocked() error {
	if t.nTomb > 0 {
		t.compactLocked()
	}
	if err := t.log.Checkpoint(t.version, t.encodeCheckpointLocked()); err != nil {
		return fmt.Errorf("live: checkpointing %q: %w", t.name, err)
	}
	return nil
}

// Close checkpoints (when the log is healthy) and closes the WAL. The table
// rejects all further mutations. Closing a memory-only table just marks it
// closed.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.log == nil {
		return nil
	}
	var err error
	if t.log.Err() == nil {
		err = t.checkpointLocked()
	}
	if cerr := t.log.Close(); err == nil {
		err = cerr
	}
	return err
}
