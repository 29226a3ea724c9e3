// Package wal is a write-ahead log for the live-dataset layer: an
// append-only sequence of length-prefixed, CRC32-checksummed records across
// rotating segment files, plus checkpoint files that snapshot the owner's
// full state and let older segments be pruned.
//
// Durability contract: a record is durable once Commit returns nil — the
// log writes records straight to the active segment and Commit issues one
// fsync covering every record appended since the last Commit, so callers
// batching many records per Commit pay one fsync per batch ("fsync
// batching"). A Sync failure is fatal: after it the durable state of the
// tail is unknown, so the log turns sticky-failed (Err) and rejects all
// further writes rather than acknowledging data it cannot promise to keep.
//
// Recovery (Open) scans checkpoints newest-first and segments in order,
// truncates a torn tail on the final segment (bytes after the last fully
// verified record — the signature a crash leaves), and rejects anything
// worse — a checksum mismatch inside a sealed segment, a version gap, a bad
// header followed by later durable segments — with ErrCorrupt instead of
// loading garbage. Replaying the returned records on top of the returned
// checkpoint reproduces exactly the durable prefix of history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrUnavailable marks durability failures: a failed write or fsync on the
// active segment, or use of a log that already failed or was closed. Owners
// surface it so the serving layer can answer 503 rather than acknowledging
// writes that may not survive a crash.
var ErrUnavailable = errors.New("wal: durability unavailable")

// Options tunes a Log. Zero values select the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Small values force rotation in tests.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Recovery is what Open found on disk: the newest valid checkpoint payload
// (nil when none) and every durable record after it, in order. TornBytes
// counts bytes discarded from a torn final segment.
type Recovery struct {
	CheckpointVersion uint64
	Checkpoint        []byte
	Records           []Record
	TornBytes         int64
}

// LastVersion returns the highest durable batch version recovered.
func (r *Recovery) LastVersion() uint64 {
	v := r.CheckpointVersion
	for _, rec := range r.Records {
		if rec.Kind == KindBatch {
			v = rec.Version
		}
	}
	return v
}

// Log is an append-only record log over rotating segments in one directory.
// It is safe for concurrent use, though owners typically serialize Append
// and Commit under their own state lock so record order matches apply
// order.
type Log struct {
	fsys FS
	dir  string
	o    Options

	mu            sync.Mutex
	active        File
	activeName    string
	activeSize    int64
	activeRecords int
	sealed        []segInfo // sealed segments still on disk, oldest first
	seq           uint64    // sequence number of the active segment
	lastVersion   uint64    // highest version appended or recovered
	ckptVersion   uint64
	liveBytes     int64 // segment bytes written since the last checkpoint
	pending       bool  // writes not yet covered by a successful Sync
	failed        error // sticky durability failure
	closed        bool
	scratch       []byte
}

type segInfo struct {
	name  string
	seq   uint64
	first uint64 // first record version (from the header)
	last  uint64 // last record version
	size  int64
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

func ckptName(version uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, version, ckptSuffix)
}

// parseSeq extracts the sequence number from a segment file name.
func parseSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	return v, err == nil
}

func parseCkptVersion(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 16, 64)
	return v, err == nil
}

// Checkpoint file layout: magic "LSCKPT\x00\x01" | version uint64 LE |
// crc32 uint32 LE over the payload | payload.
var ckptMagic = [8]byte{'L', 'S', 'C', 'K', 'P', 'T', 0, 1}

const ckptHeaderLen = 20

func encodeCheckpointFile(version uint64, payload []byte) []byte {
	out := make([]byte, ckptHeaderLen, ckptHeaderLen+len(payload))
	copy(out, ckptMagic[:])
	binary.LittleEndian.PutUint64(out[8:], version)
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func decodeCheckpointFile(data []byte) (version uint64, payload []byte, err error) {
	if len(data) < ckptHeaderLen {
		return 0, nil, fmt.Errorf("%w: checkpoint is %d bytes, want >= %d", ErrCorrupt, len(data), ckptHeaderLen)
	}
	if [8]byte(data[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("%w: bad checkpoint magic %q", ErrCorrupt, data[:8])
	}
	version = binary.LittleEndian.Uint64(data[8:16])
	payload = data[ckptHeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:20]) {
		return 0, nil, fmt.Errorf("%w: checkpoint payload checksum mismatch", ErrCorrupt)
	}
	return version, payload, nil
}

// Open recovers the log in dir (created if missing) and readies it for
// appending: the durable history comes back in Recovery, a torn tail on the
// final segment is physically truncated, segments wholly covered by the
// newest valid checkpoint are pruned, and a fresh active segment is started.
func Open(fsys FS, dir string, o Options) (*Log, *Recovery, error) {
	if fsys == nil {
		fsys = OS
	}
	o = o.withDefaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}

	// Newest valid checkpoint wins. Checkpoints are written atomically, so
	// an invalid one is byte corruption: reject rather than silently fall
	// back past data whose segments may already be pruned.
	rec := &Recovery{}
	var ckptFiles []uint64
	for _, name := range names {
		if v, ok := parseCkptVersion(name); ok {
			ckptFiles = append(ckptFiles, v)
		}
	}
	sort.Slice(ckptFiles, func(i, j int) bool { return ckptFiles[i] > ckptFiles[j] })
	if len(ckptFiles) > 0 {
		v := ckptFiles[0]
		data, err := fsys.ReadFile(filepath.Join(dir, ckptName(v)))
		if err != nil {
			return nil, nil, err
		}
		ev, payload, err := decodeCheckpointFile(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ckptName(v), err)
		}
		if ev != v {
			return nil, nil, fmt.Errorf("%w: checkpoint %s claims version %d", ErrCorrupt, ckptName(v), ev)
		}
		rec.CheckpointVersion = v
		rec.Checkpoint = payload
	}

	// Scan segments in sequence order.
	var seqs []uint64
	for _, name := range names {
		if s, ok := parseSeq(name); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	l := &Log{fsys: fsys, dir: dir, o: o, ckptVersion: rec.CheckpointVersion}
	l.lastVersion = rec.CheckpointVersion
	nextBatch := rec.CheckpointVersion + 1
	for i, seq := range seqs {
		name := filepath.Join(dir, segName(seq))
		data, err := fsys.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		res, scanErr := scanSegment(data)
		last := i == len(seqs)-1
		if scanErr != nil {
			// An unreadable header on the final segment is a crash during
			// segment creation: nothing in it was ever acknowledged (acks
			// sync the whole file, header included). Earlier segments were
			// sealed with a sync before their successors existed, so a bad
			// header there is real corruption.
			if last {
				rec.TornBytes += int64(len(data))
				if err := fsys.Remove(name); err != nil {
					return nil, nil, err
				}
				continue
			}
			return nil, nil, fmt.Errorf("%s: %w", segName(seq), scanErr)
		}
		if res.torn {
			if !last {
				return nil, nil, fmt.Errorf("%w: sealed segment %s has invalid bytes at offset %d", ErrCorrupt, segName(seq), res.clean)
			}
			// Torn tail on the final segment: the crash signature. Keep the
			// verified prefix, drop the rest, and rewrite atomically so the
			// next recovery sees a clean file.
			rec.TornBytes += int64(len(data)) - res.clean
			if len(res.records) == 0 {
				if err := fsys.Remove(name); err != nil {
					return nil, nil, err
				}
				continue
			}
			if err := WriteAtomic(fsys, name, data[:res.clean]); err != nil {
				return nil, nil, err
			}
			data = data[:res.clean]
		}
		if len(res.records) == 0 {
			// Header-only segment (a clean shutdown's empty active, or a
			// checkpoint-pruned survivor): nothing to replay, drop it.
			if err := fsys.Remove(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		// Filter records the checkpoint already covers and enforce version
		// continuity on what remains: batch versions are strictly
		// sequential, compactions ride at the current version.
		lastSegVersion := uint64(0)
		kept := false
		for _, r := range res.records {
			lastSegVersion = r.Version
			switch r.Kind {
			case KindBatch:
				if r.Version <= rec.CheckpointVersion {
					continue
				}
				if r.Version != nextBatch {
					return nil, nil, fmt.Errorf("%w: segment %s: batch version %d, want %d (version gap)",
						ErrCorrupt, segName(seq), r.Version, nextBatch)
				}
				nextBatch++
			case KindCompact:
				if r.Version <= rec.CheckpointVersion {
					continue
				}
				if r.Version != nextBatch-1 {
					return nil, nil, fmt.Errorf("%w: segment %s: compaction at version %d, current is %d",
						ErrCorrupt, segName(seq), r.Version, nextBatch-1)
				}
			default:
				return nil, nil, fmt.Errorf("%w: segment %s: unknown record kind %d", ErrCorrupt, segName(seq), r.Kind)
			}
			rec.Records = append(rec.Records, r)
			kept = true
		}
		if !kept {
			// Every record predates the checkpoint: prune now.
			if err := fsys.Remove(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		l.sealed = append(l.sealed, segInfo{
			name: name, seq: seq, first: res.firstVersion, last: lastSegVersion, size: res.clean,
		})
		l.liveBytes += res.clean
		if seq > l.seq {
			l.seq = seq
		}
	}
	l.lastVersion = nextBatch - 1

	// Older checkpoints are superseded; prune them.
	for _, v := range ckptFiles[min(1, len(ckptFiles)):] {
		if err := fsys.Remove(filepath.Join(dir, ckptName(v))); err != nil {
			return nil, nil, err
		}
	}

	if err := l.startSegmentLocked(l.lastVersion + 1); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// startSegmentLocked seals nothing; it creates and switches to a fresh
// active segment whose header claims firstVersion.
func (l *Log) startSegmentLocked(firstVersion uint64) error {
	l.seq++
	name := filepath.Join(l.dir, segName(l.seq))
	f, err := l.fsys.Create(name)
	if err != nil {
		return err
	}
	hdr := segmentHeader(firstVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeName = name
	l.activeSize = int64(len(hdr))
	l.activeRecords = 0
	l.pending = true // the header itself is not yet durable
	return nil
}

// sealActiveLocked syncs and closes the active segment, moving it to the
// sealed list.
func (l *Log) sealActiveLocked() error {
	if l.pending {
		if err := l.active.Sync(); err != nil {
			return err
		}
	}
	l.pending = false
	if err := l.active.Close(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, segInfo{
		name: l.activeName, seq: l.seq, last: l.lastVersion, size: l.activeSize,
	})
	l.active = nil
	return nil
}

// failLocked records a sticky durability failure.
func (l *Log) failLocked(op string, err error) error {
	l.failed = fmt.Errorf("%w: %s: %v", ErrUnavailable, op, err)
	return l.failed
}

// Err returns the sticky durability failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append writes one record to the active segment (rotating first when it is
// over the size threshold). The record is NOT durable until the next
// successful Commit. version must be the owner's post-apply version for
// KindBatch and its current version for KindCompact.
func (l *Log) Append(kind uint8, version uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.activeSize >= l.o.SegmentBytes && l.activeRecords > 0 {
		if err := l.sealActiveLocked(); err != nil {
			return l.failLocked("sealing segment", err)
		}
		if err := l.startSegmentLocked(version); err != nil {
			return l.failLocked("starting segment", err)
		}
	}
	l.scratch = appendRecord(l.scratch[:0], kind, version, payload)
	if _, err := l.active.Write(l.scratch); err != nil {
		return l.failLocked("appending record", err)
	}
	l.activeSize += int64(len(l.scratch))
	l.liveBytes += int64(len(l.scratch))
	l.activeRecords++
	l.pending = true
	if version > l.lastVersion {
		l.lastVersion = version
	}
	return nil
}

// Commit makes every record appended since the last Commit durable with one
// fsync. A failure is sticky: the log refuses further writes, because after
// a failed fsync the kernel may have dropped the dirty pages and the tail's
// durability is unknowable.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if !l.pending {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return l.failLocked("fsync", err)
	}
	l.pending = false
	return nil
}

func (l *Log) usableLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return fmt.Errorf("%w: log is closed", ErrUnavailable)
	}
	return nil
}

// Checkpoint records that the owner's full state as of version is durable
// in the given payload: the checkpoint file is written atomically, then
// every segment whose records it covers is pruned. Records appended but not
// yet committed are synced first, so the log never prunes history that a
// checkpoint claims but disk does not yet have.
func (l *Log) Checkpoint(version uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.pending {
		if err := l.active.Sync(); err != nil {
			return l.failLocked("fsync before checkpoint", err)
		}
		l.pending = false
	}
	if err := WriteAtomic(l.fsys, filepath.Join(l.dir, ckptName(version)), encodeCheckpointFile(version, payload)); err != nil {
		return l.failLocked("writing checkpoint", err)
	}
	prev := l.ckptVersion
	l.ckptVersion = version
	// Prune sealed segments the checkpoint covers, and the previous
	// checkpoint file.
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.last <= version {
			if err := l.fsys.Remove(s.name); err != nil {
				return l.failLocked("pruning segment", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.sealed = keep
	if l.activeRecords > 0 && l.lastVersion <= version {
		// The active segment is fully covered too: seal, delete, restart.
		if err := l.sealActiveLocked(); err != nil {
			return l.failLocked("sealing covered segment", err)
		}
		l.sealed = l.sealed[:len(l.sealed)-1]
		if err := l.fsys.Remove(l.activeName); err != nil {
			return l.failLocked("pruning covered segment", err)
		}
		if err := l.startSegmentLocked(version + 1); err != nil {
			return l.failLocked("starting segment", err)
		}
	}
	if prev != version && prev != 0 {
		// Ignore a missing previous checkpoint — Open prunes them too.
		if err := l.fsys.Remove(filepath.Join(l.dir, ckptName(prev))); err == nil {
			_ = err
		}
	}
	l.liveBytes = l.activeSize
	for _, s := range l.sealed {
		l.liveBytes += s.size
	}
	return nil
}

// SizeSinceCheckpoint reports roughly how many segment bytes the newest
// checkpoint does not cover — the replay cost of a crash right now, and the
// signal auto-checkpoint policies key on.
func (l *Log) SizeSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveBytes
}

// LastVersion returns the highest record version appended or recovered.
func (l *Log) LastVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastVersion
}

// Close flushes and closes the active segment. The log is unusable
// afterwards; it does not checkpoint (owners checkpoint before closing when
// they want fast recovery).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	var err error
	if l.pending && l.failed == nil {
		err = l.active.Sync()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}
