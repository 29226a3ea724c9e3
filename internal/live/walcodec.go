package live

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// WAL payload codecs. The wal package stores opaque, checksummed payloads;
// this file defines what the live layer puts in them:
//
//   - batch records: the full mutation batch, self-contained (ops, keys,
//     row values in schema order), so replay needs only the schema;
//   - checkpoint payloads: the complete columnar state — schema
//     fingerprint, version, epoch, lifetime counters, and every column —
//     written only after compaction, so there are never tombstones inside;
//   - meta.json: the table identity (name, schema, key column) that lets a
//     data directory be reopened without the caller restating the schema.
//
// Values encode per column kind: floats as 8-byte IEEE bits (NaN and -0
// round-trip exactly), ints as zigzag varints, strings length-prefixed.
// Decoders are strict — any spare or missing byte is an error — because a
// record that passed its CRC but fails decoding means a logic bug or
// deliberate tampering, and recovery must reject it rather than guess.

// encodeBatch serializes a validated batch (values already normalized to
// the schema kinds).
func encodeBatch(schema dataset.Schema, b *Batch) []byte {
	out := binary.AppendUvarint(nil, uint64(len(b.Rows)))
	for _, r := range b.Rows {
		out = append(out, byte(r.Op))
		if r.Op == OpUpdate || r.Op == OpDelete {
			out = binary.AppendVarint(out, r.Key)
		}
		if r.Op == OpAppend || r.Op == OpUpdate {
			for i, c := range schema {
				out = appendValue(out, c.Kind, r.Vals[i])
			}
		}
	}
	return out
}

// decodeBatch is the strict inverse of encodeBatch.
func decodeBatch(schema dataset.Schema, data []byte) (*Batch, error) {
	n, off, err := readUvarint(data, 0)
	if err != nil {
		return nil, fmt.Errorf("live: batch record: row count: %w", err)
	}
	if n > uint64(len(data)) { // each row needs at least one byte
		return nil, fmt.Errorf("live: batch record claims %d rows in %d bytes", n, len(data))
	}
	b := &Batch{Rows: make([]Row, 0, n)}
	for ri := uint64(0); ri < n; ri++ {
		if off >= len(data) {
			return nil, fmt.Errorf("live: batch record: truncated at row %d", ri)
		}
		op := Op(data[off])
		off++
		row := Row{Op: op}
		switch op {
		case OpAppend, OpUpdate, OpDelete:
		default:
			return nil, fmt.Errorf("live: batch record: row %d has unknown op %d", ri, int(op))
		}
		if op == OpUpdate || op == OpDelete {
			row.Key, off, err = readVarint(data, off)
			if err != nil {
				return nil, fmt.Errorf("live: batch record: row %d key: %w", ri, err)
			}
		}
		if op == OpAppend || op == OpUpdate {
			row.Vals = make([]any, len(schema))
			for i, c := range schema {
				if row.Vals[i], off, err = readValue(data, off, c.Kind); err != nil {
					return nil, valueError(fmt.Sprintf("live: batch record: row %d column %q", ri, c.Name), err)
				}
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if off != len(data) {
		return nil, fmt.Errorf("live: batch record has %d spare bytes", len(data)-off)
	}
	return b, nil
}

// checkpointFormat versions the checkpoint payload layout.
const checkpointFormat = 1

// encodeCheckpoint serializes the full table state. Caller holds t.mu and
// has compacted (no tombstones).
func (t *Table) encodeCheckpointLocked() []byte {
	n := t.store.NumRows()
	out := []byte{checkpointFormat}
	out = binary.AppendUvarint(out, uint64(len(t.schema)))
	for _, c := range t.schema {
		out = append(out, byte(c.Kind))
	}
	out = binary.LittleEndian.AppendUint64(out, t.version)
	out = binary.LittleEndian.AppendUint64(out, t.epoch)
	out = binary.LittleEndian.AppendUint64(out, t.appended)
	out = binary.LittleEndian.AppendUint64(out, t.updated)
	out = binary.LittleEndian.AppendUint64(out, t.deleted)
	out = binary.AppendUvarint(out, uint64(n))
	for ci, c := range t.schema {
		switch c.Kind {
		case dataset.Float:
			for _, v := range t.store.FloatsAt(ci) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		case dataset.Int:
			for _, v := range t.store.IntsAt(ci) {
				out = binary.AppendVarint(out, v)
			}
		case dataset.String:
			for _, v := range t.store.StringsAt(ci) {
				out = binary.AppendUvarint(out, uint64(len(v)))
				out = append(out, v...)
			}
		}
	}
	return out
}

// restoreCheckpointLocked rebuilds storage, version, epoch, counters, and
// the key index from a checkpoint payload.
func (t *Table) restoreCheckpointLocked(data []byte) error {
	if len(data) < 1 || data[0] != checkpointFormat {
		return fmt.Errorf("live: checkpoint format %d not supported", int(dataByteAt(data, 0)))
	}
	nc, off, err := readUvarint(data, 1)
	if err != nil || nc != uint64(len(t.schema)) {
		return fmt.Errorf("live: checkpoint has %d columns, schema %d", nc, len(t.schema))
	}
	for i, c := range t.schema {
		if off >= len(data) || data[off] != byte(c.Kind) {
			return fmt.Errorf("live: checkpoint column %d kind mismatch", i)
		}
		off++
	}
	if off+40 > len(data) {
		return fmt.Errorf("live: checkpoint header truncated")
	}
	t.version = binary.LittleEndian.Uint64(data[off:])
	t.epoch = binary.LittleEndian.Uint64(data[off+8:])
	t.appended = binary.LittleEndian.Uint64(data[off+16:])
	t.updated = binary.LittleEndian.Uint64(data[off+24:])
	t.deleted = binary.LittleEndian.Uint64(data[off+32:])
	off += 40
	n64, off, err := readUvarint(data, off)
	if err != nil || n64 > uint64(len(data)) {
		return fmt.Errorf("live: checkpoint row count: invalid")
	}
	n := int(n64)
	store := dataset.New(t.name, t.schema)
	cols := make([][]any, len(t.schema))
	for ci, c := range t.schema {
		col := make([]any, n)
		for r := range col {
			if col[r], off, err = readValue(data, off, c.Kind); err != nil {
				return valueError(fmt.Sprintf("live: checkpoint column %q", c.Name), err)
			}
		}
		cols[ci] = col
	}
	if off != len(data) {
		return fmt.Errorf("live: checkpoint has %d spare bytes", len(data)-off)
	}
	vals := make([]any, len(t.schema))
	keyIdx := make(map[int64]int, n)
	for r := 0; r < n; r++ {
		for ci := range t.schema {
			vals[ci] = cols[ci][r]
		}
		store.MustAppendRow(vals...)
		if t.keyCol >= 0 {
			k := vals[t.keyCol].(int64)
			if _, dup := keyIdx[k]; dup {
				return fmt.Errorf("live: checkpoint has duplicate key %d", k)
			}
			keyIdx[k] = r
		}
	}
	t.store = store
	t.tomb = make([]bool, n)
	t.nTomb = 0
	t.keyIdx = keyIdx
	t.snap = nil
	return nil
}

func dataByteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// metaFile is the JSON identity written next to the WAL so a data
// directory reopens without the caller restating the schema.
type metaFile struct {
	Name   string       `json:"name"`
	Key    string       `json:"key,omitempty"`
	Schema []metaColumn `json:"schema"`
}

type metaColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func encodeMeta(name string, schema dataset.Schema, keyCol string) ([]byte, error) {
	m := metaFile{Name: name, Key: keyCol}
	for _, c := range schema {
		m.Schema = append(m.Schema, metaColumn{Name: c.Name, Kind: c.Kind.String()})
	}
	return json.MarshalIndent(m, "", "  ")
}

func decodeMeta(data []byte) (name string, schema dataset.Schema, keyCol string, err error) {
	var m metaFile
	if err := json.Unmarshal(data, &m); err != nil {
		return "", nil, "", fmt.Errorf("live: parsing meta.json: %w", err)
	}
	if m.Name == "" || len(m.Schema) == 0 {
		return "", nil, "", fmt.Errorf("live: meta.json is missing name or schema")
	}
	for _, c := range m.Schema {
		var k dataset.Kind
		switch c.Kind {
		case "float":
			k = dataset.Float
		case "int":
			k = dataset.Int
		case "string":
			k = dataset.String
		default:
			return "", nil, "", fmt.Errorf("live: meta.json column %q has unknown kind %q", c.Name, c.Kind)
		}
		schema = append(schema, dataset.Column{Name: c.Name, Kind: k})
	}
	return m.Name, schema, m.Key, nil
}

// appendValue encodes one value of a column of the given kind.
func appendValue(out []byte, kind dataset.Kind, v any) []byte {
	switch kind {
	case dataset.Float:
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(v.(float64)))
	case dataset.Int:
		return binary.AppendVarint(out, v.(int64))
	default:
		s := v.(string)
		return append(binary.AppendUvarint(out, uint64(len(s))), s...)
	}
}

// errTruncated is readValue's error for a value that runs past the payload.
var errTruncated = errors.New("truncated")

// readValue decodes one value of a column of the given kind at off — the
// inverse of appendValue — returning it and the new offset.
func readValue(data []byte, off int, kind dataset.Kind) (any, int, error) {
	switch kind {
	case dataset.Float:
		if off+8 > len(data) {
			return nil, off, errTruncated
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:])), off + 8, nil
	case dataset.Int:
		return readVarint(data, off)
	default:
		l, end, err := readUvarint(data, off)
		if err != nil || l > uint64(len(data)-end) {
			return nil, off, errTruncated
		}
		return string(data[end : end+int(l)]), end + int(l), nil
	}
}

// valueError names where a value failed to decode: a record, or a record's
// row, and the column.
func valueError(where string, err error) error {
	if errors.Is(err, errTruncated) {
		return fmt.Errorf("%s truncated", where)
	}
	return fmt.Errorf("%s: %w", where, err)
}

// readUvarint decodes a uvarint at off, returning the value and the new
// offset.
func readUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("invalid uvarint")
	}
	return v, off + n, nil
}

// readVarint decodes a zigzag varint at off.
func readVarint(data []byte, off int) (int64, int, error) {
	v, n := binary.Varint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("invalid varint")
	}
	return v, off + n, nil
}
