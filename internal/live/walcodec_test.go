package live

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// The WAL payload goldens pin the bytes a data directory holds: existing
// directories must still open, so a batch record or a checkpoint payload
// encodes as recorded here, forever. Both were recorded on 2026-10-19, at
// the commit before batch records and checkpoints shared one value codec,
// and are never regenerated.
const (
	goldenBatchHex      = "050009010000000000f87f000080808080808080802000000000000000800c68c3a96c6c6f00776f726c640109099c7500883ce4377e0178018080808080808080208080808080808080209c7500883ce437fe00020e"
	goldenCheckpointHex = "010301000205000000000000000100000000000000040000000000000001000000000000000100000000000000030980808080808080802006010000000000f87f9c7500883ce4377e0000000000000440000178037a7a7a"
)

// goldenBatch is one batch of every op over every column kind, with the
// float values a lossy codec would get wrong.
func goldenBatch() *Batch {
	return &Batch{Rows: []Row{
		{Op: OpAppend, Vals: []any{int64(-5), math.NaN(), ""}},
		{Op: OpAppend, Vals: []any{int64(1) << 60, math.Copysign(0, -1), "héllo\x00world"}},
		{Op: OpUpdate, Key: -5, Vals: []any{int64(-5), 1e300, "x"}},
		{Op: OpUpdate, Key: 1 << 60, Vals: []any{int64(1) << 60, -1e300, ""}},
		{Op: OpDelete, Key: 7},
	}}
}

// goldenTable is a compacted table after appends, an update and a delete.
func goldenTable(t *testing.T) *Table {
	t.Helper()
	spec := durableSpec()
	tab, err := New(spec.Name, spec.Schema, spec.KeyCol)
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range [][]any{
		{int64(-5), math.NaN(), ""},
		{int64(7), math.Copysign(0, -1), "héllo\x00world"},
		{int64(1) << 60, 1e300, "x"},
		{int64(3), -1e300, "yy"},
	} {
		if err := tab.Append(vals...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.Apply(&Batch{Rows: []Row{
		{Op: OpUpdate, Key: 3, Vals: []any{int64(3), 2.5, "zzz"}},
		{Op: OpDelete, Key: 7},
	}}); err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.compactLocked()
	return tab
}

func TestWALPayloadGolden(t *testing.T) {
	schema := durableSpec().Schema
	batch := encodeBatch(schema, goldenBatch())
	if got := hex.EncodeToString(batch); got != goldenBatchHex {
		t.Errorf("batch payload moved:\n got %s\nwant %s", got, goldenBatchHex)
	}
	decoded, err := decodeBatch(schema, batch)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeBatch(schema, decoded); !bytes.Equal(again, batch) {
		t.Errorf("decoded batch re-encodes as %x", again)
	}

	tab := goldenTable(t)
	ckpt := tab.encodeCheckpointLocked()
	if got := hex.EncodeToString(ckpt); got != goldenCheckpointHex {
		t.Errorf("checkpoint payload moved:\n got %s\nwant %s", got, goldenCheckpointHex)
	}
	spec := durableSpec()
	restored, err := New(spec.Name, spec.Schema, spec.KeyCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.restoreCheckpointLocked(ckpt); err != nil {
		t.Fatal(err)
	}
	if again := restored.encodeCheckpointLocked(); !bytes.Equal(again, ckpt) {
		t.Errorf("restored checkpoint re-encodes as %x", again)
	}
	if restored.NumRows() != 3 {
		t.Errorf("restored %d rows, want 3", restored.NumRows())
	}

	// Both decoders are strict: a missing or a spare byte is an error that
	// names the record, and the row and column where a value broke off.
	for _, c := range []struct {
		name, want string
		err        func() error
	}{
		{"batch truncated in a value", `live: batch record: row 3 column "score" truncated`, func() error {
			_, err := decodeBatch(schema, batch[:len(batch)-4])
			return err
		}},
		{"batch truncated in a key", "live: batch record: row 4 key: invalid varint", func() error {
			_, err := decodeBatch(schema, batch[:len(batch)-1])
			return err
		}},
		{"batch spare byte", "live: batch record has 1 spare bytes", func() error {
			_, err := decodeBatch(schema, append(append([]byte(nil), batch...), 0))
			return err
		}},
		{"checkpoint truncated", `live: checkpoint column "tag" truncated`, func() error {
			fresh, _ := New(spec.Name, spec.Schema, spec.KeyCol)
			return fresh.restoreCheckpointLocked(ckpt[:len(ckpt)-1])
		}},
		{"checkpoint spare byte", "live: checkpoint has 1 spare bytes", func() error {
			fresh, _ := New(spec.Name, spec.Schema, spec.KeyCol)
			return fresh.restoreCheckpointLocked(append(append([]byte(nil), ckpt...), 0))
		}},
	} {
		if err := c.err(); err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}
}
