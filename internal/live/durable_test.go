package live

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

func durableSpec() *Spec {
	return &Spec{
		Name: "events",
		Schema: dataset.Schema{
			{Name: "id", Kind: dataset.Int},
			{Name: "score", Kind: dataset.Float},
			{Name: "tag", Kind: dataset.String},
		},
		KeyCol: "id",
	}
}

// workload drives tab through a deterministic mixed mutation sequence:
// appends, updates, deletes, and mid-stream snapshots (which compact).
// Returns the number of batches applied.
func workload(t *testing.T, tab *Table) int {
	t.Helper()
	batches := 0
	apply := func(rows ...Row) {
		t.Helper()
		if _, err := tab.Apply(&Batch{Rows: rows}); err != nil {
			t.Fatalf("batch %d: %v", batches, err)
		}
		batches++
	}
	for i := 0; i < 8; i++ {
		apply(
			Row{Op: OpAppend, Vals: []any{int64(2 * i), float64(i) * 1.5, fmt.Sprintf("row-%d", i)}},
			Row{Op: OpAppend, Vals: []any{int64(2*i + 1), float64(-i), "odd"}},
		)
	}
	apply(
		Row{Op: OpUpdate, Key: 4, Vals: []any{int64(4), 99.25, "patched"}},
		Row{Op: OpDelete, Key: 7},
	)
	tab.Snapshot() // compacts: tombstones from the update/delete above
	apply(Row{Op: OpAppend, Vals: []any{int64(100), 1.0, "after-compact"}})
	apply(
		Row{Op: OpDelete, Key: 0},
		Row{Op: OpAppend, Vals: []any{int64(101), 2.0, "tail"}},
	)
	return batches
}

// state captures everything observable about a table for equality checks.
type tableState struct {
	Version, Epoch             uint64
	Appended, Updated, Deleted uint64
	Rows                       [][]any
}

func captureState(tab *Table) tableState {
	s := tab.Snapshot()
	tab.mu.Lock()
	st := tableState{Version: s.Version, Epoch: s.Epoch, Appended: tab.appended, Updated: tab.updated, Deleted: tab.deleted}
	tab.mu.Unlock()
	for r := 0; r < s.Tab.NumRows(); r++ {
		row := make([]any, s.Tab.NumCols())
		for c := range row {
			row[c] = s.Tab.Value(r, c)
		}
		st.Rows = append(st.Rows, row)
	}
	return st
}

func TestDurableRoundTrip(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Durable() {
		t.Fatal("OpenDurable returned a non-durable table")
	}
	workload(t, tab)
	want := captureState(tab)
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := captureState(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestDurableOpenWithoutSpecReadsMeta(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(1), 2.0, "x"); err != nil {
		t.Fatal(err)
	}
	tab.Close()

	re, err := OpenDurable("d", nil, DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Name() != "events" || re.KeyColumn() != "id" || re.NumRows() != 1 {
		t.Fatalf("meta-derived table wrong: name=%q key=%q rows=%d", re.Name(), re.KeyColumn(), re.NumRows())
	}
}

func TestDurableSpecMismatchRejected(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab.Close()

	bad := durableSpec()
	bad.Schema[1].Kind = dataset.String
	if _, err := OpenDurable("d", bad, DurableOptions{FS: fs}); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

// TestDurableCrashAtEveryBoundary is the tentpole recovery property test:
// run the workload once on a memory table to capture the golden state after
// every batch, then run it durably, crash the filesystem after every single
// successful fsync (i.e. at every record durability boundary), recover from
// the crash image, and require the recovered table to exactly equal the
// golden state at the corresponding batch count — no lost acknowledged
// batch, no phantom unacknowledged one.
func TestDurableCrashAtEveryBoundary(t *testing.T) {
	// Golden: memory-only states after each batch.
	golden := []tableState{}
	{
		goldenTab, err := New("events", durableSpec().Schema, "id")
		if err != nil {
			t.Fatal(err)
		}
		// Re-run workload capturing state after every batch. workload()
		// itself snapshots mid-stream; captureState snapshots too, which is
		// fine — snapshots don't change live-row content.
		batches := 0
		apply := func(rows ...Row) {
			if _, err := goldenTab.Apply(&Batch{Rows: rows}); err != nil {
				t.Fatalf("golden batch %d: %v", batches, err)
			}
			batches++
			golden = append(golden, captureState(goldenTab))
		}
		for i := 0; i < 8; i++ {
			apply(
				Row{Op: OpAppend, Vals: []any{int64(2 * i), float64(i) * 1.5, fmt.Sprintf("row-%d", i)}},
				Row{Op: OpAppend, Vals: []any{int64(2*i + 1), float64(-i), "odd"}},
			)
		}
		apply(
			Row{Op: OpUpdate, Key: 4, Vals: []any{int64(4), 99.25, "patched"}},
			Row{Op: OpDelete, Key: 7},
		)
		goldenTab.Snapshot()
		apply(Row{Op: OpAppend, Vals: []any{int64(100), 1.0, "after-compact"}})
		apply(
			Row{Op: OpDelete, Key: 0},
			Row{Op: OpAppend, Vals: []any{int64(101), 2.0, "tail"}},
		)
	}

	// Durable run with tiny segments to exercise rotation during recovery.
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	nBatches := workload(t, tab)
	if nBatches != len(golden) {
		t.Fatalf("workload applied %d batches, golden has %d", nBatches, len(golden))
	}
	tab.Close()

	// Every file in the final image was built through appends; recovery from
	// a crash at each intermediate durable length must land exactly on a
	// golden state. We reconstruct intermediate images by replaying the
	// workload and snapshotting the durable image after each batch.
	fs2 := faultfs.New()
	tab2, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs2, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	images := []map[string][]byte{fs2.DurableSnapshot()}
	replayBatches := 0
	apply2 := func(rows ...Row) {
		if _, err := tab2.Apply(&Batch{Rows: rows}); err != nil {
			t.Fatalf("durable batch %d: %v", replayBatches, err)
		}
		replayBatches++
		images = append(images, fs2.DurableSnapshot())
	}
	for i := 0; i < 8; i++ {
		apply2(
			Row{Op: OpAppend, Vals: []any{int64(2 * i), float64(i) * 1.5, fmt.Sprintf("row-%d", i)}},
			Row{Op: OpAppend, Vals: []any{int64(2*i + 1), float64(-i), "odd"}},
		)
	}
	apply2(
		Row{Op: OpUpdate, Key: 4, Vals: []any{int64(4), 99.25, "patched"}},
		Row{Op: OpDelete, Key: 7},
	)
	tab2.Snapshot()
	apply2(Row{Op: OpAppend, Vals: []any{int64(100), 1.0, "after-compact"}})
	apply2(
		Row{Op: OpDelete, Key: 0},
		Row{Op: OpAppend, Vals: []any{int64(101), 2.0, "tail"}},
	)

	for bi, img := range images {
		// Torn variants: crash images with 0..3 garbage bytes appended to
		// the final segment model a write that died mid-record.
		for torn := 0; torn <= 3; torn++ {
			m := map[string][]byte{}
			for name, data := range img {
				m[name] = data
			}
			if torn > 0 {
				// Find the newest segment and tear its tail.
				var newest string
				for name := range m {
					if len(name) > 4 && name[len(name)-4:] == ".seg" && name > newest {
						newest = name
					}
				}
				if newest == "" {
					continue
				}
				tail := make([]byte, torn)
				for i := range tail {
					tail[i] = 0x5A
				}
				m[newest] = append(append([]byte(nil), m[newest]...), tail...)
			}
			re, err := OpenDurable("d", durableSpec(), DurableOptions{FS: faultfs.FromMap(m), SegmentBytes: 128})
			if err != nil {
				t.Fatalf("recovery after batch %d (torn %d): %v", bi, torn, err)
			}
			got := captureState(re)
			re.Close()
			if bi == 0 {
				if got.Version != 0 || len(got.Rows) != 0 {
					t.Fatalf("empty image recovered to version %d with %d rows", got.Version, len(got.Rows))
				}
				continue
			}
			want := golden[bi-1]
			// Epochs may differ: the durable run compacts at snapshot points
			// that depend on replay, and compaction never changes content.
			got.Epoch, want.Epoch = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("crash after batch %d (torn %d):\n got %+v\nwant %+v", bi, torn, got, want)
			}
		}
	}
}

// TestDurableFsyncFailureAppliesNothing: when the fsync at commit fails the
// client gets an error wrapping wal.ErrUnavailable and the in-memory table
// is untouched — memory never runs ahead of disk.
func TestDurableFsyncFailureAppliesNothing(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(1), 1.0, "ok"); err != nil {
		t.Fatal(err)
	}
	before := captureState(tab)

	fs.FailSyncs(-1)
	err = tab.Append(int64(2), 2.0, "lost")
	if !errors.Is(err, wal.ErrUnavailable) {
		t.Fatalf("got %v, want wal.ErrUnavailable", err)
	}
	if got := captureState(tab); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed append mutated the table:\n got %+v\nwant %+v", got, before)
	}
	// The failure is sticky: even with fsync healthy again, the log refuses
	// until reopened, because its buffered state is suspect.
	fs.FailSyncs(0)
	if err := tab.Append(int64(3), 3.0, "still-down"); !errors.Is(err, wal.ErrUnavailable) {
		t.Fatalf("sticky failure not sticky: %v", err)
	}
	tab.Close()

	// Recovery from the durable prefix sees exactly the acknowledged batch.
	re, err := OpenDurable("d", durableSpec(), DurableOptions{FS: faultfs.FromMap(fs.DurableSnapshot())})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := captureState(re); !reflect.DeepEqual(got, before) {
		t.Fatalf("recovered state diverges from acknowledged state:\n got %+v\nwant %+v", got, before)
	}
}

// TestDurableDoubleReplayIdempotent: recovering the same crash image twice
// (including once through the torn-tail truncation path) yields identical
// states — recovery repairs the log so a crash during recovery is safe.
func TestDurableDoubleReplayIdempotent(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, tab)
	// Crash without Close: unsynced tail plus 2 torn bytes.
	fs.Crash(2)

	re1, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	s1 := captureState(re1)
	re1.Close()

	// Second recovery over the repaired image (Close checkpointed; reopen
	// again to also cover the checkpoint-restore path).
	re2, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	s2 := captureState(re2)
	re2.Close()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("double replay diverges:\n first %+v\nsecond %+v", s1, s2)
	}
}

// TestDurableCheckpointPrunesAndRecovers: an explicit checkpoint survives a
// crash and replaces replay of the records it covers.
func TestDurableCheckpointPrunesAndRecovers(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, tab)
	want := captureState(tab)
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(0)

	re, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := captureState(re)
	// Checkpoint compacts, so row content/order must match exactly; version
	// and counters too. Epoch of the pre-checkpoint capture may differ.
	got.Epoch, want.Epoch = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-checkpoint recovery diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableAutoCheckpoint: crossing AutoCheckpointBytes triggers a
// checkpoint that bounds the log.
func TestDurableAutoCheckpoint(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs, SegmentBytes: 256, AutoCheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for i := 0; i < 200; i++ {
		if err := tab.Append(int64(i), float64(i), "padding-padding-padding"); err != nil {
			t.Fatal(err)
		}
	}
	ckpts := 0
	for name := range fs.Snapshot() {
		if len(name) > 5 && name[len(name)-5:] == ".ckpt" {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint written despite crossing AutoCheckpointBytes")
	}
}

// TestDurableClosedTableRejectsMutations: Apply after Close is a durability
// error, not a silent memory-only mutation.
func TestDurableClosedTableRejectsMutations(t *testing.T) {
	fs := faultfs.New()
	tab, err := OpenDurable("d", durableSpec(), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab.Close()
	if err := tab.Append(int64(1), 1.0, "x"); !errors.Is(err, wal.ErrUnavailable) {
		t.Fatalf("append on closed table: got %v, want wal.ErrUnavailable", err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	schema := durableSpec().Schema
	b := &Batch{Rows: []Row{
		{Op: OpAppend, Vals: []any{int64(-5), 3.25, ""}},
		{Op: OpUpdate, Key: -5, Vals: []any{int64(-5), -0.0, "héllo\x00world"}},
		{Op: OpDelete, Key: 1 << 60},
	}}
	got, err := decodeBatch(schema, encodeBatch(schema, b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, b)
	}
	// Strictness: spare bytes rejected.
	if _, err := decodeBatch(schema, append(encodeBatch(schema, b), 0)); err == nil {
		t.Fatal("spare byte not rejected")
	}
	// Truncation rejected.
	enc := encodeBatch(schema, b)
	if _, err := decodeBatch(schema, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated batch not rejected")
	}
}
