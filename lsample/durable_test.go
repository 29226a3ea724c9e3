package lsample

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/live"
	"repro/internal/wal/faultfs"
)

// openFaultTable opens a durable live table over an injectable faultfs —
// package-internal plumbing: the public API (OpenLiveTable/OpenLiveDir)
// deliberately speaks only to the real filesystem.
func openFaultTable(t *testing.T, fs *faultfs.FS, dir, name, schema, keyCol string) *LiveTable {
	t.Helper()
	sch, err := parseSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := live.OpenDurable(dir, &live.Spec{Name: name, Schema: sch, KeyCol: keyCol}, live.DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return &LiveTable{lt: lt}
}

func reopenFaultTable(t *testing.T, fs *faultfs.FS, dir string) *LiveTable {
	t.Helper()
	lt, err := live.OpenDurable(dir, nil, live.DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return &LiveTable{lt: lt}
}

// seedLiveData fills an items/events pair with the same deterministic
// workload newLiveWorkload generates: item i's label ("more than 4
// events") correlates with f1, so the query is learnable.
func seedLiveData(t testing.TB, items, events *LiveTable, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ib, eb DeltaBatch
	for i := 0; i < n; i++ {
		f1 := rng.Float64() * 100
		f2 := rng.Float64() * 100
		ib.Append(int64(i), f1, f2)
		for e := 0; e < int(f1/12); e++ {
			eb.Append(int64(i), rng.Float64()*10)
		}
	}
	if _, err := items.Apply(&ib); err != nil {
		t.Fatal(err)
	}
	if _, err := events.Apply(&eb); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredEstimatesByteIdentical is the recovery acceptance test:
// ingest a workload durably, crash (losing nothing acknowledged), recover,
// and require estimates over the recovered tables to be byte-identical to
// the never-crashed run — at parallelism 1, 4, and NumCPU. Estimates are a
// pure function of (snapshot, seed); recovery reproduces the snapshot
// exactly, so any difference is a recovery bug.
func TestRecoveredEstimatesByteIdentical(t *testing.T) {
	type result struct {
		count, lo, hi float64
		samples       int64
	}
	estimate := func(items, events *LiveTable, p int) result {
		t.Helper()
		src := NewLiveSource()
		src.AddLive(items)
		src.AddLive(events)
		sess, err := NewSession(src, WithMethod("lss"), WithBudget(0.1), WithSeed(23), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		lq, err := sess.PrepareLive(liveQuery)
		if err != nil {
			t.Fatal(err)
		}
		r, err := lq.Refresh(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return result{r.Count, r.CI.Lo, r.CI.Hi, r.SamplesUsed}
	}

	// Never-crashed baseline over memory-only tables (deterministic across
	// parallelism, so one run suffices).
	mi, err := NewLiveTable("items", "id:int,f1:float,f2:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	me, err := NewLiveTable("events", "item:int,v:float", "")
	if err != nil {
		t.Fatal(err)
	}
	seedLiveData(t, mi, me, 1500, 7)
	want := estimate(mi, me, 1)

	// Durable ingest, then a crash that preserves only fsynced state. Every
	// Apply above was acknowledged, so recovery must reproduce it all.
	fs := faultfs.New()
	di := openFaultTable(t, fs, "data/items", "items", "id:int,f1:float,f2:float", "id")
	de := openFaultTable(t, fs, "data/events", "events", "item:int,v:float", "")
	seedLiveData(t, di, de, 1500, 7)
	fs.Crash(0)

	for _, p := range []int{1, 4, runtime.NumCPU()} {
		ri := reopenFaultTable(t, fs, "data/items")
		re := reopenFaultTable(t, fs, "data/events")
		if got := estimate(ri, re, p); got != want {
			t.Fatalf("p=%d: recovered estimate %+v != never-crashed %+v", p, got, want)
		}
		ri.Close()
		re.Close()
	}
}

// TestOpenLiveTableRoundTrip exercises the public durable API over the real
// filesystem: create, ingest, close, reopen both by spec and by directory.
func TestOpenLiveTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	lt, err := OpenLiveTable(dir, "items", "id:int,f1:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	if !lt.Durable() {
		t.Fatal("OpenLiveTable returned a non-durable table")
	}
	var b DeltaBatch
	b.Append(int64(1), 0.5).Append(int64(2), 1.5)
	if _, err := lt.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := lt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lt.Append(int64(3), 2.5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append after close: got %v, want ErrUnavailable", err)
	}

	re, err := OpenLiveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Name() != "items" || re.NumRows() != 2 || re.Version() != 1 {
		t.Fatalf("recovered: name=%q rows=%d version=%d", re.Name(), re.NumRows(), re.Version())
	}
	// Spec mismatch on reopen is ErrInvalid, not silent reinterpretation.
	if _, err := OpenLiveTable(dir, "items", "id:int,f1:string", "id"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("schema mismatch: got %v, want ErrInvalid", err)
	}
}

// TestDurabilityFailureIsErrUnavailable: a sync failure surfaces as
// ErrUnavailable — distinct from ErrInvalid, which clients must not retry —
// and applies nothing.
func TestDurabilityFailureIsErrUnavailable(t *testing.T) {
	fs := faultfs.New()
	lt := openFaultTable(t, fs, "d", "items", "id:int,f1:float", "id")
	defer lt.Close()
	if err := lt.Append(int64(1), 1.0); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(-1)
	err := lt.Append(int64(2), 2.0)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if errors.Is(err, ErrInvalid) {
		t.Fatal("durability failure must not test true against ErrInvalid")
	}
	if lt.NumRows() != 1 || lt.Version() != 1 {
		t.Fatalf("failed append mutated the table: rows=%d version=%d", lt.NumRows(), lt.Version())
	}
}
