package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/lsample"
)

// newLiveService registers a live items/events pair and returns the
// service plus the live tables for direct ingestion.
func newLiveService(t testing.TB, nItems int, opts Options) (*Service, *lsample.LiveTable, *lsample.LiveTable) {
	t.Helper()
	items, err := lsample.NewLiveTable("items", "id:int,f1:float,f2:float,region:string", "id")
	if err != nil {
		t.Fatal(err)
	}
	events, err := lsample.NewLiveTable("events", "item:int,v:float", "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	var ib, eb lsample.DeltaBatch
	for i := 0; i < nItems; i++ {
		f1 := rng.Float64() * 100
		ib.Append(int64(i), f1, rng.Float64()*100, string(rune('a'+i%3)))
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
	svc := New(NewRegistry(), opts)
	svc.RegisterLiveTable(items)
	svc.RegisterLiveTable(events)
	return svc, items, events
}

const liveCountSQL = `SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > 4`
const liveGroupSQL = `SELECT region, COUNT(*) FROM (
	SELECT i.id, i.region FROM items i, events e WHERE e.item = i.id
	GROUP BY i.id, i.region HAVING COUNT(*) > 4) GROUP BY region`

// itemsCSV renders an append-only CSV delta of n new items starting at id.
func itemsCSV(start, n int) string {
	var sb strings.Builder
	sb.WriteString("id,f1,f2,region\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,%g,%g,%s\n", start+i, float64(i%97), float64(i%89), string(rune('a'+i%3)))
	}
	return sb.String()
}

// TestIngestEndToEnd drives the HTTP API: live upload, CSV and NDJSON
// ingestion, version bumps, cache invalidation, and the stats counters.
func TestIngestEndToEnd(t *testing.T) {
	svc, _, _ := newLiveService(t, 300, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Upload a brand-new live dataset over HTTP.
	resp, err := http.Post(srv.URL+"/v1/datasets?name=extra&schema=id:int,w:float&live=1&key=id",
		"text/csv", strings.NewReader("id,w\n1,2.5\n2,3.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live upload status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Count once to warm the cache.
	count := func() *CountResult {
		res, err := svc.Count(&CountRequest{SQL: liveCountSQL, Method: "srs", Budget: 0.2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := count()
	r2 := count()
	if !r2.Cached {
		t.Fatal("second identical request must hit the cache")
	}

	// CSV ingest into items must bump the version and invalidate the cache.
	resp, err = http.Post(srv.URL+"/v1/ingest?name=items", "text/csv", strings.NewReader(itemsCSV(300, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	r3 := count()
	if r3.Cached {
		t.Fatal("ingest must invalidate cached results for the dataset")
	}
	if r3.Objects != 350 {
		t.Fatalf("objects after ingest = %d, want 350", r3.Objects)
	}
	_ = r1

	// NDJSON ingest with update + delete.
	nd := `{"op":"update","key":3,"row":{"id":3,"f1":99.0,"f2":1.0,"region":"a"}}
{"op":"delete","key":5}`
	resp, err = http.Post(srv.URL+"/v1/ingest?name=items", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := count().Objects; got != 349 {
		t.Fatalf("objects after delete = %d, want 349", got)
	}

	// Ingest into a non-live dataset must 400 with a helpful message.
	tb, err := lsample.NewTable("static", "id:int")
	if err != nil {
		t.Fatal(err)
	}
	svc.RegisterTable(tb)
	resp, err = http.Post(srv.URL+"/v1/ingest?name=static", "text/csv", strings.NewReader("id\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("static ingest status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	m := svc.m
	if m.ingestRequests.Value() != 3 || m.ingestRows.Value() != 52 || m.ingestErrors.Value() != 1 {
		t.Fatalf("ingest counters = %v", svc.metrics.Stats())
	}
	if m.ingestBatches.Value() < 2 {
		t.Fatalf("ingest batches = %d", m.ingestBatches.Value())
	}
}

// TestIngestRespectsBodyLimit pins the size-limit semantics: a delta body
// over MaxUploadBytes fails with 413, and rows streamed before the limit
// stay committed (durable batches, like any streaming sink).
func TestIngestRespectsBodyLimit(t *testing.T) {
	svc, items, _ := newLiveService(t, 10, Options{MaxUploadBytes: 2048})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	before := items.NumRows()
	resp, err := http.Post(srv.URL+"/v1/ingest?name=items", "text/csv", strings.NewReader(itemsCSV(10, 5000)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if items.NumRows() >= 10+5000 || items.NumRows() < before {
		t.Fatalf("rows after capped ingest = %d", items.NumRows())
	}
}

// TestIngestConflictsWithReregistration pins the replace-during-ingest
// race: rows streamed into a live table that was re-registered mid-ingest
// must not be reported as published — Repin refuses the orphaned table and
// the ingest surfaces a conflict instead of silent data loss.
func TestIngestConflictsWithReregistration(t *testing.T) {
	svc, items, _ := newLiveService(t, 10, Options{})
	// Simulate the interleaving: the replacement lands after Ingest grabbed
	// the old live handle. Driving Repin directly reproduces the decision
	// point without needing a mid-stream hook.
	replacement, err := lsample.NewLiveTable("items", "id:int,f1:float,f2:float,region:string", "id")
	if err != nil {
		t.Fatal(err)
	}
	svc.RegisterLiveTable(replacement)
	if _, ok := svc.Registry.Repin("items", items); ok {
		t.Fatal("Repin must refuse a superseded live table")
	}
	if _, err := svc.Ingest("items", "csv", strings.NewReader(itemsCSV(10, 2))); err != nil {
		t.Fatalf("ingest into the current registration must work: %v", err)
	}
	if replacement.NumRows() != 2 {
		t.Fatalf("replacement rows = %d, want 2", replacement.NumRows())
	}
}

// TestRetainedSnapshotsBoundedUnderReregistration is the registry-leak
// regression test: under repeated re-registration (and live ingestion) with
// interleaved queries, the number of prepared-query entries — each pinning
// one consistent snapshot set — stays bounded instead of growing with the
// version history.
func TestRetainedSnapshotsBoundedUnderReregistration(t *testing.T) {
	svc, _, _ := newLiveService(t, 100, Options{})
	mkTable := func(n int) *lsample.Table {
		tb, err := lsample.NewTable("stat", "id:int,x:float")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tb.AppendRow(int64(i), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	const statSQL = `SELECT s1.id FROM stat s1, stat s2 WHERE s2.x >= s1.x GROUP BY s1.id HAVING COUNT(*) < 4`
	for round := 0; round < 30; round++ {
		svc.RegisterTable(mkTable(40 + round))
		if _, err := svc.Count(&CountRequest{SQL: statSQL, Method: "srs", Budget: 0.5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Ingest("items", "csv", strings.NewReader(itemsCSV(100+round, 1))); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Count(&CountRequest{SQL: liveCountSQL, Method: "srs", Budget: 0.3, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if got := svc.preps.len(); got > 4 {
			t.Fatalf("round %d: %d prepared snapshot sets retained, want ≤ 4", round, got)
		}
	}
}

// TestConcurrentIngestAndCount hammers ingestion against plain and grouped
// counting; run under -race this pins the whole pipeline (snapshot
// publication, registry repinning, prepared-query cache) as race-clean.
func TestConcurrentIngestAndCount(t *testing.T) {
	svc, _, events := newLiveService(t, 200, Options{MaxInFlight: 8})
	stop := make(chan struct{})
	ingestDone := make(chan struct{})

	go func() {
		defer close(ingestDone)
		// Bounded: an unthrottled ingester grows the tables so fast that
		// every counting request's prepare (whose validation is a full join
		// scan) slows quadratically; 200 rounds still guarantee plenty of
		// overlap with the counters.
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 2 {
				var eb lsample.DeltaBatch
				eb.Append(int64(i%200), 1.5)
				if _, err := events.Apply(&eb); err != nil {
					t.Error(err)
					return
				}
				if _, ok := svc.Registry.Repin("events", events); !ok {
					t.Error("repin failed")
					return
				}
				svc.dropStale()
			} else {
				if _, err := svc.Ingest("items", "csv", strings.NewReader(itemsCSV(200+i*3, 3))); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var counters sync.WaitGroup
	for g := 0; g < 4; g++ {
		counters.Add(1)
		go func(g int) {
			defer counters.Done()
			for i := 0; i < 15; i++ {
				sqlText := liveCountSQL
				if g%2 == 1 {
					sqlText = liveGroupSQL
				}
				_, err := svc.Count(&CountRequest{SQL: sqlText, Method: "srs", Budget: 0.2, Seed: uint64(i)})
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
			}
		}(g)
	}
	counters.Wait()
	close(stop)
	<-ingestDone
}

// TestDeterminismAgainstPinnedSnapshotMidIngest pins that an estimate
// executed against a pinned snapshot is byte-identical across
// parallelism 1, 4, and NumCPU even while ingestion keeps mutating the
// live tables underneath.
func TestDeterminismAgainstPinnedSnapshotMidIngest(t *testing.T) {
	_, items, events := newLiveService(t, 400, Options{})
	frozen := lsample.NewMemorySource(items.Snapshot(), events.Snapshot())

	stop := make(chan struct{})
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var ib lsample.DeltaBatch
			ib.Append(int64(400+i), float64(i%50), float64(i%70), "a")
			if _, err := items.Apply(&ib); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	results := make([]*lsample.Estimate, 0, 3)
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		sess, err := lsample.NewSession(frozen,
			lsample.WithMethod("lss"), lsample.WithBudget(0.1),
			lsample.WithSeed(77), lsample.WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Count(nil, liveCountSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	close(stop)
	<-ingestDone
	for _, r := range results[1:] {
		if r.Count != results[0].Count || r.CI.Lo != results[0].CI.Lo || r.CI.Hi != results[0].CI.Hi ||
			r.SamplesUsed != results[0].SamplesUsed {
			t.Fatalf("mid-ingest pinned estimates diverge across parallelism: %+v vs %+v", r, results[0])
		}
	}
}
