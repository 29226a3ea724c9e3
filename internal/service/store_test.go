package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestResultCacheLRUAndTTL pins the result cache's two bounds on the store
// type behind it: least-recently-used eviction at capacity, and expiry
// against an injected clock.
func TestResultCacheLRUAndTTL(t *testing.T) {
	c := newStore[*CountResult](2, time.Minute)
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	mk := func(v float64) *CountResult { return &CountResult{Estimate: v} }

	c.put("a", nil, mk(1))
	c.put("b", nil, mk(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", nil, mk(3)) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should survive eviction")
	}

	now = now.Add(2 * time.Minute)
	if _, ok := c.get("a"); ok {
		t.Error("a should have expired")
	}
	if c.len() > 1 {
		t.Errorf("expired entry not pruned, len=%d", c.len())
	}

	off := newStore[*CountResult](0, 0) // CacheSize < 0
	off.put("a", nil, mk(1))
	if _, ok := off.get("a"); ok || off.len() != 0 {
		t.Error("a store without capacity must hold nothing")
	}
}

// TestStoreEvictsExactlyOnce: each way the store lets go of a value — LRU
// pressure, a lost insert race, the drop walk — removes exactly that value
// and leaves every other resident.
func TestStoreEvictsExactlyOnce(t *testing.T) {
	s := newStore[string](2, 0)
	v1 := map[string]uint64{"D": 1}
	v2 := map[string]uint64{"D": 2}
	resident := func() string {
		var got string
		for _, k := range []string{"a", "b", "c", "d"} {
			s.mu.Lock()
			if el, ok := s.m[k]; ok {
				got += el.Value.(*storeEntry[string]).val + " "
			}
			s.mu.Unlock()
		}
		return got
	}

	s.put("a", v1, "a1")
	if got := s.put("a", v1, "a2"); got != "a1" { // lost race: resident wins
		t.Fatalf("racing put returned %q, want the resident a1", got)
	}
	s.put("b", v2, "b1")
	s.put("c", v2, "c1") // over capacity: a1 is least recently used
	if got := resident(); got != "b1 c1 " {
		t.Fatalf("after race + LRU eviction: resident %q", got)
	}
	s.put("d", v1, "d1") // over capacity: b1 goes
	if got := resident(); got != "c1 d1 " {
		t.Fatalf("after a second LRU eviction: resident %q", got)
	}
	s.dropStale(func(v map[string]uint64) bool { return v["D"] == 2 }) // the registry moved on from version 1
	if got := resident(); got != "c1 " || s.len() != 1 {
		t.Fatalf("after dropStale: resident %q, len %d", got, s.len())
	}
}

// TestShardExecClosedOncePerEviction drives the same property through the
// service with real executors: after a concurrent stampede on one (plan,
// shard) the next op finds one executor resident, and a version bump leaves
// none behind — no prepared query to keep one, nor any catalog entry of the
// superseded snapshot: an executor pins its entry only while an op runs.
func TestShardExecClosedOncePerEviction(t *testing.T) {
	svc, _ := newWorkerServer(t, testTable(80, 7))
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.ShardOp(ctx, shardReq("meta", 1, 2)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if built := opBuilds(t, svc, shardReq("meta", 1, 2)); built != 0 {
		t.Fatalf("an op after the stampede built %d executors, want the resident one", built)
	}
	svc.RegisterTable(testTable(80, 8))
	if got := svc.preps.len(); got != 0 {
		t.Fatalf("after re-registration: retained %d prepared queries, want 0", got)
	}
	if pinned := svc.CatalogStats().Entries; pinned != 0 {
		t.Fatalf("catalog still holds %d entries of the superseded snapshot", pinned)
	}
}

// TestPreparedStoreEvictsOneColdEntry is the regression for the old
// prepared-query map, which cleared all 64 entries — hot feature matrices
// included — when the 65th distinct query arrived.
func TestPreparedStoreEvictsOneColdEntry(t *testing.T) {
	svc := newTestService(t, 30, Options{})
	query := func(i int) *CountRequest {
		// Distinct shapes over the same data: the constant is part of the
		// canonical fingerprint.
		return &CountRequest{
			SQL: fmt.Sprintf(`SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x + %d
				GROUP BY o1.id HAVING COUNT(*) < k`, i),
			Params: map[string]any{"k": 5}, Method: "srs", Budget: 0.5, Seed: 1,
		}
	}
	for i := 0; i < maxPrepared; i++ {
		if _, err := svc.Count(query(i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	hot := svc.planOf(t, query(0))
	if _, ok := svc.preps.get(hot.key("")); !ok { // touch: query 0 is hot
		t.Fatal("query 0 not prepared")
	}
	if _, err := svc.Count(query(maxPrepared)); err != nil { // the 65th
		t.Fatal(err)
	}
	if got := svc.preps.len(); got != maxPrepared {
		t.Fatalf("after the %dth distinct query the store holds %d, want %d (one eviction, not a purge)",
			maxPrepared+1, got, maxPrepared)
	}
	if _, ok := svc.preps.get(hot.key("")); !ok {
		t.Error("the hot prepared query was evicted")
	}
	if _, ok := svc.preps.get(svc.planOf(t, query(1)).key("")); ok {
		t.Error("the coldest prepared query (1) survived; eviction is not LRU")
	}
}

func (s *Service) planOf(t *testing.T, req *CountRequest) *plan {
	t.Helper()
	p, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
