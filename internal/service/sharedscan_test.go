package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestScanCoalescerMergesConcurrentMembers pins the acceptance property
// directly: four concurrent LabelAll calls on the same scan key cost one
// shared pass (≤ 0.5× the four passes serial execution would have run),
// and every member's evaluator sees each object exactly once, ascending.
func TestScanCoalescerMergesConcurrentMembers(t *testing.T) {
	m := newMeters(obs.NewRegistry())
	c := newScanCoalescer(m)
	c.window = 100 * time.Millisecond // generous join window: determinism over latency

	const n = 10_000
	const members = 4
	var wg sync.WaitGroup
	results := make([][]bool, members)
	errs := make([]error, members)
	counts := make([]int, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			next := 0
			results[i], errs[i] = c.LabelAll(context.Background(), "snap|q2", n,
				func(idxs []int, out []bool) {
					for j, idx := range idxs {
						if idx != next {
							t.Errorf("member %d: object %d arrived, want %d (ascending, exactly once)", i, idx, next)
							return
						}
						next++
						counts[i]++
						out[j] = idx%(i+2) == 0 // member-specific labels
					}
				})
		}(i)
	}
	wg.Wait()

	for i := 0; i < members; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if counts[i] != n {
			t.Fatalf("member %d evaluated %d objects, want %d", i, counts[i], n)
		}
		for idx, got := range results[i] {
			if want := idx%(i+2) == 0; got != want {
				t.Fatalf("member %d label[%d] = %v, want %v", i, idx, got, want)
			}
		}
	}
	if scans := m.sharedScans.Value(); scans != 1 {
		t.Fatalf("SharedScans = %d, want 1 (4 concurrent requests must share one pass)", scans)
	}
	if reqs := m.sharedScanRequests.Value(); reqs != members {
		t.Fatalf("SharedScanRequests = %d, want %d", reqs, members)
	}
}

// TestScanCoalescerSeparatesKeys pins that different scan keys (different
// snapshots or enumerations) never share a pass.
func TestScanCoalescerSeparatesKeys(t *testing.T) {
	m := newMeters(obs.NewRegistry())
	c := newScanCoalescer(m)
	c.window = 50 * time.Millisecond
	var wg sync.WaitGroup
	for _, key := range []string{"snapA", "snapB"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, err := c.LabelAll(context.Background(), key, 100,
				func(idxs []int, out []bool) {}); err != nil {
				t.Errorf("%s: %v", key, err)
			}
		}(key)
	}
	wg.Wait()
	if scans := m.sharedScans.Value(); scans != 2 {
		t.Fatalf("SharedScans = %d, want 2 (distinct keys must not merge)", scans)
	}
}

// TestScanCoalescerMemberFailureIsolated pins that one member's panic or
// cancellation costs only that member (it gets an error and the SDK falls
// back standalone) while the rest of the group completes normally.
func TestScanCoalescerMemberFailureIsolated(t *testing.T) {
	m := newMeters(obs.NewRegistry())
	c := newScanCoalescer(m)
	c.window = 50 * time.Millisecond

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var okLabels []bool
	var okErr, panicErr, ctxErr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		okLabels, okErr = c.LabelAll(context.Background(), "k", 5000,
			func(idxs []int, out []bool) {
				for j := range idxs {
					out[j] = true
				}
			})
	}()
	go func() {
		defer wg.Done()
		_, panicErr = c.LabelAll(context.Background(), "k", 5000,
			func(idxs []int, out []bool) { panic("data-dependent eval failure") })
	}()
	go func() {
		defer wg.Done()
		_, ctxErr = c.LabelAll(canceled, "k", 5000, func(idxs []int, out []bool) {
			t.Error("canceled member's evaluator must not run")
		})
	}()
	wg.Wait()

	if okErr != nil {
		t.Fatalf("healthy member: %v", okErr)
	}
	for i, v := range okLabels {
		if !v {
			t.Fatalf("healthy member label[%d] lost", i)
		}
	}
	if panicErr == nil {
		t.Fatal("panicking member got no error")
	}
	if !errors.Is(ctxErr, context.Canceled) {
		t.Fatalf("canceled member err = %v, want context.Canceled", ctxErr)
	}
}

// TestCountSharedScanEndToEnd drives the full stack: concurrent exact
// /v1/count requests that differ only in predicate-only parameters (same
// snapshot, same object enumeration) coalesce their exact passes, and each
// answer matches the brute-force truth exactly.
func TestCountSharedScanEndToEnd(t *testing.T) {
	tbl := testTable(300, 7)
	reg := NewRegistry()
	reg.Register(tbl)
	// Catalog off: the reuse catalog's fast path keeps its own per-entry
	// label memo for exact counts; the scan coalescer serves the classic
	// path (catalog-ineligible shapes, no_cache traffic, catalog disabled).
	svc := New(reg, Options{MaxInFlight: 8, CacheSize: -1, CatalogBytes: -1})
	svc.scans.window = 100 * time.Millisecond // absorb prep/sampling skew between goroutines

	ks := []int{5, 8, 12, 20}
	var wg sync.WaitGroup
	res := make([]*CountResult, len(ks))
	errs := make([]error, len(ks))
	for i, k := range ks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			res[i], errs[i] = svc.Count(&CountRequest{
				SQL: skybandQuery, Params: map[string]any{"k": k},
				Method: "srs", Budget: 0.2, Seed: 11, Exact: true,
			})
		}(i, k)
	}
	wg.Wait()
	for i, k := range ks {
		if errs[i] != nil {
			t.Fatalf("k=%d: %v", k, errs[i])
		}
		if res[i].TrueCount == nil {
			t.Fatalf("k=%d: no exact count", k)
		}
		if want := trueSkyband(tbl, k); *res[i].TrueCount != want {
			t.Fatalf("k=%d: exact count %d, want %d", k, *res[i].TrueCount, want)
		}
	}
	if reqs := svc.m.sharedScanRequests.Value(); reqs != int64(len(ks)) {
		t.Fatalf("SharedScanRequests = %d, want %d", reqs, len(ks))
	}
	// The acceptance bound: 4 concurrent queries cost at most half the
	// scans of 4 serial runs.
	if scans := svc.m.sharedScans.Value(); scans > int64(len(ks))/2 {
		t.Fatalf("SharedScans = %d for %d concurrent exact queries, want ≤ %d",
			scans, len(ks), len(ks)/2)
	}
}
