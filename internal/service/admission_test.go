package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

func mustAcquire(t *testing.T, a *admitter, key string) {
	t.Helper()
	if err := a.acquire(context.Background(), key, time.Now().Add(time.Second)); err != nil {
		t.Fatalf("acquire %q: %v", key, err)
	}
}

// TestAdmitterShedsDeepQueues pins queue-depth shedding: once a dataset's
// queue is maxQueued deep, further arrivals fail immediately with ErrBusy
// instead of waiting out a deadline they cannot meet.
func TestAdmitterShedsDeepQueues(t *testing.T) {
	a := newAdmitter(1, 2)
	mustAcquire(t, a, "A")
	for i := 0; i < 2; i++ {
		go a.acquire(context.Background(), "A", time.Now().Add(10*time.Second)) //nolint:errcheck
	}
	for i := 0; ; i++ {
		a.mu.Lock()
		n := a.queued["A"]
		a.mu.Unlock()
		if n == 2 {
			break
		}
		if i > 1000 {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err := a.acquire(context.Background(), "A", time.Now().Add(10*time.Second))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("overdeep queue: err = %v, want ErrBusy", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("shed took %v, want immediate", e)
	}
}

// TestAdmitterDeadline pins deadline-aware rejection and the context path.
func TestAdmitterDeadline(t *testing.T) {
	a := newAdmitter(1, 8)
	mustAcquire(t, a, "A")

	if err := a.acquire(context.Background(), "B", time.Now().Add(30*time.Millisecond)); !errors.Is(err, ErrBusy) {
		t.Fatalf("deadline expiry: err = %v, want ErrBusy", err)
	}
	// An already-expired deadline rejects without queueing.
	if err := a.acquire(context.Background(), "B", time.Now().Add(-time.Second)); !errors.Is(err, ErrBusy) {
		t.Fatalf("expired deadline: err = %v, want ErrBusy", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx, "B", time.Now().Add(time.Minute)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
	// Abandoned waiters must not leak queue accounting.
	a.mu.Lock()
	leaked := len(a.queued)
	a.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("queued accounting leaked %d keys", leaked)
	}
	a.release()
	mustAcquire(t, a, "B") // the slot is reusable after the failures
	a.release()
}

// TestAdmitterDrain pins shutdown semantics: drain takes every slot and new
// acquires fail afterwards.
func TestAdmitterDrain(t *testing.T) {
	a := newAdmitter(3, 8)
	mustAcquire(t, a, "A")
	done := make(chan error, 1)
	go func() { done <- a.drain(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("drain finished with a slot still held (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := a.acquire(context.Background(), "A", time.Now().Add(20*time.Millisecond)); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire after drain: err = %v, want ErrBusy", err)
	}
}

// TestCountDegradedUnderOverload pins the deadline-degradation contract: a
// request that opts in via Degrade gets a small-budget SRS answer with a
// confidence interval instead of a 503, marked Degraded and never cached.
func TestCountDegradedUnderOverload(t *testing.T) {
	svc := newTestService(t, 400, Options{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	release := occupyAdmission(t, svc)

	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Seed: 3, Degrade: true}
	res, err := svc.Count(req)
	if err != nil {
		t.Fatalf("degraded count: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if !res.HasCI {
		t.Fatal("degraded answer has no confidence interval")
	}
	if res.Method != "srs" {
		t.Fatalf("degraded method = %q, want srs", res.Method)
	}
	if got := svc.m.degraded.Value(); got != 1 {
		t.Fatalf("Degraded metric = %d, want 1", got)
	}
	if got := svc.m.rejected.Value(); got != 0 {
		t.Fatalf("Rejected metric = %d, want 0 (the request was served)", got)
	}
	if n := svc.results.len(); n != 0 {
		t.Fatalf("degraded answer was cached (%d entries)", n)
	}

	// Without the opt-in the same overload is still a plain ErrBusy.
	req2 := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 9}, Seed: 3}
	if _, err := svc.Count(req2); !errors.Is(err, ErrBusy) {
		t.Fatalf("non-degrade request: err = %v, want ErrBusy", err)
	}

	// After load subsides, the degraded result must not shadow the real
	// one: the same request computes (and caches) a full answer.
	release()
	full, err := svc.Count(req)
	if err != nil {
		t.Fatalf("full count after release: %v", err)
	}
	if full.Degraded {
		t.Fatal("uncontended request still degraded")
	}
}
