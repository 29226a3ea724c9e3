package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// admitter bounds concurrent estimations:
//
//   - at most globalCap estimations run at once (MaxInFlight);
//   - waiters are granted in FIFO arrival order;
//   - a dataset (keyed by the request's resolved dataset-versions string)
//     whose queue is already maxQueued deep sheds new arrivals immediately
//     with ErrBusy instead of making them wait out a timeout that cannot
//     possibly be met.
//
// Deadline awareness lives in acquire: a waiter that cannot be granted by
// its admission deadline gives up with ErrBusy, and the caller may then opt
// into a budget-degraded answer (see Service.degraded) instead of a 503.
type admitter struct {
	globalCap int
	maxQueued int

	mu       sync.Mutex
	inFlight int
	queued   map[string]int // queued waiters per dataset key
	queue    []*admitWaiter // FIFO arrival order
}

// admitWaiter is one queued acquire. granted/gone are guarded by the
// admitter mutex; ready is closed exactly once, on grant.
type admitWaiter struct {
	key     string
	ready   chan struct{}
	granted bool
	gone    bool
}

func newAdmitter(globalCap, maxQueued int) *admitter {
	return &admitter{globalCap: globalCap, maxQueued: maxQueued, queued: make(map[string]int)}
}

// pumpLocked grants queued waiters in FIFO order while capacity lasts,
// discarding abandoned ones.
func (a *admitter) pumpLocked() {
	for len(a.queue) > 0 && a.inFlight < a.globalCap {
		w := a.queue[0]
		a.queue[0] = nil
		a.queue = a.queue[1:]
		if w.gone {
			continue // its acquire already returned
		}
		a.inFlight++
		w.granted = true
		a.dequeuedLocked(w.key)
		close(w.ready)
	}
}

func (a *admitter) dequeuedLocked(key string) {
	if n := a.queued[key]; n <= 1 {
		delete(a.queued, key)
	} else {
		a.queued[key] = n - 1
	}
}

// acquire admits one estimation against the dataset identified by key,
// waiting until the deadline (zero = no deadline, wait on ctx alone). It
// returns ErrBusy when the deadline passes or the dataset's queue is
// already hopeless, and the wrapped context error on cancellation.
func (a *admitter) acquire(ctx context.Context, key string, deadline time.Time) error {
	var expiry <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			return ErrBusy
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		expiry = timer.C
	}

	a.mu.Lock()
	if a.inFlight < a.globalCap {
		a.inFlight++
		a.mu.Unlock()
		return nil
	}
	if a.queued[key] >= a.maxQueued {
		// Shedding: the dataset's queue is deeper than could drain within
		// any reasonable deadline; fail fast instead of parking.
		a.mu.Unlock()
		return ErrBusy
	}
	w := &admitWaiter{key: key, ready: make(chan struct{})}
	a.queued[key]++
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-expiry:
		return a.abandon(w, ErrBusy)
	case <-ctx.Done():
		return a.abandon(w, fmt.Errorf("service: %w", ctx.Err()))
	}
}

// abandon retracts a queued waiter after a timeout or cancellation. If a
// grant raced the retraction, the grant stands and the caller proceeds
// admitted (it must release as usual).
func (a *admitter) abandon(w *admitWaiter, err error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return nil
	}
	w.gone = true
	a.dequeuedLocked(w.key)
	return err
}

// release returns one slot and grants what the freed capacity allows.
func (a *admitter) release() {
	a.mu.Lock()
	a.inFlight--
	a.pumpLocked()
	a.mu.Unlock()
}

// drain acquires every slot: once it returns nil, no estimation is running
// and none can start. The slots are never released — drain is shutdown's
// point of no return. On ctx expiry it stops early with the context error,
// holding the slots it got.
func (a *admitter) drain(ctx context.Context) error {
	for i := 0; i < a.globalCap; i++ {
		if err := a.acquire(ctx, "", time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// inflight reports the number of currently admitted estimations.
func (a *admitter) inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// queuedTotal reports the number of waiters currently queued for
// admission across all datasets.
func (a *admitter) queuedTotal() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, q := range a.queued {
		n += q
	}
	return n
}
