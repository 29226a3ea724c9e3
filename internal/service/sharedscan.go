package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// scanChunk is the batch size of a coalesced labeling pass. It matches the
// SDK's standalone chunked pass, so a coalesced member sees the same
// ascending batches (and therefore the identical eval-counter trajectory)
// it would see labeling alone.
const scanChunk = 4096

// defaultScanWindow is how long the first arrival of a scan group waits for
// followers before the shared pass starts. Concurrent requests on the same
// snapshot typically arrive within a round-trip of each other; a couple of
// milliseconds of added latency buys scan sharing across all of them.
const defaultScanWindow = 2 * time.Millisecond

// scanCoalescer implements lsample.ScanCoalescer for the service: exact
// labeling passes of concurrent /v1/count requests over the same dataset
// snapshot and object enumeration (same scan key) are merged into one
// sequential scan that feeds every member's own evaluator chunk by chunk.
// Four concurrent exact queries that differ only in predicate parameters
// thus cost one scan's worth of data traversal, not four — each member
// still pays its own predicate evaluations, which is what keeps every
// answer byte-identical to a standalone run.
type scanCoalescer struct {
	m      *meters
	window time.Duration

	mu     sync.Mutex
	groups map[string]*scanGroup
}

// scanGroup collects the members that will share one labeling pass.
type scanGroup struct {
	members []*scanMember
}

// scanMember is one request's stake in a shared scan. out and err are
// written only by the scan worker before done is closed; the waiting
// request reads them only after done.
type scanMember struct {
	ctx  context.Context
	eval func(idxs []int, out []bool)
	out  []bool
	err  error
	done chan struct{}
}

func newScanCoalescer(m *meters) *scanCoalescer {
	return &scanCoalescer{m: m, window: defaultScanWindow, groups: make(map[string]*scanGroup)}
}

// LabelAll implements lsample.ScanCoalescer: it joins (or opens) the scan
// group for (key, n), waits for the shared pass, and returns this member's
// labels. A member whose context expires before its turn gets the context
// error back (the SDK maps it to a cancellation); any other failure makes
// the SDK fall back to a standalone scan.
func (c *scanCoalescer) LabelAll(ctx context.Context, key string, n int, eval func(idxs []int, out []bool)) ([]bool, error) {
	_, span := obs.StartSpan(ctx, "sharedscan.member")
	defer span.End()
	m := &scanMember{ctx: ctx, eval: eval, out: make([]bool, n), done: make(chan struct{})}
	gk := fmt.Sprintf("%s|%d", key, n)
	c.mu.Lock()
	g := c.groups[gk]
	if g == nil {
		g = &scanGroup{}
		c.groups[gk] = g
		time.AfterFunc(c.window, func() { c.run(gk, n) })
	}
	g.members = append(g.members, m)
	joined := len(g.members)
	c.mu.Unlock()
	span.Set("objects", n)
	span.Set("members_at_join", joined)

	// Wait for the worker even if ctx fires: the member's eval closure is
	// not safe for concurrent use, so returning early while the worker may
	// still call it would race. The worker observes ctx per chunk, so the
	// wait after cancellation is at most one chunk plus the window.
	<-m.done
	if m.err != nil {
		return nil, m.err
	}
	return m.out, nil
}

// run executes one shared pass for the group registered under gk: a single
// ascending walk over the object indices, feeding each live member's
// evaluator every chunk. Members fail independently — a cancellation or a
// data-dependent panic costs that member its place in the shared scan (the
// SDK retries standalone), never the whole group.
func (c *scanCoalescer) run(gk string, n int) {
	c.mu.Lock()
	g := c.groups[gk]
	delete(c.groups, gk)
	c.mu.Unlock()

	c.m.sharedScans.Inc()
	c.m.sharedScanRequests.Add(int64(len(g.members)))

	idxs := make([]int, scanChunk)
	for base := 0; base < n; base += scanChunk {
		end := min(base+scanChunk, n)
		chunk := idxs[:end-base]
		for i := range chunk {
			chunk[i] = base + i
		}
		for _, m := range g.members {
			if m.err != nil {
				continue
			}
			if err := m.ctx.Err(); err != nil {
				m.err = err
				continue
			}
			evalMemberChunk(m, chunk, m.out[base:end])
		}
	}
	for _, m := range g.members {
		close(m.done)
	}
}

// evalMemberChunk isolates one member's evaluation so a panic inside its
// predicate surfaces as that member's error, not as a crash of the shared
// worker goroutine (where no request handler's recover could catch it).
func evalMemberChunk(m *scanMember, idxs []int, out []bool) {
	defer func() {
		if p := recover(); p != nil {
			m.err = fmt.Errorf("service: shared scan member panicked: %v", p)
		}
	}()
	m.eval(idxs, out)
}
