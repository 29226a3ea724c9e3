// Package par provides the bounded worker pools behind every concurrent
// code path in this repository.
//
// Determinism contract: callers pre-commit all randomness (one xrand
// sub-stream per work item, split from the parent stream before dispatch)
// and every work item writes only to its own output slot. Under that
// discipline results are bit-identical for any worker count and any
// scheduling order, so parallelism is a pure throughput knob — the same
// seed yields the same estimates at -p 1, -p 4, or GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism degree: values <= 0 mean "use
// every available core" (GOMAXPROCS); positive values are taken as given.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// activePools guards against nested or concurrent pools oversubscribing
// the machine: while one multi-worker pool is running, any further pool
// degrades to inline execution. Results are unaffected (the determinism
// contract makes worker count a pure throughput knob); this only stops a
// parallel trial pool whose trials each train a parallel forest from
// spawning trials × cores CPU-bound goroutines.
var activePools atomic.Int32

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and waits for all of them. Work items are handed out through an atomic
// counter, so completion order is nondeterministic — fn must write only to
// per-item state (its own output slot). workers <= 1, or n <= 1, runs
// inline on the calling goroutine with zero synchronization overhead; so
// does any pool requested while another pool is already running (see
// activePools).
//
// A panic in fn never escapes on a worker goroutine, where no caller could
// recover it and it would take the process down: the pool stops handing out
// indices, waits for the running items, and re-raises the first panic value
// on the calling goroutine — exactly where the inline path would have
// raised it.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers > 1 {
		if activePools.CompareAndSwap(0, 1) {
			defer activePools.Store(0)
		} else {
			workers = 1
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForEachChunk splits [0, n) into contiguous chunks of at most chunk items
// and runs fn(lo, hi) for each half-open chunk on at most workers
// goroutines. Chunking amortizes dispatch overhead and keeps each worker on
// a contiguous, cache-friendly index range.
func ForEachChunk(workers, n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	ForEach(workers, chunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
