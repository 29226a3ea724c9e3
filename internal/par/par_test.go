package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 1000
		hits := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	calls := 0
	ForEach(4, 1, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1 calls = %d", calls)
	}
}

func TestForEachChunkBounds(t *testing.T) {
	const n = 103
	hits := make([]int32, n)
	ForEachChunk(3, n, 10, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi || hi-lo > 10 {
			t.Errorf("bad chunk [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForEachNestedPoolsComplete(t *testing.T) {
	// A pool inside a pool must degrade to inline execution (activePools
	// guard) and still cover every (outer, inner) pair exactly once.
	const outer, inner = 4, 50
	hits := make([][]int32, outer)
	for i := range hits {
		hits[i] = make([]int32, inner)
	}
	ForEach(4, outer, func(i int) {
		ForEach(4, inner, func(j int) {
			atomic.AddInt32(&hits[i][j], 1)
		})
	})
	for i := range hits {
		for j, h := range hits[i] {
			if h != 1 {
				t.Fatalf("pair (%d, %d) hit %d times", i, j, h)
			}
		}
	}
	// The guard must release: a later pool still covers everything.
	var total atomic.Int32
	ForEach(4, 100, func(int) { total.Add(1) })
	if total.Load() != 100 {
		t.Fatalf("post-nesting pool covered %d of 100", total.Load())
	}
}

func TestForEachChunkZeroChunk(t *testing.T) {
	var total atomic.Int32
	ForEachChunk(2, 5, 0, func(lo, hi int) {
		total.Add(int32(hi - lo))
	})
	if total.Load() != 5 {
		t.Fatalf("covered %d of 5", total.Load())
	}
}

// TestForEachReraisesWorkerPanic: a panic on a worker goroutine surfaces
// on the caller's goroutine (where it can be recovered), the pool stops
// handing out work, and the pool guard is released for the next caller.
func TestForEachReraisesWorkerPanic(t *testing.T) {
	const n = 100000
	var ran atomic.Int64
	var got any
	func() {
		defer func() { got = recover() }()
		ForEachChunk(4, n, 10, func(lo, hi int) {
			if lo == 50 {
				panic("boom at 50")
			}
			ran.Add(int64(hi - lo))
		})
	}()
	if got != "boom at 50" {
		t.Fatalf("recovered %v, want the worker's panic value", got)
	}
	if ran.Load() >= n-10 {
		t.Fatalf("pool ran %d of %d items after the panic: it did not stop handing out work", ran.Load(), n)
	}
	hits := make([]int32, 64)
	ForEach(4, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("pool after a panic: index %d hit %d times", i, h)
		}
	}
	if activePools.Load() != 0 {
		t.Fatal("pool guard still held after a panicking pool")
	}
}
