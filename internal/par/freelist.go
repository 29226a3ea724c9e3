package par

import (
	"runtime"
	"sync"
)

// MaxScratchBytes is the largest scratch set a FreeList keeps: 4 MiB. A
// learned count over 10 000 objects needs well under 1 MiB per set, so its
// sets are kept; one over 10⁶ objects needs tens of MiB, and those go to
// the collector instead of staying pinned for the life of the process.
const MaxScratchBytes = 4 << 20

// FreeList recycles scratch sets between calls: at most GOMAXPROCS of them,
// none over MaxScratchBytes. Unlike a sync.Pool it is not emptied by a
// garbage collection, so a hot path that runs once per count reuses its
// buffers whatever the collector did between counts. What a Get returns is
// either a fresh zero value or a set a Put handed back, with whatever
// contents it had; the caller sizes and overwrites it.
type FreeList[T any] struct {
	bytes func(*T) int // the heap bytes a set holds
	mu    sync.Mutex
	free  []*T
}

// NewFreeList returns an empty list whose sets report their size through
// bytes.
func NewFreeList[T any](bytes func(*T) int) *FreeList[T] {
	return &FreeList[T]{bytes: bytes}
}

// Get takes a set off the list, or allocates a new one when it is empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return s
}

// Put hands s back for a later Get. A set over MaxScratchBytes, or one
// that finds GOMAXPROCS sets already waiting, is dropped for the collector.
func (l *FreeList[T]) Put(s *T) {
	if s == nil || l.bytes(s) > MaxScratchBytes {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	if len(l.free) < procs {
		l.free = append(l.free, s)
	}
	l.mu.Unlock()
}
