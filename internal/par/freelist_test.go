package par

import (
	"runtime"
	"slices"
	"testing"
)

type buf struct{ b []byte }

func bufBytes(b *buf) int { return cap(b.b) }

// drain takes sets off l until it hands out a fresh one, and returns them.
func drain(l *FreeList[buf]) []*buf {
	var got []*buf
	for s := l.Get(); s.b != nil; s = l.Get() {
		got = append(got, s)
	}
	return got
}

// TestFreeListReusesAcrossGC: a set handed back is the next one taken,
// contents and all, even with collections in between — what a sync.Pool
// does not promise.
func TestFreeListReusesAcrossGC(t *testing.T) {
	l := NewFreeList(bufBytes)
	s := l.Get()
	s.b = append(s.b, 1, 2, 3)
	l.Put(s)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != s || len(got.b) != 3 {
		t.Fatalf("Get after two collections = %p (len %d), want the set put back %p", got, len(got.b), s)
	}
	if got := l.Get(); got == s || got.b != nil {
		t.Fatal("a set was handed out twice")
	}
}

// TestFreeListBounds: the list keeps at most GOMAXPROCS sets and none over
// MaxScratchBytes.
func TestFreeListBounds(t *testing.T) {
	l := NewFreeList(bufBytes)
	l.Put(&buf{b: make([]byte, MaxScratchBytes+1)})
	if got := drain(l); len(got) != 0 {
		t.Fatal("a set over MaxScratchBytes was kept")
	}
	at := &buf{b: make([]byte, MaxScratchBytes)}
	l.Put(at)
	if got := drain(l); len(got) != 1 || got[0] != at {
		t.Fatal("a set of exactly MaxScratchBytes was dropped")
	}
	procs := runtime.GOMAXPROCS(0)
	var put []*buf
	for i := 0; i < procs+3; i++ {
		put = append(put, &buf{b: make([]byte, 8)})
		l.Put(put[i])
	}
	l.Put(nil)
	got := drain(l)
	if len(got) != procs {
		t.Fatalf("kept %d of %d sets, want GOMAXPROCS = %d", len(got), procs+3, procs)
	}
	for _, s := range got {
		if !slices.Contains(put, s) {
			t.Fatal("Get returned a set nobody put")
		}
	}
}

// TestFreeListConcurrent: concurrent takers never share a set.
func TestFreeListConcurrent(t *testing.T) {
	l := NewFreeList(bufBytes)
	ForEach(4, 400, func(i int) {
		s := l.Get()
		s.b = append(s.b[:0], byte(i))
		runtime.Gosched()
		if s.b[0] != byte(i) {
			t.Errorf("set shared between two takers")
		}
		l.Put(s)
	})
}
