package catalog

import (
	"fmt"
	"sync"
	"testing"
)

func testKey(i int) Key {
	return Key{
		Snapshot: fmt.Sprintf("D@%d", i),
		Query:    "q",
		Features: "x,y",
	}
}

// fill materializes the entry with labels so eviction has bytes to
// account.
func fill(e *Entry, labels int) {
	e.Lock()
	e.Materialized = true
	m := e.Labels("fp", 1)
	for i := 0; i < labels; i++ {
		m[int64(i)] = i%2 == 0
	}
	e.Unlock()
}

func TestAcquireReleaseAccounting(t *testing.T) {
	c := New(1 << 20)
	e := c.Acquire(testKey(1))
	fill(e, 10)
	c.Release(e, ReuseNone)

	e2 := c.Acquire(testKey(1))
	if e2 != e {
		t.Fatal("second Acquire of the same key returned a different entry")
	}
	c.Release(e2, ReuseDirect)
	e3 := c.Acquire(testKey(1))
	c.Release(e3, ReuseExtension)
	e4 := c.Acquire(testKey(1))
	c.Release(e4, "") // an errored execution records nothing

	s := c.Stats()
	if s.Entries != 1 || s.Misses != 1 || s.Hits != 1 || s.Extensions != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 miss, 1 hit, 1 extension", s)
	}
	if s.Bytes <= 0 {
		t.Errorf("bytes = %d, want positive after materialization", s.Bytes)
	}
	if got := len(c.Keys()); got != 1 {
		t.Errorf("Keys() len = %d, want 1", got)
	}
}

func TestEvictionLFUAndPins(t *testing.T) {
	c := New(1 << 20)
	// Three entries; entry 1 is used many times (high density), entry 2
	// once, entry 3 stays pinned.
	e1 := c.Acquire(testKey(1))
	fill(e1, 100)
	c.Release(e1, ReuseNone)
	for i := 0; i < 10; i++ {
		c.Release(c.Acquire(testKey(1)), ReuseDirect)
	}
	e2 := c.Acquire(testKey(2))
	fill(e2, 100)
	c.Release(e2, ReuseNone)
	e3 := c.Acquire(testKey(3)) // pinned: no Release yet
	fill(e3, 100)

	// Shrink the budget so only roughly one unpinned entry fits. The
	// low-density entry 2 must go; the pinned entry 3 must survive even
	// though it has the lowest use count.
	c.SetMaxBytes(e1.bytes + 1)
	keys := c.Keys()
	got := make(map[string]bool, len(keys))
	for _, k := range keys {
		got[k.Snapshot] = true
	}
	if got["D@2"] {
		t.Error("low-density entry D@2 survived eviction")
	}
	if !got["D@1"] {
		t.Error("high-density entry D@1 was evicted")
	}
	if !got["D@3"] {
		t.Error("pinned entry D@3 was evicted")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	c.Release(e3, ReuseNone)
}

func TestInvalidateDetachesPinnedEntries(t *testing.T) {
	c := New(1 << 20)
	e := c.Acquire(testKey(1))
	fill(e, 10)

	removed := c.Invalidate(func(k Key) bool { return k.Snapshot == "D@1" })
	if removed != 1 {
		t.Fatalf("Invalidate removed %d, want 1", removed)
	}
	if s := c.Stats(); s.Entries != 0 || s.Evictions != 1 {
		t.Errorf("stats after invalidate = %+v, want 0 entries, 1 eviction", s)
	}
	// The in-flight execution finishes on the detached entry; its Release
	// must not resurrect it or corrupt the byte accounting.
	c.Release(e, ReuseNone)
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("detached release resurrected state: %+v", s)
	}
	// A later Acquire under the same key starts from an empty entry.
	e2 := c.Acquire(testKey(1))
	if e2 == e || e2.Materialized {
		t.Error("Acquire after invalidation did not return a fresh empty entry")
	}
	c.Release(e2, "")
}

func TestLabelSpaceLRUCap(t *testing.T) {
	c := New(1 << 20)
	e := c.Acquire(testKey(1))
	e.Lock()
	first := e.Labels("fp-0", c.Clock())
	first[7] = true
	for i := 1; i <= maxLabelSpaces; i++ { // one past the cap
		e.Labels(fmt.Sprintf("fp-%d", i), c.Clock())
	}
	if len(e.spaces) != maxLabelSpaces {
		t.Errorf("spaces = %d, want capped at %d", len(e.spaces), maxLabelSpaces)
	}
	if _, ok := e.spaces["fp-0"]; ok {
		t.Error("least recently used space fp-0 survived the cap")
	}
	// Re-requesting the evicted fingerprint yields a fresh empty memo.
	if again := e.Labels("fp-0", c.Clock()); len(again) != 0 {
		t.Error("re-created label space kept stale labels")
	}
	e.Unlock()
	c.Release(e, "")
}

func TestKeySnapshotTables(t *testing.T) {
	pairs, ok := Key{Snapshot: "a@1,b@22"}.SnapshotTables()
	if !ok || len(pairs) != 2 || pairs["a"] != 1 || pairs["b"] != 22 {
		t.Errorf("SnapshotTables = %v, %v", pairs, ok)
	}
	for _, bad := range []string{"", "a", "a@", "a@x", "@1", "a@1,b"} {
		if _, ok := (Key{Snapshot: bad}).SnapshotTables(); ok {
			t.Errorf("SnapshotTables(%q) parsed, want ok=false", bad)
		}
	}
}

func TestConcurrentAcquireReleaseInvalidate(t *testing.T) {
	c := New(1 << 14) // small budget so eviction churns during the run
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := c.Acquire(testKey(i % 5))
				e.Lock()
				e.Materialized = true
				e.Labels(fmt.Sprintf("fp-%d", g), c.Clock())[int64(i)] = true
				e.Unlock()
				c.Release(e, ReuseDirect)
				if i%50 == 0 {
					c.Invalidate(func(k Key) bool { return k.Snapshot == fmt.Sprintf("D@%d", g%5) })
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 {
		t.Errorf("negative byte accounting after churn: %+v", s)
	}
	if s.Hits != 8*200 {
		t.Errorf("hits = %d, want %d", s.Hits, 8*200)
	}
}
