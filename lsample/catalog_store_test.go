package lsample

import (
	"fmt"
	"sync"
	"testing"
)

// storeTables returns n one-column tables, "T0" … "Tn-1": entry i of the
// store tests below reads table Ti alone.
func storeTables(t testing.TB, n int) map[string]*Table {
	t.Helper()
	tabs := make(map[string]*Table, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		tab, err := NewTable(name, "id:int")
		if err != nil {
			t.Fatal(err)
		}
		tabs[name] = tab
	}
	return tabs
}

// storeKey is entry i's key and the snapshot ids it is stamped with.
func storeKey(tabs map[string]*Table, i int) (catalogKey, map[string]uint64) {
	name := fmt.Sprintf("T%d", i)
	id := tabs[name].snapshotID()
	return catalogKey{snapshot: fmt.Sprintf("%s@%d", name, id), query: "q", features: "x,y"},
		map[string]uint64{name: id}
}

// acquireBits is acquire for a one-bit label space, returning its labels.
func acquireBits(c *Catalog, k catalogKey, ids map[string]uint64, fp string) (*catalogEntry, map[int64]bool, bool) {
	e, sp, materialized := c.acquire(k, ids, fp, false)
	return e, sp.labels, materialized
}

// acquireFilled acquires entry i and writes n labels into its "fp" space so
// eviction has bytes to account.
func acquireFilled(c *Catalog, tabs map[string]*Table, i, n int) *catalogEntry {
	k, ids := storeKey(tabs, i)
	e, labels, _ := acquireBits(c, k, ids, "fp")
	e.Lock()
	for j := 0; j < n; j++ {
		labels[int64(j)] = j%2 == 0
	}
	e.Unlock()
	return e
}

func TestAcquireReleaseAccounting(t *testing.T) {
	c := NewCatalog(1 << 20)
	tabs := storeTables(t, 1)
	e := acquireFilled(c, tabs, 0, 10)
	c.release(e, ReuseNone)

	k, ids := storeKey(tabs, 0)
	e2, labels, materialized := acquireBits(c, k, ids, "fp")
	if e2 != e || len(labels) != 10 || !materialized {
		t.Fatalf("second acquire: same entry %t, %d labels, materialized %t; want the first entry, its 10 labels, materialized",
			e2 == e, len(labels), materialized)
	}
	c.release(e2, ReuseDirect)
	e3, _, _ := acquireBits(c, k, ids, "fp")
	c.release(e3, ReuseExtension)
	e4, _, _ := acquireBits(c, k, ids, "fp")
	c.release(e4, "") // an errored execution records nothing

	s := c.Stats()
	if s.Entries != 1 || s.Misses != 1 || s.Hits != 1 || s.Extensions != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 miss, 1 hit, 1 extension", s)
	}
	if s.Bytes <= 0 || s.Bytes != e.bytes {
		t.Errorf("bytes = %d, want the entry's %d, positive after materialization", s.Bytes, e.bytes)
	}
}

func TestEvictionLFUAndPins(t *testing.T) {
	tabs := storeTables(t, 3)
	// The budget holds roughly one entry of 100 labels: size one on a
	// catalog of its own.
	probe := NewCatalog(0)
	pe := acquireFilled(probe, tabs, 0, 100)
	probe.release(pe, ReuseNone)
	c := NewCatalog(pe.bytes + 1)
	// Three entries; entry 0 is used many times (high density), entry 1
	// once, entry 2 stays pinned.
	e0 := acquireFilled(c, tabs, 0, 100)
	c.release(e0, ReuseNone)
	for i := 0; i < 10; i++ {
		c.release(acquireFilled(c, tabs, 0, 0), ReuseDirect)
	}
	e2 := acquireFilled(c, tabs, 2, 100) // pinned: no release yet

	// Releasing entry 1 passes the budget. The low-density entry 1 must
	// go; the pinned entry 2 must survive even though it has the lowest
	// use count.
	c.release(acquireFilled(c, tabs, 1, 100), ReuseNone)
	for i, want := range []bool{true, false, true} {
		k, _ := storeKey(tabs, i)
		if _, got := c.entries[k]; got != want {
			t.Errorf("entry %d resident = %t, want %t", i, got, want)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction and 2 entries", s)
	}
	c.release(e2, ReuseNone)
}

func TestInvalidateDetachesPinnedEntries(t *testing.T) {
	c := NewCatalog(1 << 20)
	tabs := storeTables(t, 1)
	e := acquireFilled(c, tabs, 0, 10)

	if removed := c.EvictStale(storeTables(t, 1)); removed != 1 {
		t.Fatalf("EvictStale removed %d, want 1", removed)
	}
	if s := c.Stats(); s.Entries != 0 || s.Evictions != 1 {
		t.Errorf("stats after EvictStale = %+v, want 0 entries, 1 eviction", s)
	}
	// The in-flight execution finishes on the detached entry; its release
	// must not resurrect it or corrupt the byte accounting.
	c.release(e, ReuseNone)
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("detached release resurrected state: %+v", s)
	}
	// A later acquire under the same key starts from an empty entry.
	k, ids := storeKey(tabs, 0)
	e2, labels, materialized := acquireBits(c, k, ids, "fp")
	if e2 == e || materialized || len(labels) != 0 {
		t.Error("acquire after eviction did not return a fresh empty entry")
	}
	c.release(e2, "")
}

func TestLabelSpaceLRUCap(t *testing.T) {
	c := NewCatalog(1 << 20)
	k, ids := storeKey(storeTables(t, 1), 0)
	e, first, _ := acquireBits(c, k, ids, "fp-0")
	e.Lock()
	first[7] = true
	e.Unlock()
	c.release(e, "")
	for i := 1; i <= maxLabelSpaces; i++ { // one past the cap
		e, _, _ := acquireBits(c, k, ids, fmt.Sprintf("fp-%d", i))
		c.release(e, "")
	}
	if len(e.spaces) != maxLabelSpaces {
		t.Errorf("spaces = %d, want capped at %d", len(e.spaces), maxLabelSpaces)
	}
	if _, ok := e.spaces["fp-0"]; ok {
		t.Error("least recently used space fp-0 survived the cap")
	}
	// Re-requesting the dropped fingerprint yields a fresh empty memo.
	e, again, _ := acquireBits(c, k, ids, "fp-0")
	if len(again) != 0 {
		t.Error("re-created label space kept stale labels")
	}
	c.release(e, "")
}

func TestConcurrentAcquireReleaseInvalidate(t *testing.T) {
	c := NewCatalog(1 << 14) // small budget so eviction churns during the run
	tabs, replaced := storeTables(t, 5), storeTables(t, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k, ids := storeKey(tabs, i%5)
				e, labels, _ := acquireBits(c, k, ids, fmt.Sprintf("fp-%d", g))
				e.Lock()
				labels[int64(i)] = true
				e.Unlock()
				c.release(e, ReuseDirect)
				if i%50 == 0 {
					// Every table current but one, which a new snapshot replaced.
					current := make(map[string]*Table, len(tabs))
					for name, tab := range tabs {
						current[name] = tab
					}
					stale := fmt.Sprintf("T%d", g%5)
					current[stale] = replaced[stale]
					c.EvictStale(current)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 || s.Entries != len(c.entries) {
		t.Errorf("accounting after churn: %+v with %d entries resident", s, len(c.entries))
	}
	if s.Hits != 8*200 {
		t.Errorf("hits = %d, want %d", s.Hits, 8*200)
	}
}
