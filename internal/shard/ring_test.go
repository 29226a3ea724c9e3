package shard

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dataset/key-%d", i)
	}
	return out
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	for _, n := range []string{"w2", "w0", "w1"} {
		a.Add(n)
	}
	for _, n := range []string{"w0", "w1", "w2"} { // different insertion order
		b.Add(n)
	}
	for _, k := range ringKeys(300) {
		oa, ok := a.Owner(k)
		if !ok {
			t.Fatalf("key %q unassigned", k)
		}
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("rings disagree on %q: %q vs %q", k, oa, ob)
		}
	}
	owners := map[string]int{}
	for _, k := range ringKeys(1000) {
		o, _ := a.Owner(k)
		owners[o]++
	}
	if len(owners) != 3 {
		t.Fatalf("1000 keys landed on %d of 3 nodes", len(owners))
	}
	for n, c := range owners {
		if c < 100 {
			t.Errorf("node %q owns only %d of 1000 keys (poor spread)", n, c)
		}
	}
}

func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(0)
	r.Add("w0")
	r.Add("w1")
	r.Add("w2")
	keys := ringKeys(500)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	// Join: only keys that move may move to the new node.
	r.Add("w3")
	moved := 0
	for _, k := range keys {
		now, _ := r.Owner(k)
		if now != before[k] {
			if now != "w3" {
				t.Fatalf("key %q moved %q->%q on w3 join (not to the joiner)", k, before[k], now)
			}
			moved++
		}
	}
	if moved == 0 || moved == len(keys) {
		t.Fatalf("w3 join moved %d of %d keys", moved, len(keys))
	}

	// Leave: only the departed node's keys move; everyone else stays put.
	after := make(map[string]string, len(keys))
	for _, k := range keys {
		after[k], _ = r.Owner(k)
	}
	r.Remove("w3")
	for _, k := range keys {
		now, _ := r.Owner(k)
		if after[k] == "w3" {
			if now == "w3" {
				t.Fatalf("key %q still owned by removed node", k)
			}
		} else if now != after[k] {
			t.Fatalf("key %q moved %q->%q though w3 departed", k, after[k], now)
		}
	}
}

func TestRingOwnersFailoverOrder(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	for _, k := range ringKeys(50) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 3) = %v", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q", k, o)
			}
			seen[o] = true
		}
		primary, _ := r.Owner(k)
		if owners[0] != primary {
			t.Fatalf("Owners(%q)[0] = %q, Owner = %q", k, owners[0], primary)
		}
	}
	if got := r.Owners("k", 99); len(got) != 4 {
		t.Fatalf("Owners capped at node count: got %d", len(got))
	}
	empty := NewRing(0)
	if _, ok := empty.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

// FuzzShardRouting fuzzes the consistent-hash ring: whatever the
// membership history, every key has exactly one owner from the live node
// set, routing is deterministic, and a join moves keys only onto the
// joiner (the minimal-movement property).
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte{1, 2, 3}, "orders/42")
	f.Add([]byte{0xff, 0x00, 0x10, 0x07}, "a")
	f.Add([]byte{9}, "")
	f.Fuzz(func(t *testing.T, ops []byte, key string) {
		r := NewRing(8) // few replicas: more edge wraparounds per op
		live := map[string]bool{}
		for _, op := range ops {
			node := fmt.Sprintf("w%d", op&0x0f)
			if op&0x80 != 0 {
				r.Remove(node)
				delete(live, node)
			} else {
				r.Add(node)
				live[node] = true
			}
			if r.Len() != len(live) {
				t.Fatalf("ring has %d nodes, membership says %d", r.Len(), len(live))
			}
			owner, ok := r.Owner(key)
			if len(live) == 0 {
				if ok {
					t.Fatalf("empty ring assigned %q to %q", key, owner)
				}
				continue
			}
			if !ok || !live[owner] {
				t.Fatalf("key %q owner %q not in live set %v", key, owner, live)
			}
			if again, _ := r.Owner(key); again != owner {
				t.Fatalf("owner of %q unstable: %q then %q", key, owner, again)
			}
			owners := r.Owners(key, len(live))
			if len(owners) != len(live) {
				t.Fatalf("Owners returned %d of %d nodes", len(owners), len(live))
			}
			seen := map[string]bool{}
			for _, o := range owners {
				if seen[o] || !live[o] {
					t.Fatalf("failover order %v invalid for live set %v", owners, live)
				}
				seen[o] = true
			}
		}
		// Minimal movement: add a fresh node; keys may move only onto it.
		if r.Len() > 0 {
			probes := []string{key, key + "/x", "p0", "p1", "p2", "p3"}
			before := map[string]string{}
			for _, p := range probes {
				before[p], _ = r.Owner(p)
			}
			r.Add("joiner")
			for _, p := range probes {
				now, _ := r.Owner(p)
				if now != before[p] && now != "joiner" {
					t.Fatalf("probe %q moved %q->%q on join (not to joiner)", p, before[p], now)
				}
			}
		}
	})
}

// shardKeys are the placement keys a coordinator uses for a layout of s
// shards.
func shardKeys(s int) []string {
	keys := make([]string, s)
	for i := range keys {
		keys[i] = "shard/" + Spec{Index: i, Count: s}.String()
	}
	return keys
}

// checkPlacement holds one Place result to its contract: every list is the
// whole live node set once each, no node is primary for more than
// ceil(keys/nodes) keys, and behind the primary the ring's own order is
// untouched.
func checkPlacement(t *testing.T, r *Ring, keys []string, placed [][]string) {
	t.Helper()
	if len(placed) != len(keys) {
		t.Fatalf("Place returned %d lists for %d keys", len(placed), len(keys))
	}
	n := r.Len()
	if n == 0 {
		for i, list := range placed {
			if list != nil {
				t.Fatalf("empty ring placed key %d on %v", i, list)
			}
		}
		return
	}
	bound := (len(keys) + n - 1) / n
	load := map[string]int{}
	for i, list := range placed {
		ring := r.Owners(keys[i], n)
		if len(list) != n {
			t.Fatalf("key %q: %d candidates of %d nodes", keys[i], len(list), n)
		}
		load[list[0]]++
		var rest []string
		for _, node := range ring {
			if node != list[0] {
				rest = append(rest, node)
			}
		}
		if len(rest) != n-1 || fmt.Sprint(list[1:]) != fmt.Sprint(rest) {
			t.Fatalf("key %q: candidates %v do not keep the ring order %v behind the primary", keys[i], list, ring)
		}
	}
	for node, l := range load {
		if l > bound {
			t.Fatalf("%s is primary for %d of %d keys, bound %d (loads %v)", node, l, len(keys), bound, load)
		}
	}
}

// TestRingPlaceBalancesPrimaries: S = kW shards over W workers give every
// worker exactly k primaries — where ring ownership alone gave w1 both
// shards of a two-worker, two-shard fleet and left w2 serving hedges — and
// the placement does not depend on the order workers were added in.
func TestRingPlaceBalancesPrimaries(t *testing.T) {
	for w := 2; w <= 4; w++ {
		for k := 1; k <= 3; k++ {
			r, rev := NewRing(0), NewRing(0)
			for i := 1; i <= w; i++ {
				r.Add(fmt.Sprintf("w%d", i))
				rev.Add(fmt.Sprintf("w%d", w+1-i))
			}
			keys := shardKeys(k * w)
			placed := r.Place(keys)
			checkPlacement(t, r, keys, placed)
			load := map[string]int{}
			for _, list := range placed {
				load[list[0]]++
			}
			for _, node := range r.Nodes() {
				if load[node] != k {
					t.Errorf("W=%d S=%d: %s is primary for %d shards, want %d (%v)", w, k*w, node, load[node], k, load)
				}
			}
			if fmt.Sprint(rev.Place(keys)) != fmt.Sprint(placed) {
				t.Errorf("W=%d S=%d: placement depends on insertion order", w, k*w)
			}
		}
	}
}

// FuzzShardPlacement fuzzes the load-bounded placement over arbitrary
// membership histories and layouts: after every join or leave the
// placement keeps its contract (checkPlacement), and it is a function of
// the live node set alone — a ring rebuilt from scratch over the same
// nodes places identically.
func FuzzShardPlacement(f *testing.F) {
	f.Add([]byte{1, 2}, uint8(2))
	f.Add([]byte{1, 2, 3, 0x82, 4}, uint8(8))
	f.Add([]byte{7, 0x87}, uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, shards uint8) {
		keys := shardKeys(int(shards%33) + 1)
		r := NewRing(8)
		for _, op := range ops {
			node := fmt.Sprintf("w%d", op&0x0f)
			if op&0x80 != 0 {
				r.Remove(node)
			} else {
				r.Add(node)
			}
			placed := r.Place(keys)
			checkPlacement(t, r, keys, placed)
			fresh := NewRing(8)
			for _, n := range r.Nodes() {
				fresh.Add(n)
			}
			if again := fresh.Place(keys); fmt.Sprint(again) != fmt.Sprint(placed) {
				t.Fatalf("placement over %v depends on membership history:\n%v\n%v", r.Nodes(), placed, again)
			}
		}
	})
}
