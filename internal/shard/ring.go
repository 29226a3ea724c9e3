package shard

import (
	"sort"

	"repro/internal/live"
)

// Ring is a consistent-hash ring over worker names. Each node owns the
// arc before each of its virtual points; a key belongs to the node whose
// point follows the key's hash clockwise. Adding a node moves only the
// keys that land on the new node's arcs; removing one moves only the keys
// it owned — the minimal-movement property the routing fuzzer pins down.
//
// A Ring is deterministic in (replica count, node set): two coordinators
// configured with the same workers route identically. It is not
// goroutine-safe; guard it externally when membership changes at runtime.
type Ring struct {
	replicas int
	nodes    map[string]bool
	points   []ringPoint // sorted by (hash, node, replica)
}

type ringPoint struct {
	hash    uint64
	node    string
	replica int
}

// DefaultReplicas is the virtual-node count per worker: enough to spread
// arcs evenly across a handful of workers without bloating lookups.
const DefaultReplicas = 64

// NewRing returns an empty ring with the given virtual-node count per
// node (<= 0 selects DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]bool)}
}

// Add inserts a node (no-op if present) and reports whether it was new.
func (r *Ring) Add(node string) bool {
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:    live.Mix64(HashString(node), uint64(i), TagShard),
			node:    node,
			replica: i,
		})
	}
	r.sortPoints()
	return true
}

// Remove deletes a node and reports whether it was present.
func (r *Ring) Remove(node string) bool {
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Nodes returns the current node set, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning the given key, and false when the ring is
// empty.
func (r *Ring) Owner(key string) (string, bool) {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

// Owners returns up to n distinct nodes in preference order for the key:
// the owner first, then the successors met walking the ring clockwise.
// The tail of the list is the hedging/failover order for the key's shard.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := live.Mix64(HashString(key), TagShard)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Place returns, for each key, every node in the order a caller should try
// them: first a primary, chosen over the ring under a load bound of
// ceil(len(keys)/nodes) primaries per node — keys are taken in the order
// given and each goes to the first node of its ring order still under the
// bound — then the rest of the key's ring order, untouched, which is its
// hedging and failover order. Ring ownership alone balances only in
// expectation: over a handful of keys (one query's shards) and as few
// nodes, one node routinely owns them all while the others idle. The result
// is deterministic in (node set, keys), so every coordinator configured
// alike routes alike; with no nodes every list is nil.
func (r *Ring) Place(keys []string) [][]string {
	out := make([][]string, len(keys))
	n := len(r.nodes)
	if n == 0 {
		return out
	}
	bound := (len(keys) + n - 1) / n
	load := make(map[string]int, n)
	for i, key := range keys {
		order := r.Owners(key, n)
		p := 0
		for load[order[p]] >= bound { // n*bound >= len(keys): some node has room
			p++
		}
		primary := order[p]
		load[primary]++
		copy(order[1:p+1], order[:p])
		order[0] = primary
		out[i] = order
	}
	return out
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		if pa.node != pb.node {
			return pa.node < pb.node
		}
		return pa.replica < pb.replica
	})
}
