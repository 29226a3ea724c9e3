package shard

import (
	"context"
	"errors"
	"fmt"
)

// ErrShardLost marks a shard whose every transport candidate failed: the
// resilient wrappers (hedged HTTP clients, chaos-test fakes) return it
// once retries are exhausted, and Drive reacts by restarting over the
// surviving shards and — when the plan allows — answering degraded with a
// widened interval instead of silently dropping the shard's population.
var ErrShardLost = errors.New("shard: shard lost")

// LostShardError wraps ErrShardLost with the failing shard's index.
type LostShardError struct {
	Shard int
	Err   error
}

// Error renders the lost shard and its cause.
func (e *LostShardError) Error() string { return fmt.Sprintf("shard %d lost: %v", e.Shard, e.Err) }

// Unwrap exposes ErrShardLost (and the cause) to errors.Is/As.
func (e *LostShardError) Unwrap() error { return ErrShardLost }

// The types below are both the Worker interface's values and, through their
// JSON tags, the wire form of the shard-op protocol (protocol.go) — there
// is no second declaration to convert to or from.

// Meta is a shard's population summary: its object count and, for grouped
// queries, its per-group census.
type Meta struct {
	N      int          `json:"n"`
	Groups []GroupCount `json:"groups,omitempty"`
}

// GroupCount is one group's tally on one shard: canonical key, rendered
// key parts, member count, and (for exact passes) positives.
type GroupCount struct {
	Key   string   `json:"key"`             // canonical identity: parts joined with \x1f
	Parts []string `json:"parts,omitempty"` // rendered column values, aligned with GroupColumns
	N     int      `json:"n"`
	Pos   int      `json:"pos,omitempty"`
}

// Scored is one object's shard-local record: its key, classifier score
// (zero when the op does not score), and canonical group key (empty for
// plain queries).
type Scored struct {
	Key   int64   `json:"key"`
	Score float64 `json:"score"`
	Group string  `json:"group,omitempty"`
}

// Tally is a shard's full labeling pass: the population/labeled/positive
// counts, the per-group tallies (grouped plans), and the fresh predicate
// evaluations the pass spent.
type Tally struct {
	Partial
	Fresh  int          `json:"fresh"`
	Groups []GroupCount `json:"groups,omitempty"`
}

// Partial is one cell's integer tally: population size, labeled members,
// positives. Tallies of disjoint shards merge by addition, and because every
// downstream estimator consumes only these integers, the merged estimate is
// byte-identical to the single-shard computation over the union.
type Partial struct {
	N         int `json:"n"`         // cell population size
	Sampled   int `json:"sampled"`   // labeled members
	Positives int `json:"positives"` // positives among the labeled members
}

// Add merges another shard's tally of the same cell into p.
func (p *Partial) Add(q Partial) {
	p.N += q.N
	p.Sampled += q.Sampled
	p.Positives += q.Positives
}

// Validate checks cell consistency (Sampled <= N, Positives <= Sampled);
// a violation means shards disagreed about the population and the merge
// must not be trusted.
func (p Partial) Validate() error {
	if p.Sampled > p.N {
		return fmt.Errorf("shard: partial sampled %d > population %d", p.Sampled, p.N)
	}
	if p.Positives > p.Sampled {
		return fmt.Errorf("shard: partial positives %d > sampled %d", p.Positives, p.Sampled)
	}
	if p.N < 0 || p.Sampled < 0 || p.Positives < 0 {
		return fmt.Errorf("shard: negative partial tally {%d %d %d}", p.N, p.Sampled, p.Positives)
	}
	return nil
}

// Worker is one shard's estimation primitives. Every method is a pure
// function of (snapshot, seed, arguments) — which worker executes a call
// never changes its result — so a coordinator may freely retry, hedge, or
// re-route calls between replicas holding the same snapshot.
//
// Implementations must be safe for concurrent calls: Drive scatters
// rounds across shards in parallel.
type Worker interface {
	// Meta returns the shard's object count and, for grouped plans, its
	// local per-group census.
	Meta(ctx context.Context) (Meta, error)

	// Cands returns the shard's bottom-k candidates under the plan seed
	// and the given tag (LocalCands over the shard's keys).
	Cands(ctx context.Context, k int, tag uint64) ([]Cand, error)

	// Label evaluates the predicate for the given shard-owned keys,
	// returning labels aligned with keys and the number of fresh
	// (non-memoized) predicate evaluations spent. rowsOf, when non-empty,
	// also asks for the feature vectors of those shard-owned keys, aligned
	// with it, so the learn sample's labels and features come back in one
	// call. It is a list of its own because a key whose label the driver
	// already holds (a degraded restart) is asked for its row only — no
	// label is ever bought twice.
	Label(ctx context.Context, keys, rowsOf []int64) (labels []bool, rows [][]float64, fresh int, err error)

	// ScoreAll trains the plan classifier on the broadcast learn sample
	// (x, y in merged selection order; clfSeed from the plan) and scores
	// every local object, returning one Scored per local key. Training is
	// deterministic in (x, y, clfSeed), so every shard trains the
	// identical classifier and per-row scores concatenate exactly. With an
	// empty learn sample it trains nothing and returns every local key
	// with its canonical group, scores zero — the population listing of a
	// plan that learns nothing.
	ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error)

	// CountAll labels every local object and returns the shard's tally.
	CountAll(ctx context.Context) (Tally, error)
}
