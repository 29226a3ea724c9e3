package core

import (
	"fmt"

	"repro/internal/estimate"
)

// Partial is the mergeable unit of a sharded estimation: one sampling
// cell's integer tally (population size, labeled members, positives).
// Partials of the same cell computed on disjoint shards merge by
// addition, and because every downstream estimator consumes only these
// integers, the merged estimate is byte-identical to the single-shard
// computation over the union.
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

// MergePartials merges per-shard cell vectors (aligned by index: cell i of
// every shard describes the same stratum or group) into the global cell
// vector. Shards may report short vectors; missing cells are zero.
func MergePartials(parts [][]Partial) []Partial {
	width := 0
	for _, p := range parts {
		if len(p) > width {
			width = len(p)
		}
	}
	out := make([]Partial, width)
	for _, p := range parts {
		for i, c := range p {
			out[i].Add(c)
		}
	}
	return out
}

// StrataSamples converts merged cells into the stratified estimator's
// input form.
func StrataSamples(cells []Partial) []estimate.StratumSample {
	out := make([]estimate.StratumSample, len(cells))
	for i, c := range cells {
		out[i] = estimate.StratumSample{N: c.N, Sampled: c.Sampled, Positives: c.Positives}
	}
	return out
}

// Validate checks cell consistency (Sampled <= N, Positives <= Sampled);
// a violation means shards disagreed about the population and the merge
// must not be trusted.
func (p Partial) Validate() error {
	if p.Sampled > p.N {
		return fmt.Errorf("core: partial sampled %d > population %d", p.Sampled, p.N)
	}
	if p.Positives > p.Sampled {
		return fmt.Errorf("core: partial positives %d > sampled %d", p.Positives, p.Sampled)
	}
	if p.N < 0 || p.Sampled < 0 || p.Positives < 0 {
		return fmt.Errorf("core: negative partial tally {%d %d %d}", p.N, p.Sampled, p.Positives)
	}
	return nil
}
