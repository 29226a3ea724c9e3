package shard

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/learn"
	"repro/internal/obs"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// LabelFunc evaluates the expensive predicate for the given object keys,
// returning labels aligned with keys and how many evaluations were fresh
// (not answered from a memo). Implementations must be safe for concurrent
// calls from different shards but are only ever called with keys the
// owning shard holds.
type LabelFunc func(ctx context.Context, keys []int64) ([]bool, int, error)

// Trainer fits the plan classifier and keeps the current fit: the S shards
// of one in-process execution broadcast the identical learn sample, so the
// first to ask pays the fit and the others share it — the in-process
// analogue of each remote worker training its own identical copy. A fit is
// a pure function of (x, y, clfSeed) and the memo is keyed by all three: a
// different learn sample replaces the fit, and at most one is ever held. (A
// NaN feature never compares equal, which costs a refit, never a wrong
// classifier.) One execution owns a Trainer; executions sharing a shard
// each bring their own (WithSeed), so none waits on another's fit.
type Trainer struct {
	newClf func(seed uint64) learn.Classifier

	mu   sync.Mutex
	x    [][]float64
	y    []bool
	seed uint64
	clf  learn.Classifier // nil until the first fit
}

// NewTrainer returns a Trainer over the given classifier factory.
func NewTrainer(newClf func(seed uint64) learn.Classifier) *Trainer {
	return &Trainer{newClf: newClf}
}

// Train returns the classifier fitted to (x, y) under clfSeed and the time
// the fit took (zero when the current fit already is that one). Forest
// fitting is deterministic in (x order, y, seed), so the shared instance
// scores byte-identically to a per-shard retrain. The lock is held across
// the fit on purpose: concurrent shards of one execution wait for the one
// fit instead of each paying it.
func (t *Trainer) Train(x [][]float64, y []bool, clfSeed uint64) (learn.Classifier, time.Duration, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clf != nil && t.seed == clfSeed && slices.Equal(y, t.y) && slices.EqualFunc(x, t.x, slices.Equal[[]float64]) {
		return t.clf, 0, nil
	}
	clf := t.newClf(clfSeed)
	t0 := time.Now()
	if err := clf.Fit(x, y); err != nil {
		return nil, 0, fmt.Errorf("shard: training classifier: %w", err)
	}
	t.x, t.y, t.seed, t.clf = x, y, clfSeed, clf
	return clf, time.Since(t0), nil
}

// Local is the in-process Worker over one shard's slice of the
// population. The slices are aligned: Feats[i] and Groups[i] (when
// present) describe Keys[i].
type Local struct {
	seed    uint64
	keys    []int64
	feats   [][]float64         // nil when the plan needs no features
	groups  []string            // canonical group per key; nil for plain plans
	parts   map[string][]string // canonical group -> rendered parts
	labelFn LabelFunc
	trainer *Trainer
	idx     map[int64]int
}

// NewLocal builds an in-process shard worker. feats, groups, and parts
// may be nil when the plan does not need them; labelFn is required.
func NewLocal(seed uint64, keys []int64, feats [][]float64, groups []string,
	parts map[string][]string, labelFn LabelFunc, trainer *Trainer) *Local {

	idx := make(map[int64]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	return &Local{
		seed: seed, keys: keys, feats: feats, groups: groups, parts: parts,
		labelFn: labelFn, trainer: trainer, idx: idx,
	}
}

// WithSeed returns the worker over the same shard under another plan seed,
// label function and trainer — one execution's view of a shard that
// outlives it. The seed only steers Cands; everything else a Local holds is
// a fact about the shard, shared with the receiver.
func (w *Local) WithSeed(seed uint64, labelFn LabelFunc, trainer *Trainer) *Local {
	c := *w
	c.seed, c.labelFn, c.trainer = seed, labelFn, trainer
	return &c
}

// Meta returns the shard's object count and local group census.
func (w *Local) Meta(ctx context.Context) (Meta, error) {
	return Meta{N: len(w.keys), Groups: w.tally(nil)}, nil
}

// tally counts the shard's members of each group, and with labels (aligned
// with the keys) their positives, in canonical-key order; nil for a plain
// plan.
func (w *Local) tally(labels []bool) []GroupCount {
	at := make(map[string]int)
	var out []GroupCount
	for i, g := range w.groups {
		j, ok := at[g]
		if !ok {
			j = len(out)
			at[g] = j
			out = append(out, GroupCount{Key: g, Parts: w.parts[g]})
		}
		out[j].N++
		if labels != nil && labels[i] {
			out[j].Pos++
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Cands returns the shard's bottom-k candidates under the given tag.
func (w *Local) Cands(ctx context.Context, k int, tag uint64) ([]Cand, error) {
	return LocalCands(w.keys, k, w.seed, tag), nil
}

// Label evaluates the predicate for the given local keys and returns the
// feature vectors of rowsOf.
func (w *Local) Label(ctx context.Context, keys, rowsOf []int64) ([]bool, [][]float64, int, error) {
	for _, k := range keys {
		if _, ok := w.idx[k]; !ok {
			return nil, nil, 0, fmt.Errorf("shard: key %d is not on this shard", k)
		}
	}
	var rows [][]float64
	if len(rowsOf) > 0 {
		if w.feats == nil {
			return nil, nil, 0, fmt.Errorf("shard: plan carries no features")
		}
		rows = make([][]float64, len(rowsOf))
		for i, k := range rowsOf {
			p, ok := w.idx[k]
			if !ok {
				return nil, nil, 0, fmt.Errorf("shard: key %d is not on this shard", k)
			}
			rows[i] = w.feats[p]
		}
	}
	labels, fresh, err := w.labelFn(ctx, keys)
	return labels, rows, fresh, err
}

// ScoreAll trains (or reuses) the plan classifier and scores every local
// object; with an empty learn sample it trains nothing and lists the
// objects unscored. The enclosing span — the driver's learn span in
// process, the op's own root on a remote worker — learns what scoring cost:
// the fit where this shard paid it, and this shard's scoring (in-process
// shards score side by side, so the span keeps the last one to finish).
func (w *Local) ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	out := make([]Scored, len(w.keys))
	for i, k := range w.keys {
		out[i].Key = k
		if w.groups != nil {
			out[i].Group = w.groups[i]
		}
	}
	if len(x) == 0 && len(y) == 0 {
		return out, nil
	}
	if w.feats == nil {
		return nil, fmt.Errorf("shard: plan carries no features")
	}
	clf, fit, err := w.trainer.Train(x, y, clfSeed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	scores := learn.ScoreAll(clf, w.feats)
	if sp := obs.FromContext(ctx); sp != nil {
		if fit > 0 {
			sp.Set("fit_ms", ms(fit))
		}
		sp.Set("score_ms", ms(time.Since(t0)))
		if p := learn.ForestScorePath(clf).Path; p != "" {
			sp.Set("score_path", p)
		}
	}
	for i := range out {
		out[i].Score = scores[i]
	}
	return out, nil
}

// CountAll labels every local object and returns the merged tallies.
func (w *Local) CountAll(ctx context.Context) (Tally, error) {
	labels, fresh, err := w.labelFn(ctx, w.keys)
	if err != nil {
		return Tally{}, err
	}
	pos := estimate.Positives(labels)
	return Tally{Partial: Partial{N: len(w.keys), Sampled: len(w.keys), Positives: pos}, Fresh: fresh,
		Groups: w.tally(labels)}, nil
}
