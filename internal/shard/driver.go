package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/live"
	"repro/internal/obs"
)

// Plan describes one hash-plan estimation: the method and every knob that
// feeds the deterministic recipe — hash bottom-k sampling, seeded
// training, equal-count cuts, proportional allocation (recipe.go). Every
// decision is a pure function of (plan, population), so the answer is
// byte-identical at any worker count, one included.
type Plan struct {
	Method   string          // "srs", "lss", or "oracle"
	Grouped  bool            // grouped (GROUP BY) estimation
	BudgetOf func(n int) int // evaluation budget as a function of population size
	Strata   int             // lss stratum count H (< 2 selects 4)
	Seed     uint64
	Alpha    float64
	Wilson   bool // Wilson interval for srs (plain and per-group)
	Exact    bool // also compute the true count (full labeling pass)

	// AllowDegraded lets Drive answer after losing shards mid-query:
	// the protocol restarts over the survivors and the answer is scaled
	// to the full population with a widened interval. When false a lost
	// shard fails the query.
	AllowDegraded bool
}

// Group is one group's merged estimate.
type Group struct {
	Key        string   // canonical identity (parts joined with \x1f)
	Parts      []string // rendered key parts
	N          int      // group population size
	Sampled    int
	Count      float64
	Proportion float64
	CILo, CIHi float64
	HasCI      bool
	Exact      bool
	TrueCount  int
	HasTrue    bool
}

// Result is the merged estimate of one sharded execution.
type Result struct {
	N            int // full population size (including lost shards)
	Budget       int
	Count        float64
	Proportion   float64
	CILo, CIHi   float64
	HasCI        bool
	SamplesUsed  int // fresh predicate evaluations across all shards
	ReusedLabels int // label requests answered by the driver-side memo
	Exact        bool
	Degraded     bool
	Lost         []int // shard indices lost mid-query (degraded answers)
	Shards       int
	Groups       []Group
	TrueCount    int
	HasTrue      bool
}

// Drive runs the plan across the given shard workers and merges their
// partial results. Workers are indexed by shard and hash-aligned:
// workers[i] holds exactly the keys OwnerOf places on shard i of
// len(workers), which is how label and feature requests find their owner.
// Every sampling decision is a pure function of (plan, population), so the
// result is byte-identical at any shard count and any scatter
// interleaving.
//
// A worker that fails with a LostShardError is dropped and — when
// plan.AllowDegraded is set — the protocol restarts over the survivors;
// the final answer is scaled to the full population with the lost mass
// added to the interval's upper bound. Losses during the initial
// population census are always fatal: without the lost shard's size the
// answer cannot be made sound.
func Drive(ctx context.Context, plan Plan, workers []Worker) (*Result, error) {
	switch plan.Method {
	case "srs", "lss", "oracle":
	default:
		return nil, fmt.Errorf("shard: method %q cannot run sharded", plan.Method)
	}
	if plan.BudgetOf == nil && plan.Method != "oracle" {
		return nil, fmt.Errorf("shard: plan for %q needs a budget rule", plan.Method)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("shard: no workers")
	}

	r := &run{plan: plan, memo: make(map[int64]bool), shards: len(workers)}
	for i, w := range workers {
		r.workers = append(r.workers, w)
		r.ids = append(r.ids, i)
	}

	// Census round: every shard must report its population before any
	// loss is survivable.
	r.metas = make([]Meta, len(r.workers))
	cctx, csp := obs.StartSpan(ctx, "shard.census")
	err := r.scatter(cctx, func(slot int, w Worker) error {
		m, merr := w.Meta(cctx)
		if merr != nil {
			return merr
		}
		r.metas[slot] = m
		return nil
	})
	csp.End()
	if err != nil {
		if errors.Is(err, ErrShardLost) {
			return nil, fmt.Errorf("shard: lost before census, population unknown: %w", err)
		}
		return nil, err
	}
	fullN := 0
	for _, m := range r.metas {
		fullN += m.N
	}
	csp.Set("shards", len(r.workers))
	csp.Set("population", fullN)
	fullGroups := r.mergeCensus()

	for restart := 0; ; restart++ {
		actx, asp := obs.StartSpan(ctx, "shard.attempt")
		asp.Set("survivors", len(r.workers))
		asp.Set("restart", restart)
		res, rerr := r.attempt(actx)
		if rerr == nil {
			asp.End()
			r.degrade(res, fullN, fullGroups)
			return res, nil
		}
		asp.Set("error", rerr.Error())
		asp.End()
		var lost *LostShardError
		if !errors.As(rerr, &lost) || !plan.AllowDegraded {
			return nil, rerr
		}
		if !r.drop(lost.Shard) {
			return nil, rerr
		}
		if len(r.workers) == 0 {
			return nil, fmt.Errorf("shard: every shard lost: %w", rerr)
		}
	}
}

// run is one Drive invocation's mutable state: the surviving workers (and
// their original shard ids), the census, and the driver-side label memo.
// The memo survives a degraded restart — labels are pure in (snapshot, key,
// predicate), so survivor keys never need relabeling.
type run struct {
	plan    Plan
	workers []Worker
	ids     []int
	metas   []Meta

	shards int // original shard count: key k lives on shard OwnerOf(k, shards)
	memo   map[int64]bool
	fresh  int
	reused int

	lost  []int
	lostN int
}

// drop removes the lost shard (by original id) from the survivor set,
// recording its population as lost mass.
func (r *run) drop(id int) bool {
	slot := -1
	for i, wid := range r.ids {
		if wid == id {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false
	}
	r.lost = append(r.lost, id)
	r.lostN += r.metas[slot].N
	r.workers = append(r.workers[:slot], r.workers[slot+1:]...)
	r.ids = append(r.ids[:slot], r.ids[slot+1:]...)
	r.metas = append(r.metas[:slot], r.metas[slot+1:]...)
	return true
}

// aliveN is the survivor universe's population.
func (r *run) aliveN() int {
	n := 0
	for _, m := range r.metas {
		n += m.N
	}
	return n
}

// census is the merged per-group population table.
type census struct {
	key   string
	parts []string
	n     int
}

// mergeCensus merges the survivors' group censuses.
func (r *run) mergeCensus() []census {
	if !r.plan.Grouped {
		return nil
	}
	byKey := make(map[string]*census)
	for _, m := range r.metas {
		for _, g := range m.Groups {
			c, ok := byKey[g.Key]
			if !ok {
				c = &census{key: g.Key, parts: g.Parts}
				byKey[g.Key] = c
			}
			c.n += g.N
		}
	}
	out := make([]census, 0, len(byKey))
	for _, c := range byKey {
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool { return LessGroupKey(out[a].parts, out[b].parts) })
	return out
}

// scatter runs fn once per surviving worker concurrently and joins. A
// LostShardError is reported in preference to other errors so the caller
// can degrade; the error is annotated with the worker's original shard id
// when the implementation did not set one. A panic inside fn — predicates
// raise data-dependent faults (a division by zero) as panics, and these
// goroutines sit outside any request-level recover — becomes that shard's
// error instead of taking the process down; a panic value that is an error
// is wrapped, so the caller can still tell a predicate fault from a bug.
func (r *run) scatter(ctx context.Context, fn func(slot int, w Worker) error) error {
	errs := make([]error, len(r.workers))
	call := func(slot int, w Worker) {
		defer func() {
			switch p := recover().(type) {
			case nil:
			case error:
				errs[slot] = fmt.Errorf("shard %d: worker panicked: %w", r.ids[slot], p)
			default:
				errs[slot] = fmt.Errorf("shard %d: worker panicked: %v", r.ids[slot], p)
			}
		}()
		errs[slot] = fn(slot, w)
	}
	if len(r.workers) == 1 {
		// Nothing to overlap: a lone worker (every unsharded catalog-served
		// count) skips six goroutine handoffs per estimate.
		call(0, r.workers[0])
	} else {
		var wg sync.WaitGroup
		for i, w := range r.workers {
			wg.Add(1)
			go func(slot int, w Worker) {
				defer wg.Done()
				call(slot, w)
			}(i, w)
		}
		wg.Wait()
	}
	var first error
	for slot, err := range errs {
		if err == nil {
			continue
		}
		var lost *LostShardError
		if errors.As(err, &lost) {
			return lost
		}
		if errors.Is(err, ErrShardLost) {
			return &LostShardError{Shard: r.ids[slot], Err: err}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// slotOf routes a key to the surviving worker that owns it. Workers are
// hash-aligned — workers[i] holds exactly the keys OwnerOf places on shard
// i — so ownership is computed, never learned from op results.
func (r *run) slotOf(key int64) (int, error) {
	id := OwnerOf(key, r.shards)
	for slot, wid := range r.ids {
		if wid == id {
			return slot, nil
		}
	}
	return 0, fmt.Errorf("shard: key %d belongs to lost shard %d", key, id)
}

// label answers labels for the given distinct keys, routing memo misses
// to their owning shards in one batched round.
func (r *run) label(ctx context.Context, sel []int64) ([]bool, error) {
	labels, _, err := r.labelRound(ctx, sel, false)
	return labels, err
}

// labelRound is label, and with withRows it also returns every key's
// feature vector (in sel order) out of the same round: a key's row lives on
// the shard that labels it, so the learn sample costs one scatter, not two.
// A key already in the memo is asked for its row only and counts as reused —
// the survivors of a degraded restart keep the labels they bought.
func (r *run) labelRound(ctx context.Context, sel []int64, withRows bool) ([]bool, [][]float64, error) {
	type ask struct {
		keys   []int64 // memo misses this shard owns
		rowsOf []int64 // keys whose rows it returns; rowsOf[j] is sel[at[j]]
		at     []int
		labels []bool
		rows   [][]float64
		fresh  int
	}
	asks := make([]ask, len(r.workers))
	queued := 0
	for i, k := range sel {
		_, known := r.memo[k]
		if known && !withRows {
			continue
		}
		slot, err := r.slotOf(k)
		if err != nil {
			return nil, nil, err
		}
		a := &asks[slot]
		if !known {
			a.keys = append(a.keys, k)
			queued++
		}
		if withRows {
			a.rowsOf, a.at = append(a.rowsOf, k), append(a.at, i)
		}
	}
	var rows [][]float64
	if queued > 0 || withRows {
		err := r.scatter(ctx, func(slot int, w Worker) (err error) {
			a := &asks[slot]
			if len(a.keys) == 0 && len(a.rowsOf) == 0 {
				return nil
			}
			sort.Slice(a.keys, func(i, j int) bool { return a.keys[i] < a.keys[j] })
			if a.labels, a.rows, a.fresh, err = w.Label(ctx, a.keys, a.rowsOf); err != nil {
				return err
			}
			if len(a.labels) != len(a.keys) || len(a.rows) != len(a.rowsOf) {
				return fmt.Errorf("shard: worker returned %d labels for %d keys and %d rows for %d",
					len(a.labels), len(a.keys), len(a.rows), len(a.rowsOf))
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if withRows {
			rows = make([][]float64, len(sel))
		}
		for _, a := range asks {
			for j, k := range a.keys {
				r.memo[k] = a.labels[j]
			}
			for j, i := range a.at {
				rows[i] = a.rows[j]
			}
			r.fresh += a.fresh
		}
	}
	r.reused += len(sel) - queued
	labels := make([]bool, len(sel))
	for j, k := range sel {
		labels[j] = r.memo[k]
	}
	return labels, rows, nil
}

// cands gathers per-shard bottom-k candidates under the tag.
func (r *run) cands(ctx context.Context, k int, tag uint64) ([][]Cand, error) {
	parts := make([][]Cand, len(r.workers))
	err := r.scatter(ctx, func(slot int, w Worker) error {
		cs, cerr := w.Cands(ctx, k, tag)
		if cerr != nil {
			return cerr
		}
		parts[slot] = cs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// attempt runs the full protocol over the current survivor set.
func (r *run) attempt(ctx context.Context) (*Result, error) {
	n := r.aliveN()
	res := &Result{N: n, Shards: len(r.workers)}
	alpha := core.AlphaOrDefault(r.plan.Alpha)
	if n == 0 {
		res.HasCI = true
		if r.plan.Exact {
			res.HasTrue = true
		}
		return res, nil
	}

	if r.plan.BudgetOf != nil {
		// The nominal budget is reported even for the oracle, mirroring
		// the single-process paths.
		res.Budget = r.plan.BudgetOf(n)
	}
	var err error
	if r.plan.Grouped {
		err = r.attemptGrouped(ctx, res, n, alpha)
	} else {
		err = r.attemptPlain(ctx, res, n, alpha)
	}
	if err != nil {
		return nil, err
	}
	res.Proportion = res.Count / float64(n)
	res.SamplesUsed = r.fresh
	res.ReusedLabels = r.reused
	return res, nil
}

// attemptPlain runs srs/lss/oracle without grouping.
func (r *run) attemptPlain(ctx context.Context, res *Result, n int, alpha float64) error {
	var er estimate.Result
	switch r.plan.Method {
	case "oracle":
		merged, _, err := r.countAll(ctx, nil)
		if err != nil {
			return err
		}
		c := float64(merged.Positives)
		res.Count, res.CILo, res.CIHi, res.HasCI = c, c, c, true
		res.Exact = true
		if r.plan.Exact {
			res.TrueCount, res.HasTrue = merged.Positives, true
		}
		return nil

	case "srs":
		parts, err := r.cands(ctx, res.Budget, TagSample)
		if err != nil {
			return err
		}
		sel := MergeBottomK(parts, res.Budget, n)
		labels, err := r.label(ctx, sel)
		if err != nil {
			return err
		}
		er = estimate.SRS(estimate.Positives(labels), len(sel), n, alpha, r.plan.Wilson)

	case "lss":
		all, hOf, kLearn, err := r.stratify(ctx, res, n)
		if err != nil {
			return err
		}
		strata, err := r.sampleStrata(ctx, all, hOf, res.Budget-kLearn, nil)
		if err != nil {
			return err
		}
		if er, err = estimate.Stratified(strata, alpha); err != nil {
			return fmt.Errorf("shard: %v", err)
		}
	}
	res.Count, res.CILo, res.CIHi, res.HasCI = er.Count, er.CI.Lo, er.CI.Hi, true

	if r.plan.Exact {
		merged, _, err := r.countAll(ctx, nil)
		if err != nil {
			return err
		}
		res.TrueCount, res.HasTrue = merged.Positives, true
	}
	return nil
}

// stratify runs the lss learn and design phases over the survivors: size
// the learn sample, score every object, and cut the scores into equal-count
// strata. It returns the scored population, each object's stratum (aligned
// with it), and the learn-sample size.
func (r *run) stratify(ctx context.Context, res *Result, n int) (all []Scored, hOf []int, kLearn int, err error) {
	if kLearn, err = LearnSize(res.Budget); err != nil {
		return nil, nil, 0, err
	}
	if all, err = r.scoreAll(ctx, n, kLearn); err != nil {
		return nil, nil, 0, err
	}
	scores := make([]float64, len(all))
	for i, s := range all {
		scores[i] = s.Score
	}
	cuts := EqualCountCuts(scores, core.StrataCount(r.plan.Strata))
	hOf = make([]int, len(all))
	for i, s := range all {
		hOf[i] = StratumOf(cuts, s.Score)
	}
	return all, hOf, kLearn, nil
}

// scoreAll yields every survivor object with its classifier score: merge
// the hash learn sample, take its labels and features in one round,
// broadcast (x, y, seed) so every shard trains the identical classifier,
// and gather per-key scores.
func (r *run) scoreAll(ctx context.Context, n, kLearn int) ([]Scored, error) {
	ctx, sp := obs.StartSpan(ctx, "learn")
	defer sp.End()
	parts, err := r.cands(ctx, kLearn, TagLearn)
	if err != nil {
		return nil, err
	}
	learnSel := MergeBottomK(parts, kLearn, n)
	y, x, err := r.labelRound(ctx, learnSel, true)
	if err != nil {
		return nil, err
	}
	clfSeed := live.Mix64(r.plan.Seed, TagTrain, uint64(len(learnSel)))
	sp.Set("train_rows", len(learnSel))
	sp.Set("scored", n)

	scored := make([][]Scored, len(r.workers))
	err = r.scatter(ctx, func(slot int, w Worker) error {
		s, serr := w.ScoreAll(ctx, x, y, clfSeed)
		if serr != nil {
			return serr
		}
		scored[slot] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	all := make([]Scored, 0, n)
	for _, part := range scored {
		all = append(all, part...)
	}
	if len(all) != n {
		return nil, fmt.Errorf("shard: scored %d of %d objects", len(all), n)
	}
	return all, nil
}

// sampleStrata draws and labels the estimation sample of a stratified
// population (all[i] lies in stratum hOf[i]) under the global sample tag:
// a budget extension's sample overlaps the earlier one even where
// retrained cuts reshuffled the strata.
func (r *run) sampleStrata(ctx context.Context, all []Scored, hOf []int, budget int,
	visit func(h int, key int64, positive bool)) ([]estimate.StratumSample, error) {

	members := make([][]int64, core.StrataCount(r.plan.Strata))
	for i, s := range all {
		members[hOf[i]] = append(members[hOf[i]], s.Key)
	}
	return SampleStrata(members, budget, r.plan.Seed,
		func(int) uint64 { return TagSample },
		func(sel []int64) ([]bool, error) { return r.label(ctx, sel) }, visit)
}

// countAll scatters a full labeling pass and merges the shard tallies;
// groupTally (when non-nil) receives the merged per-group tallies.
func (r *run) countAll(ctx context.Context, groupTally map[string]*GroupCount) (Partial, map[string]*GroupCount, error) {
	tallies := make([]Tally, len(r.workers))
	err := r.scatter(ctx, func(slot int, w Worker) (cerr error) {
		tallies[slot], cerr = w.CountAll(ctx)
		return cerr
	})
	if err != nil {
		return Partial{}, nil, err
	}
	var merged Partial
	for _, t := range tallies {
		if verr := t.Validate(); verr != nil {
			return Partial{}, nil, verr
		}
		merged.Add(t.Partial)
		r.fresh += t.Fresh
	}
	if groupTally == nil {
		groupTally = make(map[string]*GroupCount)
	}
	for _, t := range tallies {
		for _, g := range t.Groups {
			t, ok := groupTally[g.Key]
			if !ok {
				t = &GroupCount{Key: g.Key, Parts: g.Parts}
				groupTally[g.Key] = t
			}
			t.N += g.N
			t.Pos += g.Pos
		}
	}
	return merged, groupTally, nil
}

// attemptGrouped runs the grouped protocol: one shared sample keyed by
// the global tags, per-group tallies, and a deterministic per-group
// top-up (under the group's own tag) for groups the shared sample
// underserves.
func (r *run) attemptGrouped(ctx context.Context, res *Result, n int, alpha float64) error {
	cens := r.mergeCensus()

	type cell struct{ sampled, pos int }
	perGroup := make(map[string]map[int]*cell) // canonical -> stratum -> tally
	members := make(map[string][]int64)        // canonical -> member keys
	tally := func(g string, h int, positive bool) {
		cells, ok := perGroup[g]
		if !ok {
			cells = make(map[int]*cell)
			perGroup[g] = cells
		}
		c, ok := cells[h]
		if !ok {
			c = &cell{}
			cells[h] = c
		}
		c.sampled++
		if positive {
			c.pos++
		}
	}

	H := 1 // plain srs/oracle tallies live in stratum 0
	var stratumSizes map[string][]int
	switch r.plan.Method {
	case "oracle":
		_, groupTally, err := r.countAll(ctx, nil)
		if err != nil {
			return err
		}
		total := 0
		for _, c := range cens {
			g := groupTally[c.key]
			pos := 0
			if g != nil {
				pos = g.Pos
			}
			total += pos
			grp := Group{
				Key: c.key, Parts: c.parts, N: c.n, Sampled: c.n,
				Count: float64(pos), Proportion: safeDiv(float64(pos), c.n),
				CILo: float64(pos), CIHi: float64(pos), HasCI: true, Exact: true,
			}
			if r.plan.Exact {
				grp.TrueCount, grp.HasTrue = pos, true
			}
			res.Groups = append(res.Groups, grp)
		}
		res.Count, res.CILo, res.CIHi, res.HasCI = float64(total), float64(total), float64(total), true
		res.Exact = true
		if r.plan.Exact {
			res.TrueCount, res.HasTrue = total, true
		}
		return nil

	case "srs":
		listed, err := r.listGroupKeys(ctx)
		if err != nil {
			return err
		}
		keys := make([]int64, len(listed))
		groupOf := make(map[int64]string, len(listed))
		for i, s := range listed {
			keys[i] = s.Key
			groupOf[s.Key] = s.Group
			members[s.Group] = append(members[s.Group], s.Key)
		}
		sel := BottomK(keys, res.Budget, r.plan.Seed, TagSample)
		labels, err := r.label(ctx, sel)
		if err != nil {
			return err
		}
		for j, k := range sel {
			tally(groupOf[k], 0, labels[j])
		}

	case "lss":
		all, hOf, kLearn, err := r.stratify(ctx, res, n)
		if err != nil {
			return err
		}
		H = core.StrataCount(r.plan.Strata)
		stratumSizes = make(map[string][]int)
		at := make(map[int64]int, len(all)) // key -> index into all
		for i, s := range all {
			at[s.Key] = i
			members[s.Group] = append(members[s.Group], s.Key)
			gs, ok := stratumSizes[s.Group]
			if !ok {
				gs = make([]int, H)
				stratumSizes[s.Group] = gs
			}
			gs[hOf[i]]++
		}
		_, err = r.sampleStrata(ctx, all, hOf, res.Budget-kLearn, func(h int, k int64, positive bool) {
			tally(all[at[k]].Group, h, positive)
		})
		if err != nil {
			return err
		}
	}

	// srsGroup fills in a group's simple-random-sample estimate; a sample
	// covering the whole group is exact.
	srsGroup := func(grp *Group, pos, sampled int) {
		er := estimate.SRS(pos, sampled, grp.N, alpha, r.plan.Wilson)
		grp.Sampled = sampled
		grp.Count, grp.Proportion = er.Count, er.Proportion
		grp.CILo, grp.CIHi, grp.HasCI = er.CI.Lo, er.CI.Hi, true
		if grp.Exact = sampled == grp.N; grp.Exact {
			grp.Count = float64(pos)
			grp.CILo, grp.CIHi = grp.Count, grp.Count
		}
	}

	// Per-group estimates with a deterministic top-up for groups the
	// shared sample underserves: the top-up replaces the shared estimate
	// so the answer never depends on which path a group took historically.
	// Each top-up is drawn under the group's own tag, and groups are
	// disjoint, so all of them are labeled in one round.
	sampledOf := make([]int, len(cens))
	short := func(i int) bool { return sampledOf[i] < min(core.MinPerGroup, cens[i].n) }
	topUp := make([][]int64, len(cens))
	var topUps []int64
	for i, c := range cens {
		for _, cl := range perGroup[c.key] {
			sampledOf[i] += cl.sampled
		}
		if short(i) {
			topUp[i] = BottomK(members[c.key], min(core.MinPerGroup, c.n), r.plan.Seed, GroupTag(c.key))
			topUps = append(topUps, topUp[i]...)
		}
	}
	topLabels, err := r.label(ctx, topUps)
	if err != nil {
		return err
	}
	total, lo, hi := 0.0, 0.0, 0.0
	for i, c := range cens {
		sampled := sampledOf[i]
		grp := Group{Key: c.key, Parts: c.parts, N: c.n}
		if short(i) {
			gsel := topUp[i]
			srsGroup(&grp, estimate.Positives(topLabels[:len(gsel)]), len(gsel))
			topLabels = topLabels[len(gsel):]
		} else if r.plan.Method == "lss" {
			gs := stratumSizes[c.key]
			var cells []estimate.StratumSample
			for h := 0; h < H; h++ {
				if gs[h] == 0 {
					continue
				}
				cl := perGroup[c.key][h]
				s := estimate.StratumSample{N: gs[h]}
				if cl != nil {
					s.Sampled, s.Positives = cl.sampled, cl.pos
				}
				cells = append(cells, s)
			}
			er, serr := estimate.Stratified(cells, alpha)
			if serr != nil {
				return fmt.Errorf("shard: group %q: %v", c.key, serr)
			}
			grp.Sampled = sampled
			grp.Count, grp.Proportion = er.Count, er.Proportion
			grp.CILo, grp.CIHi, grp.HasCI = er.CI.Lo, er.CI.Hi, true
			grp.Exact = sampled == c.n
		} else {
			pos := 0
			if cl := perGroup[c.key][0]; cl != nil {
				pos = cl.pos
			}
			srsGroup(&grp, pos, sampled)
		}
		total += grp.Count
		lo += grp.CILo
		hi += grp.CIHi
		res.Groups = append(res.Groups, grp)
	}
	res.Count, res.CILo, res.CIHi, res.HasCI = total, lo, hi, true

	if r.plan.Exact {
		_, groupTally, err := r.countAll(ctx, nil)
		if err != nil {
			return err
		}
		tc := 0
		for i := range res.Groups {
			pos := 0
			if g := groupTally[res.Groups[i].Key]; g != nil {
				pos = g.Pos
			}
			res.Groups[i].TrueCount, res.Groups[i].HasTrue = pos, true
			tc += pos
		}
		res.TrueCount, res.HasTrue = tc, true
	}
	return nil
}

// listGroupKeys gathers every key with its group from the survivors.
func (r *run) listGroupKeys(ctx context.Context) ([]Scored, error) {
	parts := make([][]Scored, len(r.workers))
	err := r.scatter(ctx, func(slot int, w Worker) error {
		s, serr := w.GroupKeys(ctx)
		if serr != nil {
			return serr
		}
		parts[slot] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []Scored
	for _, p := range parts {
		all = append(all, p...)
	}
	return all, nil
}

// degrade scales a survivor-universe answer to the full population when
// shards were lost: the point estimate extrapolates by population ratio
// and the interval's upper bound absorbs the lost mass (every lost object
// could have been positive; the lower bound keeps the survivors'
// evidence). Group intervals widen by each group's own lost membership —
// the census ran before any loss, so the lost mass per group is known
// exactly. True counts cannot be known degraded, so they are dropped.
func (r *run) degrade(res *Result, fullN int, fullGroups []census) {
	res.Shards = len(r.workers) + len(r.lost)
	if r.lostN == 0 && len(r.lost) == 0 {
		return
	}
	survN := res.N
	res.N = fullN
	res.Degraded = true
	res.Lost = append([]int(nil), r.lost...)
	sort.Ints(res.Lost)
	res.Exact = false
	res.TrueCount, res.HasTrue = 0, false

	if survN > 0 {
		scale := float64(fullN) / float64(survN)
		res.Count *= scale
	} else {
		res.Count = 0
	}
	res.CIHi += float64(r.lostN)
	if res.CIHi > float64(fullN) {
		res.CIHi = float64(fullN)
	}
	res.Proportion = safeDiv(res.Count, fullN)

	if !r.plan.Grouped {
		return
	}
	// Re-key the survivor group results against the full census; groups
	// entirely on lost shards come back as pure-uncertainty rows.
	bySurv := make(map[string]Group, len(res.Groups))
	for _, g := range res.Groups {
		bySurv[g.Key] = g
	}
	out := make([]Group, 0, len(fullGroups))
	for _, c := range fullGroups {
		g, ok := bySurv[c.key]
		if !ok {
			g = Group{Key: c.key, Parts: c.parts}
		}
		lostG := c.n - g.N
		g.N = c.n
		if lostG > 0 {
			if g.Sampled > 0 {
				g.Count *= float64(c.n) / float64(c.n-lostG)
			}
			g.CIHi += float64(lostG)
			if g.CIHi > float64(c.n) {
				g.CIHi = float64(c.n)
			}
			g.HasCI = true
			g.Exact = false
		}
		g.Proportion = safeDiv(g.Count, c.n)
		g.TrueCount, g.HasTrue = 0, false
		out = append(out, g)
	}
	res.Groups = out
}

// LessGroupKey is the one order of GROUP BY rows, on every path that
// answers: element-wise over the rendered key parts, numbers before text,
// two numbers by value (integers exactly, so int64 keys beyond 2^53 keep
// their order), everything else — and numbers of equal value — lexically,
// shorter keys first on a tie.
func LessGroupKey(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareKeyPart(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

func compareKeyPart(a, b string) int {
	if a == b {
		return 0
	}
	if ia, err := strconv.ParseInt(a, 10, 64); err == nil {
		if ib, err := strconv.ParseInt(b, 10, 64); err == nil && ia != ib {
			return cmp.Compare(ia, ib)
		}
	}
	fa, aerr := strconv.ParseFloat(a, 64)
	fb, berr := strconv.ParseFloat(b, 64)
	aNum, bNum := aerr == nil && fa == fa, berr == nil && fb == fb // NaN is text
	switch {
	case aNum && bNum && fa != fb:
		return cmp.Compare(fa, fb)
	case aNum && !bNum:
		return -1
	case bNum && !aNum:
		return 1
	}
	return strings.Compare(a, b)
}

func safeDiv(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}
