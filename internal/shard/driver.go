package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

	r := &run{plan: plan, workers: slices.Clone(workers), memo: make(map[int64]bool)}

	// Census round: every shard must report its population before any
	// loss is survivable.
	cctx, csp := obs.StartSpan(ctx, "shard.census")
	metas, err := gather(r, func(_ int, w Worker) (Meta, error) { return w.Meta(cctx) })
	csp.End()
	if err != nil {
		if errors.Is(err, ErrShardLost) {
			return nil, fmt.Errorf("shard: lost before census, population unknown: %w", err)
		}
		return nil, err
	}
	r.metas = metas
	fullN := r.aliveN()
	csp.Set("shards", len(r.workers))
	csp.Set("population", fullN)
	fullGroups := r.mergeCensus()

	for restart := 0; ; restart++ {
		actx, asp := obs.StartSpan(ctx, "shard.attempt")
		asp.Set("survivors", len(r.workers)-len(r.lost))
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
		if len(r.lost) == len(r.workers) {
			return nil, fmt.Errorf("shard: every shard lost: %w", rerr)
		}
	}
}

// run is one Drive invocation's mutable state: the workers and the census,
// both indexed by shard id (a lost shard's worker is nil and its census
// zero), and the driver-side label memo. The memo survives a degraded
// restart — labels are pure in (snapshot, key, predicate), so survivor keys
// never need relabeling.
type run struct {
	plan    Plan
	workers []Worker // key k lives on shard OwnerOf(k, len(workers))
	metas   []Meta

	memo   map[int64]bool
	fresh  int
	reused int

	lost  []int
	lostN int
}

// drop removes the lost shard from the survivor set, recording its
// population as lost mass.
func (r *run) drop(id int) bool {
	if id < 0 || id >= len(r.workers) || r.workers[id] == nil {
		return false
	}
	r.workers[id] = nil
	r.lost = append(r.lost, id)
	r.lostN += r.metas[id].N
	r.metas[id] = Meta{}
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

// mergeCensus merges the survivors' group censuses into the answer's
// groups — key, parts and population — in LessGroupKey order.
func (r *run) mergeCensus() []Group {
	if !r.plan.Grouped {
		return nil
	}
	at := make(map[string]int)
	var out []Group
	for _, m := range r.metas {
		for _, g := range m.Groups {
			i, ok := at[g.Key]
			if !ok {
				i = len(out)
				at[g.Key] = i
				out = append(out, Group{Key: g.Key, Parts: g.Parts})
			}
			out[i].N += g.N
		}
	}
	sort.Slice(out, func(a, b int) bool { return LessGroupKey(out[a].Parts, out[b].Parts) })
	return out
}

// gather runs one round: ask once per surviving shard, concurrently, with
// the replies indexed by shard id (a lost shard's stays zero). A
// LostShardError is reported in preference to other errors so the caller
// can degrade; the error is annotated with the shard id when the
// implementation did not set one. A panic inside ask — predicates raise
// data-dependent faults (a division by zero) as panics, and these
// goroutines sit outside any request-level recover — becomes that shard's
// error instead of taking the process down; a panic value that is an error
// is wrapped, so the caller can still tell a predicate fault from a bug.
func gather[T any](r *run, ask func(id int, w Worker) (T, error)) ([]T, error) {
	replies := make([]T, len(r.workers))
	errs := make([]error, len(r.workers))
	call := func(id int) {
		defer func() {
			switch p := recover().(type) {
			case nil:
			case error:
				errs[id] = fmt.Errorf("shard %d: worker panicked: %w", id, p)
			default:
				errs[id] = fmt.Errorf("shard %d: worker panicked: %v", id, p)
			}
		}()
		replies[id], errs[id] = ask(id, r.workers[id])
	}
	lone := len(r.workers)-len(r.lost) == 1
	var wg sync.WaitGroup
	for id, w := range r.workers {
		switch {
		case w == nil:
		case lone:
			// Nothing to overlap: a lone worker (every unsharded
			// catalog-served count) skips six goroutine handoffs per
			// estimate.
			call(id)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				call(id)
			}()
		}
	}
	wg.Wait()
	var first error
	for id, err := range errs {
		if err == nil {
			continue
		}
		var lost *LostShardError
		if errors.As(err, &lost) {
			return nil, lost
		}
		if errors.Is(err, ErrShardLost) {
			return nil, &LostShardError{Shard: id, Err: err}
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return replies, nil
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
	}
	type answer struct {
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
		id := OwnerOf(k, len(r.workers))
		if r.workers[id] == nil {
			return nil, nil, fmt.Errorf("shard: key %d belongs to lost shard %d", k, id)
		}
		a := &asks[id]
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
		answers, err := gather(r, func(id int, w Worker) (ans answer, err error) {
			a := &asks[id]
			if len(a.keys) == 0 && len(a.rowsOf) == 0 {
				return ans, nil
			}
			slices.Sort(a.keys)
			if ans.labels, ans.rows, ans.fresh, err = w.Label(ctx, a.keys, a.rowsOf); err != nil {
				return ans, err
			}
			if len(ans.labels) != len(a.keys) || len(ans.rows) != len(a.rowsOf) {
				return ans, fmt.Errorf("shard: worker returned %d labels for %d keys and %d rows for %d",
					len(ans.labels), len(a.keys), len(ans.rows), len(a.rowsOf))
			}
			return ans, nil
		})
		if err != nil {
			return nil, nil, err
		}
		if withRows {
			rows = make([][]float64, len(sel))
		}
		for id, a := range asks {
			ans := answers[id]
			for j, k := range a.keys {
				r.memo[k] = ans.labels[j]
			}
			for j, i := range a.at {
				rows[i] = ans.rows[j]
			}
			r.fresh += ans.fresh
		}
	}
	r.reused += len(sel) - queued
	labels := make([]bool, len(sel))
	for j, k := range sel {
		labels[j] = r.memo[k]
	}
	return labels, rows, nil
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
		parts, err := gather(r, func(_ int, w Worker) ([]Cand, error) { return w.Cands(ctx, res.Budget, TagSample) })
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
	if all, err = r.learn(ctx, n, kLearn); err != nil {
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

// learn yields every survivor object with its classifier score: merge the
// hash learn sample, take its labels and features in one round, and
// broadcast (x, y, seed) so every shard trains the identical classifier.
func (r *run) learn(ctx context.Context, n, kLearn int) ([]Scored, error) {
	ctx, sp := obs.StartSpan(ctx, "learn")
	defer sp.End()
	parts, err := gather(r, func(_ int, w Worker) ([]Cand, error) { return w.Cands(ctx, kLearn, TagLearn) })
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
	return r.scoreAll(ctx, n, x, y, clfSeed)
}

// scoreAll gathers the survivors' n objects in shard order, each scored by
// the classifier trained on (x, y, clfSeed) — or, with an empty learn
// sample, unscored: the listing a plan that learns nothing needs.
func (r *run) scoreAll(ctx context.Context, n int, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	parts, err := gather(r, func(_ int, w Worker) ([]Scored, error) { return w.ScoreAll(ctx, x, y, clfSeed) })
	if err != nil {
		return nil, err
	}
	all := slices.Concat(parts...)
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

// countAll scatters a full labeling pass and merges the shard tallies. On a
// grouped plan (at maps each census group's key to its position) it also
// returns every group's positives by position.
func (r *run) countAll(ctx context.Context, at map[string]int) (Partial, []int, error) {
	tallies, err := gather(r, func(_ int, w Worker) (Tally, error) { return w.CountAll(ctx) })
	if err != nil {
		return Partial{}, nil, err
	}
	var merged Partial
	var pos []int
	if at != nil {
		pos = make([]int, len(at))
	}
	for _, t := range tallies {
		if verr := t.Validate(); verr != nil {
			return Partial{}, nil, verr
		}
		merged.Add(t.Partial)
		r.fresh += t.Fresh
		for _, g := range t.Groups {
			i, ok := at[g.Key]
			if !ok {
				return Partial{}, nil, fmt.Errorf("shard: full pass tallied group %q, which no census reported", g.Key)
			}
			pos[i] += g.Pos
		}
	}
	return merged, pos, nil
}

// attemptGrouped runs the grouped protocol over the census's groups, each
// addressed by its position in res.Groups: one shared sample keyed by the
// global tags, each group's draws tallied into its row of stratum cells,
// and a deterministic per-group top-up (under the group's own tag) for
// groups the shared sample underserves.
func (r *run) attemptGrouped(ctx context.Context, res *Result, n int, alpha float64) error {
	res.Groups = r.mergeCensus()
	at := make(map[string]int, len(res.Groups))
	for i, g := range res.Groups {
		at[g.Key] = i
	}
	if r.plan.Method == "oracle" {
		_, pos, err := r.countAll(ctx, at)
		if err != nil {
			return err
		}
		for i := range res.Groups {
			g := &res.Groups[i]
			c := float64(pos[i])
			g.Sampled, g.Count, g.Proportion = g.N, c, safeDiv(c, g.N)
			g.CILo, g.CIHi, g.HasCI, g.Exact = c, c, true, true
		}
		res.Exact = true
		r.total(res, pos)
		return nil
	}

	// A group's cells are its strata (one for srs): lss fills in each
	// stratum's population, the shared sample its draws and positives.
	cells := make([][]estimate.StratumSample, len(res.Groups))
	members := make([][]int64, len(res.Groups))
	groupOf := make(map[int64]int, n) // object key -> group position
	place := func(s Scored) (int, error) {
		g, ok := at[s.Group]
		if !ok {
			return 0, fmt.Errorf("shard: key %d is in group %q, which no census reported", s.Key, s.Group)
		}
		members[g] = append(members[g], s.Key)
		groupOf[s.Key] = g
		return g, nil
	}
	tally := func(h int, k int64, positive bool) {
		c := &cells[groupOf[k]][h]
		c.Sampled++
		if positive {
			c.Positives++
		}
	}
	switch r.plan.Method {
	case "srs":
		listed, err := r.scoreAll(ctx, n, nil, nil, 0)
		if err != nil {
			return err
		}
		keys := make([]int64, len(listed))
		for i, s := range listed {
			if _, err := place(s); err != nil {
				return err
			}
			keys[i] = s.Key
		}
		for g := range cells {
			cells[g] = make([]estimate.StratumSample, 1)
		}
		sel := BottomK(keys, res.Budget, r.plan.Seed, TagSample)
		labels, err := r.label(ctx, sel)
		if err != nil {
			return err
		}
		for j, k := range sel {
			tally(0, k, labels[j])
		}

	case "lss":
		all, hOf, kLearn, err := r.stratify(ctx, res, n)
		if err != nil {
			return err
		}
		for g := range cells {
			cells[g] = make([]estimate.StratumSample, core.StrataCount(r.plan.Strata))
		}
		for i, s := range all {
			g, err := place(s)
			if err != nil {
				return err
			}
			cells[g][hOf[i]].N++
		}
		if _, err = r.sampleStrata(ctx, all, hOf, res.Budget-kLearn, tally); err != nil {
			return err
		}
	}

	// Per-group estimates with a deterministic top-up for groups the
	// shared sample underserves: the top-up replaces the shared estimate
	// so the answer never depends on which path a group took historically.
	// Each top-up is drawn under the group's own tag, and groups are
	// disjoint, so all of them are labeled in one round.
	short := func(g *Group) bool { return g.Sampled < min(core.MinPerGroup, g.N) }
	topUp := make([][]int64, len(res.Groups))
	var topUps []int64
	for i := range res.Groups {
		g := &res.Groups[i]
		for _, c := range cells[i] {
			g.Sampled += c.Sampled
		}
		if short(g) {
			topUp[i] = BottomK(members[i], min(core.MinPerGroup, g.N), r.plan.Seed, GroupTag(g.Key))
			topUps = append(topUps, topUp[i]...)
		}
	}
	topLabels, err := r.label(ctx, topUps)
	if err != nil {
		return err
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		switch {
		case short(g):
			sel := topUp[i]
			g.setSRS(estimate.Positives(topLabels[:len(sel)]), len(sel), alpha, r.plan.Wilson)
			topLabels = topLabels[len(sel):]
		case r.plan.Method == "lss":
			strata := slices.DeleteFunc(cells[i], func(c estimate.StratumSample) bool { return c.N == 0 })
			er, serr := estimate.Stratified(strata, alpha)
			if serr != nil {
				return fmt.Errorf("shard: group %q: %v", g.Key, serr)
			}
			g.Count, g.Proportion = er.Count, er.Proportion
			g.CILo, g.CIHi, g.HasCI = er.CI.Lo, er.CI.Hi, true
			g.Exact = g.Sampled == g.N
		default:
			g.setSRS(cells[i][0].Positives, g.Sampled, alpha, r.plan.Wilson)
		}
	}
	var truth []int
	if r.plan.Exact {
		if _, truth, err = r.countAll(ctx, at); err != nil {
			return err
		}
	}
	r.total(res, truth)
	return nil
}

// total sums the groups' estimates into the answer in census order and,
// when the plan asks for exact counts, attaches truth — a full pass's
// positives by group position — as the true counts.
func (r *run) total(res *Result, truth []int) {
	res.Count, res.CILo, res.CIHi, res.HasCI = 0, 0, 0, true
	for i := range res.Groups {
		g := &res.Groups[i]
		res.Count += g.Count
		res.CILo += g.CILo
		res.CIHi += g.CIHi
		if r.plan.Exact {
			g.TrueCount, g.HasTrue = truth[i], true
			res.TrueCount += truth[i]
		}
	}
	res.HasTrue = r.plan.Exact
}

// setSRS makes g's estimate the simple random sample that found pos
// positives among sampled of its members; a sample covering the whole
// group is exact.
func (g *Group) setSRS(pos, sampled int, alpha float64, wilson bool) {
	er := estimate.SRS(pos, sampled, g.N, alpha, wilson)
	g.Sampled = sampled
	g.Count, g.Proportion = er.Count, er.Proportion
	g.CILo, g.CIHi, g.HasCI = er.CI.Lo, er.CI.Hi, true
	if g.Exact = sampled == g.N; g.Exact {
		g.Count = float64(pos)
		g.CILo, g.CIHi = g.Count, g.Count
	}
}

// degrade scales a survivor-universe answer to the full population when
// shards were lost: the point estimate extrapolates by population ratio
// and the interval's upper bound absorbs the lost mass (every lost object
// could have been positive; the lower bound keeps the survivors'
// evidence). Group intervals widen by each group's own lost membership —
// the census ran before any loss, so the lost mass per group is known
// exactly. True counts cannot be known degraded, so they are dropped.
func (r *run) degrade(res *Result, fullN int, fullGroups []Group) {
	if len(r.lost) == 0 {
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
		g, ok := bySurv[c.Key]
		if !ok {
			g = Group{Key: c.Key, Parts: c.Parts}
		}
		lostG := c.N - g.N
		g.N = c.N
		if lostG > 0 {
			if g.Sampled > 0 {
				g.Count *= float64(c.N) / float64(c.N-lostG)
			}
			g.CIHi += float64(lostG)
			if g.CIHi > float64(c.N) {
				g.CIHi = float64(c.N)
			}
			g.HasCI = true
			g.Exact = false
		}
		g.Proportion = safeDiv(g.Count, c.N)
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
