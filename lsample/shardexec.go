package lsample

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/shard"
	"repro/internal/sql"
)

// This file is the hash-plan execution layer: the enumerated population
// becomes N >= 1 in-process workers — partitioned by a hash of the object
// key under WithShards(s), a single worker when only a reuse catalog asked
// for the hash plan — and internal/shard.Drive runs the one deterministic
// recipe over them. The estimate is byte-identical at every worker count,
// because every sampling decision is a pure function of (key, seed, tag)
// and every merge is an exact set union or integer sum.
//
// PrepareShard exposes one shard's worker (ShardExec) to an out-of-process
// serving layer: a coordinator scatters internal/shard's op protocol over
// HTTP and merges with the identical driver.

// labelStore answers one worker's label queries: a per-key memo in front
// of a lazily built predicate — an execution whose every sampled label is
// already memoized never constructs the predicate at all. Labels are pure
// functions of (snapshot, key, predicate), so a memo hit is byte-identical
// to a fresh evaluation; misses are evaluated in ascending object order
// through the predicate's batch path, byte-identical at any parallelism.
// The memo is a catalog entry's label space (unsharded executions, which
// hold the entry lock throughout), a private map seeded from and written
// back to a per-shard entry, or a LiveQuery's label memo.
type labelStore struct {
	mu       sync.Mutex
	labels   map[int64]bool
	keys     []int64 // global keys by object position
	posByKey map[int64]int
	relabel  bool // refresh's cold baseline: evaluate memoized keys too
	build    func(ctx context.Context) (predicate.Predicate, Labeling, error)
	pred     *predicate.Timed // nil until the first miss
	lab      Labeling
	fresh    int // predicate evaluations spent
	hits     int // label requests the memo answered

	entry   *catalog.Entry // per-shard entry fresh labels are written back to; nil otherwise
	entryFP string
	cat     *catalog.Catalog
}

// label returns labels for the given distinct keys and how many of them
// cost a fresh predicate evaluation.
func (l *labelStore) label(ctx context.Context, sel []int64) ([]bool, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var missing []int
	for _, k := range sel {
		if _, ok := l.labels[k]; !ok || l.relabel {
			missing = append(missing, l.posByKey[k])
		}
	}
	if len(missing) > 0 {
		if l.pred == nil {
			p, lab, err := l.build(ctx)
			if err != nil {
				return nil, 0, err
			}
			l.pred, l.lab = &predicate.Timed{P: p}, lab
		}
		sort.Ints(missing)
		missing = dedupSortedInts(missing)
		fresh, err := predicate.Label(l.pred, missing, canceled(ctx, "labeling"))
		if err != nil {
			return nil, 0, err
		}
		for j, p := range missing {
			l.labels[l.keys[p]] = fresh[j]
		}
		l.fresh += len(missing)
		if l.entry != nil {
			l.entry.Lock()
			m := l.entry.Labels(l.entryFP, l.cat.Clock())
			for j, p := range missing {
				m[l.keys[p]] = fresh[j]
			}
			l.entry.Unlock()
		}
	}
	l.hits += len(sel) - len(missing)
	out := make([]bool, len(sel))
	for j, k := range sel {
		out[j] = l.labels[k]
	}
	return out, len(missing), nil
}

// shardRun is one hash-plan execution's materialized state: the enumerated
// population partitioned into per-shard workers, their label stores, and
// any acquired catalog entries.
type shardRun struct {
	fp       string
	n        int
	featCols []string
	groupKey [][]engine.Value // grouped: group tuples by group index
	canon    []string         // grouped: canonical key by group index
	workers  []shard.Worker
	stores   []*labelStore
	cat      *catalog.Catalog // nil without a catalog (or over an empty population)
	entries  []*catalog.Entry
	prev     []int // entry budgets at acquire time

	// An unsharded run has one worker over the whole population. Its entry
	// (empty Key.Shard) also stores the lss stratification design (the learn
	// sample's keys and training labels) and stays locked from acquire to
	// close, so concurrent identical plans serialize and the followers reuse
	// the leader's labels.
	unsharded bool
	design    *shard.Design // unsharded lss: the entry's materialized design
	reuse     string        // unsharded: set by settle on success; "" records nothing

	// The compiled program's cross-check against the interpreter — one full
	// join scan for object 0 — is a pure function of (snapshot, parameters,
	// program), which every shard of the run shares: the first label store
	// to miss pays it, the others wait on checked and build with its verdict
	// (it compiled and agreed) as buildEnginePredicate's validated argument —
	// so a first build that fell back to the interpreter sends the others
	// through the same check to the same fallback. Nothing outlives the run.
	checked   sync.Once
	validated bool
}

// close releases catalog entries with their reuse classification.
func (r *shardRun) close() {
	for i, e := range r.entries {
		reuse := r.reuse
		if r.unsharded {
			e.Unlock()
		} else {
			reuse = r.shardReuse(i, i+1)
		}
		r.cat.Release(e, reuse)
	}
	r.entries = nil
}

// shardReuse classifies per-shard entries [from, to), which hold labels
// only: direct when every one was materialized before and answered from
// memoized labels alone.
func (r *shardRun) shardReuse(from, to int) string {
	reuse := ReuseDirect
	for i := from; i < to; i++ {
		if r.prev[i] == 0 {
			return ReuseNone
		}
		if r.stores[i].fresh > 0 {
			reuse = ReuseExtension
		}
	}
	return reuse
}

// settle classifies a finished execution for Estimate.Reuse and, for the
// unsharded entry, records what the entry now covers. There direct means
// the materialized budget (srs, oracle) or design (lss) covered the plan —
// true even when a changed Q3 parameter forced relabeling, the documented
// exception: the classifier is refitted from the design's stored labels,
// bought under the predicate that materialized it — a different but still
// unbiased design. A budget extension upgrades the entry; a smaller-budget
// recompute keeps the better artifacts in place.
func (r *shardRun) settle(method string, res *shard.Result) string {
	switch {
	case r.cat == nil:
		return ReuseNone
	case !r.unsharded:
		return r.shardReuse(0, len(r.entries))
	}
	e, prev := r.entries[0], r.prev[0]
	var direct bool
	switch method {
	case "oracle":
		direct = prev > 0
		e.Budget = max(e.Budget, res.N)
	case "srs":
		direct = prev >= res.Budget
		e.Budget = max(e.Budget, res.Budget)
	case "lss":
		direct = res.Design == r.design
		if !direct && res.Budget >= e.Budget {
			e.Budget, e.KLearn, e.LearnKeys, e.LearnLabels = res.Budget, res.Design.KLearn, res.Design.Keys, res.Design.Labels
		}
	}
	switch {
	case prev == 0:
		r.reuse = ReuseNone
	case direct:
		r.reuse = ReuseDirect
	default:
		r.reuse = ReuseExtension
	}
	return r.reuse
}

// labeling reports which predicate path the run took: the first worker
// that built a predicate speaks for all (every worker builds the same one).
func (r *shardRun) labeling() Labeling {
	for _, l := range r.stores {
		if l.pred != nil {
			return l.lab
		}
	}
	return Labeling{Fallback: "label memo, no fresh labels", Workers: 1}
}

// predicateTime sums the wall time spent inside the expensive predicate
// across workers.
func (r *shardRun) predicateTime() time.Duration {
	var d time.Duration
	for _, l := range r.stores {
		if l.pred != nil {
			d += l.pred.Dur
		}
	}
	return d
}

// samplesUsed sums fresh predicate evaluations across workers.
func (r *shardRun) samplesUsed() int64 {
	var n int64
	for _, l := range r.stores {
		n += int64(l.fresh)
	}
	return n
}

// contractError reports a method or query shape outside the hash-plan
// contract (srs/lss/oracle over a unique integer object key). Under
// WithShards it is the request error; with only a catalog attached Execute
// falls through to the classic path instead.
type contractError struct{ error }

func (e contractError) Unwrap() error { return e.error }

func outOfContract(format string, args ...any) error {
	return contractError{badf(format, args...)}
}

// buildShardRun enumerates the population, validates the hash-plan
// contract, partitions the population into count hash-aligned shards, and
// constructs the per-shard workers. count 0 is the unsharded layout (see
// shardRun.unsharded). only (when >= 0) restricts construction to that
// single shard — the out-of-process worker path, which still enumerates the
// full population (cheap Q2) but materializes just its own slice.
func (q *PreparedQuery) buildShardRun(ctx context.Context, cfg config, vals map[string]engine.Value,
	strs map[string]string, count, only int) (*shardRun, error) {

	switch cfg.method {
	case "srs", "lss", "oracle":
	default:
		return nil, outOfContract("method %q cannot run the hash plan (want one of %v)", cfg.method, GroupMethods())
	}
	if _, err := q.objectKeyColumn(); err != nil {
		return nil, outOfContract("hash-plan execution needs a unique integer object key: %v", err)
	}
	r := &shardRun{fp: sql.Fingerprint(q.inner, strs), unsharded: count == 0}
	if r.unsharded {
		count = 1
	}
	if only >= count {
		return nil, badf("shard index %d out of range of %d shards", only, count)
	}

	ev := engine.NewEvaluator(q.cat)
	for name, v := range vals {
		ev.SetParam(name, v)
	}
	_, esp := obs.StartSpan(ctx, "enumerate")
	objects, err := ev.Run(q.dec.Objects, nil)
	esp.End()
	if err != nil {
		return nil, badf("enumerating objects: %v", err)
	}
	n := objects.NumRows()
	esp.Set("objects", n)
	r.n = n

	keys := make([]int64, n)
	posByKey := make(map[int64]int, n)
	for i := 0; i < n; i++ {
		v := objects.Value(i, q.keyPos())
		if v.Kind != engine.KInt {
			return nil, outOfContract("hash-plan execution needs an integer object key")
		}
		keys[i] = v.I
		posByKey[v.I] = i
	}
	if len(posByKey) != n {
		// Duplicate keys would alias label memo slots.
		return nil, outOfContract("hash-plan execution needs a unique object key (duplicates found)")
	}

	var features [][]float64
	var trainer *shard.Trainer
	if needsFeatures(cfg.method) {
		_, fsp := obs.StartSpan(ctx, "features")
		fv, cols, ferr := q.featureVectors(objects, strs)
		fsp.End()
		if ferr != nil {
			return nil, ferr
		}
		fsp.Set("columns", len(cols))
		features, r.featCols = fv, cols
		newClf, cerr := cfg.buildClassifier()
		if cerr != nil {
			return nil, cerr
		}
		trainer = shard.NewTrainer(newClf)
	}

	var canonOf []string // per object position; nil for plain queries
	partsOf := map[string][]string{}
	if q.grouped != nil {
		groupOf, gkeys := q.grouped.GroupLabels(objects)
		r.groupKey = gkeys
		r.canon = make([]string, len(gkeys))
		for g, kv := range gkeys {
			parts := renderKey(kv)
			c := strings.Join(parts, "\x1f")
			r.canon[g] = c
			partsOf[c] = parts
		}
		canonOf = make([]string, n)
		for i, g := range groupOf {
			canonOf[i] = r.canon[g]
		}
	}

	// Partition by key hash — stable under any enumeration order and
	// independent of the shard count's factorization.
	shardKeys := make([][]int64, count)
	shardFeats := make([][][]float64, count)
	shardGroups := make([][]string, count)
	for s := range shardKeys {
		if only >= 0 && s != only {
			continue
		}
		// Hash placement is near-uniform: one allocation per slice, not a
		// growth series per execution.
		room := n/count + n/(8*count) + 8
		shardKeys[s] = make([]int64, 0, room)
		if features != nil {
			shardFeats[s] = make([][]float64, 0, room)
		}
		if canonOf != nil {
			shardGroups[s] = make([]string, 0, room)
		}
	}
	for i, k := range keys {
		s := shard.OwnerOf(k, count)
		if only >= 0 && s != only {
			continue
		}
		shardKeys[s] = append(shardKeys[s], k)
		if features != nil {
			shardFeats[s] = append(shardFeats[s], features[i])
		}
		if canonOf != nil {
			shardGroups[s] = append(shardGroups[s], canonOf[i])
		}
	}

	if cfg.catalog != nil && n > 0 { // an empty population has nothing to reuse
		r.cat = cfg.catalog.inner
	}
	for s := 0; s < count; s++ {
		if only >= 0 && s != only {
			continue
		}
		l := &labelStore{
			labels:   make(map[int64]bool),
			keys:     keys,
			posByKey: posByKey,
			build: func(ctx context.Context) (p predicate.Predicate, lab Labeling, err error) {
				// Each worker gets its own evaluator: the interpreted engine
				// carries per-evaluation state and must not be shared across
				// the driver's concurrent scatter.
				sev := engine.NewEvaluator(q.cat)
				for name, v := range vals {
					sev.SetParam(name, v)
				}
				first := false
				r.checked.Do(func() {
					first = true
					p, lab, err = q.buildPredicate(ctx, sev, objects, vals, cfg, false)
					r.validated = err == nil && lab.Compiled
				})
				if !first {
					p, lab, err = q.buildPredicate(ctx, sev, objects, vals, cfg, r.validated)
				}
				return p, lab, err
			},
		}
		if r.cat != nil {
			key := q.catalogKey(cfg, strs, r.featCols)
			if !r.unsharded {
				key.Shard = shard.Spec{Index: s, Count: count}.String()
			}
			e := r.cat.Acquire(key)
			e.Lock()
			r.entries = append(r.entries, e)
			r.prev = append(r.prev, e.Budget)
			m := e.Labels(r.fp, r.cat.Clock())
			if r.unsharded {
				l.labels = m // close unlocks
				if e.LearnKeys != nil {
					r.design = &shard.Design{KLearn: e.KLearn, Keys: e.LearnKeys, Labels: e.LearnLabels}
				}
			} else {
				if e.Budget == 0 {
					e.Budget = 1 // mark materialized; shard entries hold only labels
				}
				for k, v := range m {
					l.labels[k] = v
				}
				e.Unlock()
				l.entry, l.entryFP, l.cat = e, r.fp, r.cat
			}
		}
		r.workers = append(r.workers, shard.NewLocal(cfg.seed, shardKeys[s], shardFeats[s], shardGroups[s], partsOf, l.label, trainer))
		r.stores = append(r.stores, l)
	}
	return r, nil
}

// shardPlan maps the resolved config onto the driver's plan.
func (cfg config) shardPlan(grouped bool, alpha float64) shard.Plan {
	return shard.Plan{
		Method:   cfg.method,
		Grouped:  grouped,
		BudgetOf: cfg.budgetFor,
		Strata:   cfg.strata,
		Seed:     cfg.seed,
		Alpha:    alpha,
		Wilson:   cfg.interval == Wilson,
		Exact:    cfg.exact,
	}
}

// drive runs the plan over the run's workers, wrapping failures the way
// every estimation path reports them.
func (r *shardRun) drive(ctx context.Context, plan shard.Plan) (*shard.Result, error) {
	plan.Design = r.design
	res, err := shard.Drive(ctx, plan, r.workers)
	var fault *engine.Fault
	switch {
	case err == nil:
		return res, nil
	case errors.Is(err, shard.ErrBudgetTooSmall):
		return nil, badf("%v", err)
	case errors.Is(err, ErrInvalid) || (ctx != nil && ctx.Err() != nil):
		return nil, err // a worker's own request or cancellation error
	case errors.As(err, &fault):
		// A predicate fault the driver's scatter recovered and named the
		// shard of: the request error recoverFault makes of it elsewhere.
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return nil, fmt.Errorf("lsample: estimation failed: %w", err)
}

// executeHashPlan runs a plain counting query through the one hash-plan
// executor: cfg.shards in-process workers under shard.Drive, or a single
// worker over the whole population when only a reuse catalog asked for the
// hash plan. It reports handled=false (and no error) when that second case
// meets a method or shape outside the contract, and Execute falls through
// to the classic path; under WithShards the same condition is a request
// error, never a silent fallback. Once inside the contract every error is
// a real request error.
//
// The determinism contract: for a fixed (pinned snapshots, query,
// parameters, method, budget, seed) the estimate is byte-identical at any
// worker count and regardless of what the catalog already holds. Reused
// state is only ever labels — the memoized ones and the design's training
// labels, from which the driver refits the classifier by the exact
// procedure a cold run executes; the one documented exception is in
// settle.
func (q *PreparedQuery) executeHashPlan(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (*Estimate, bool, error) {

	t0 := time.Now()
	name := "catalog"
	if cfg.shards > 0 {
		name = "shard.drive"
	}
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	span.Set("shards", cfg.shards)
	r, err := q.buildShardRun(ctx, cfg, vals, strs, cfg.shards, -1)
	if oc := (contractError{}); cfg.shards == 0 && errors.As(err, &oc) {
		span.Set("fallthrough", true)
		return nil, false, nil
	}
	if err != nil {
		span.Set("error", err.Error())
		return nil, true, err
	}
	defer r.close()

	out := &Estimate{
		Method:         cfg.method,
		Fingerprint:    r.fp,
		Objects:        r.n,
		Seed:           cfg.seed,
		FeatureColumns: r.featCols,
		Reuse:          ReuseNone,
	}
	if r.n == 0 {
		out.CI = &ConfidenceInterval{Level: 1 - alpha}
		if cfg.exact {
			zero := 0
			out.TrueCount = &zero
		}
		return out, true, nil
	}

	res, err := r.drive(ctx, cfg.shardPlan(false, alpha))
	if err != nil {
		span.Set("error", err.Error())
		return nil, true, err
	}
	out.Budget = res.Budget
	out.Count = res.Count
	out.Proportion = res.Proportion
	if res.HasCI {
		out.CI = &ConfidenceInterval{Lo: res.CILo, Hi: res.CIHi, Level: 1 - alpha}
	}
	if res.HasTrue {
		tc := res.TrueCount
		out.TrueCount = &tc
	}
	out.SamplesUsed = r.samplesUsed()
	// The driver counts repeat requests within this execution; hits on the
	// catalog's label space count only for the unsharded entry — per-shard
	// entries have never reported theirs.
	out.ReusedLabels = res.ReusedLabels
	if r.unsharded {
		out.ReusedLabels += r.stores[0].hits
	}
	out.Labeling = r.labeling()
	out.Reuse = r.settle(cfg.method, res)
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: r.predicateTime()}
	span.Set("reuse", out.Reuse)
	span.Set("reused_labels", out.ReusedLabels)
	span.Set("evals", out.SamplesUsed)
	return out, true, nil
}

// executeShardedGroups runs a GROUP BY counting query across cfg.shards
// in-process shards; the per-group results follow the ExecuteGroups
// ordering contract (ascending typed key order).
func (q *PreparedQuery) executeShardedGroups(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (*GroupedEstimate, error) {

	t0 := time.Now()
	r, err := q.buildShardRun(ctx, cfg, vals, strs, cfg.shards, -1)
	if err != nil {
		return nil, err
	}
	defer r.close()

	out := &GroupedEstimate{
		Method:         cfg.method,
		Fingerprint:    r.fp,
		GroupColumns:   q.GroupColumns(),
		Objects:        r.n,
		Seed:           cfg.seed,
		FeatureColumns: r.featCols,
	}
	if r.n == 0 {
		return out, nil
	}

	res, err := r.drive(ctx, cfg.shardPlan(true, alpha))
	if err != nil {
		return nil, err
	}

	byCanon := make(map[string]shard.Group, len(res.Groups))
	for _, g := range res.Groups {
		byCanon[g.Key] = g
	}
	order := make([]int, len(r.groupKey))
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(a, b int) bool { return lessKey(r.groupKey[order[a]], r.groupKey[order[b]]) })
	out.Budget = res.Budget
	out.Groups = make([]GroupResult, 0, len(order))
	for _, g := range order {
		sg, ok := byCanon[r.canon[g]]
		if !ok {
			return nil, fmt.Errorf("lsample: sharded run lost group %q", r.canon[g])
		}
		gr := GroupResult{
			Key:        sg.Parts,
			Objects:    sg.N,
			Count:      sg.Count,
			Proportion: sg.Proportion,
			Sampled:    sg.Sampled,
			Exact:      sg.Exact,
		}
		if sg.HasCI {
			gr.CI = &ConfidenceInterval{Lo: sg.CILo, Hi: sg.CIHi, Level: 1 - alpha}
		}
		if sg.HasTrue {
			tc := sg.TrueCount
			gr.TrueCount = &tc
		}
		out.Total += sg.Count
		out.Groups = append(out.Groups, gr)
	}
	out.SamplesUsed = r.samplesUsed()
	out.Labeling = r.labeling()
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: r.predicateTime()}
	return out, nil
}

// ShardExec is one shard of a query, materialized for an out-of-process
// coordinator: the shard's identity, and Op — the one entry point through
// which the coordinator's shard-op protocol reaches the shard's worker.
// Obtain one with PrepareShard; a worker process typically caches it across
// requests and Close-s it on eviction. All methods are safe for concurrent
// use.
type ShardExec struct {
	run    *shardRun
	index  int
	count  int
	closeO sync.Once
}

// PrepareShard materializes shard index of count for this query with the
// given bound parameters: the population slice owned by the shard, its
// feature rows, and a label memo (catalog-backed when the options carry
// one, under a key scoped to this exact shard layout). The options follow
// the Execute contract; the method must be srs, lss, or oracle and the
// query must have a unique integer object key.
func (q *PreparedQuery) PrepareShard(ctx context.Context, index, count int,
	params map[string]any, opts ...Option) (*ShardExec, error) {

	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= count {
		return nil, badf("shard index %d out of range of %d shards", index, count)
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	if count < 1 {
		return nil, badf("shard count %d < 1", count)
	}
	r, err := q.buildShardRun(ctx, cfg, vals, strs, count, index)
	if err != nil {
		return nil, err
	}
	return &ShardExec{run: r, index: index, count: count}, nil
}

// Shard returns the shard identity this executor serves.
func (x *ShardExec) Shard() (index, count int) { return x.index, x.count }

// Fingerprint returns the parameter-bound query fingerprint the executor
// was prepared for.
func (x *ShardExec) Fingerprint() string { return x.run.fp }

// FeatureColumns returns the automatically selected feature columns (nil
// for methods that need no features).
func (x *ShardExec) FeatureColumns() []string { return x.run.featCols }

// Close releases the executor's catalog entries. Op must not be called
// after Close.
func (x *ShardExec) Close() { x.closeO.Do(x.run.close) }

// Op runs one operation of the shard-op protocol on this shard: op names
// it, args is its JSON argument block (empty for ops that take none), and
// the result is its JSON reply block. The blocks are opaque here — the
// protocol's coordinator end produces the one and consumes the other — so a
// serving layer passes both through without decoding either. An unknown op
// or an unreadable argument block is ErrInvalid, and so is a predicate
// fault met while labeling (see Execute).
func (x *ShardExec) Op(ctx context.Context, op string, args json.RawMessage) (_ json.RawMessage, err error) {
	defer recoverFault(&err)
	reply, err := shard.Serve(ctx, x.run.workers[0], op, args)
	if errors.Is(err, shard.ErrBadOp) {
		return nil, badf("%v", err)
	}
	return reply, err
}

// EvictShardLayout drops every sharded entry whose layout disagrees with
// the given shard count, keeping unsharded entries. A reshard changes
// every entry key anyway (the Shard component embeds the layout), so old
// entries could never be wrongly reused — this reclaims their bytes
// promptly instead of waiting for LFU pressure.
func (c *Catalog) EvictShardLayout(count int) int {
	suffix := fmt.Sprintf("/%d", count)
	return c.inner.Invalidate(func(k catalog.Key) bool {
		return k.Shard != "" && !strings.HasSuffix(k.Shard, suffix)
	})
}
