package lsample

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
// An execution is two halves: shardData, everything no seed can change, and
// shardRun, one seed's execution over it. The prepared query keeps the
// first half resident (residents, at most maxResident per query), so a
// repeated count over the same parameters and layout enumerates, partitions
// and cross-checks nothing again; every Execute, and every Op of a
// ShardExec handle, is a shardRun over it.

// labelStore answers one execution's label queries on one worker: a
// per-key memo in front of the predicate every worker and run of the
// executor shares — an execution whose every sampled label is already
// memoized never constructs it at all. Labels are pure functions of
// (snapshot, key, predicate), so a memo hit is byte-identical to a fresh
// evaluation; misses are evaluated in ascending object order through the
// predicate's batch path, byte-identical at any parallelism. The memo is a catalog entry's label space, which
// every execution on that worker shares and the store locks only to read
// and to write back, a LiveQuery's label memo, or without a catalog one
// run's own map: labels outlive a count only in a catalog.
//
// A count space (counts non-nil) memoizes group-size bounds instead of
// labels: a key is answered when its bound settles rule's threshold, and
// only the rest are evaluated, through the compiled predicate's
// count-reporting batch path. A predicate that cannot count (the
// interpreter a failed cross-check fell back to) labels into the
// predicate's one-bit space, which bits fetches under the lock.
type labelStore struct {
	lock     sync.Locker // guards the memo and the counters: the catalog entry or the run's map the labels live in
	labels   map[int64]bool
	counts   map[int64]countBound
	rule     countRule
	bits     func() map[int64]bool
	keys     []int64 // global keys by object position
	posByKey map[int64]int
	pred     func(context.Context) (predicate.Predicate, error)
	fresh    int           // predicate evaluations spent
	hits     int           // label requests the memo answered
	dur      time.Duration // wall time spent labeling through the predicate
}

// label returns labels for the given distinct keys and how many of them
// cost a fresh predicate evaluation. The lock is not held while the
// predicate runs: two executions missing the same key both evaluate it,
// which is harmless — labels are pure — and far cheaper than serializing
// every seed on a shard behind one evaluation.
func (l *labelStore) label(ctx context.Context, sel []int64) ([]bool, int, error) {
	var missing []int
	l.lock.Lock()
	for _, k := range sel {
		if _, ok := l.memo(k); !ok {
			missing = append(missing, l.posByKey[k])
		}
	}
	l.lock.Unlock()
	var fresh []bool
	var counts []predicate.Count
	if len(missing) > 0 {
		pred, err := l.pred(ctx)
		if err != nil {
			return nil, 0, err
		}
		slices.Sort(missing)
		missing = slices.Compact(missing)
		t0 := time.Now()
		if cp, ok := pred.(predicate.Counter); ok && l.counts != nil {
			counts, err = predicate.CountAll(cp, missing, canceled(ctx, "labeling"))
		} else {
			fresh, err = predicate.Label(pred, missing, canceled(ctx, "labeling"))
		}
		dur := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		l.dur += dur
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if fresh != nil && l.labels == nil {
		l.labels = l.bits()
	}
	for j, p := range missing {
		k := l.keys[p]
		if fresh != nil {
			l.labels[k] = fresh[j]
			continue
		}
		b := boundOf(counts[j])
		if old, ok := l.counts[k]; ok {
			b = b.meet(old)
		}
		l.counts[k] = b
	}
	l.fresh += len(missing)
	l.hits += len(sel) - len(missing)
	out := make([]bool, len(sel))
	for j, k := range sel {
		out[j], _ = l.memo(k)
	}
	return out, len(missing), nil
}

// memo is the memoized label of key k, if any: its count bound's, when that
// settles the rule, else its one-bit label. Callers hold the lock.
func (l *labelStore) memo(k int64) (label, ok bool) {
	if b, found := l.counts[k]; found {
		if label, ok = b.label(l.rule); ok {
			return label, true
		}
	}
	label, ok = l.labels[k]
	return label, ok
}

// shardData is the seed-independent half of a hash-plan execution: the
// enumerated population, partitioned into per-shard workers, and the
// predicate they share. Everything here is a pure function of its
// residentKey, so it may serve any number of executions, of any seed and
// budget, at once.
type shardData struct {
	*population // indexed: label stores address objects by global key
	key         residentKey
	snapIDs     map[string]uint64 // the snapshot ids its catalog entries are stamped with

	shards []*shardWorker // the shards this process holds, in index order

	// The predicate is a function of exactly what this half is a function
	// of: the first labeling call to miss builds it, paying the
	// interpreter's cross-check, while the others wait on predMu; every
	// run, worker and Op over the half then shares it. A failed build is
	// not kept.
	build    func(ctx context.Context) (predicate.Predicate, Labeling, error)
	predMu   sync.Mutex
	pred     predicate.Predicate
	lab      Labeling    // what the build reported
	fellBack atomic.Bool // the build fell back to the interpreter

	// count is the threshold a compiled HAVING COUNT(*) <op> p compares with
	// (see countSpace), and countFP the fingerprint without it that keys the
	// catalog's count space; countFP is "" for every other predicate.
	count   countRule
	countFP string
}

// shardWorker is one shard of a shardData: its slice of the population as
// a seedless shard.Local and the seed-free identity of its catalog entry.
type shardWorker struct {
	local *shard.Local
	key   catalogKey
}

// loadPredicate returns the half's predicate, building it on first use.
func (d *shardData) loadPredicate(ctx context.Context) (predicate.Predicate, error) {
	d.predMu.Lock()
	defer d.predMu.Unlock()
	if d.pred == nil {
		pred, lab, err := d.build(ctx)
		if err != nil {
			return nil, err
		}
		d.pred, d.lab = pred, lab
		d.fellBack.Store(!lab.Compiled)
	}
	return d.pred, nil
}

// shardRun is one hash-plan execution over a shardData: the seed (inside
// its workers), a label store per worker, and the catalog entries it holds.
type shardRun struct {
	*shardData
	workers []shard.Worker
	stores  []*labelStore
	cat     *Catalog // nil without a catalog (or over an empty population)
	entries []*catalogEntry
	prev    []bool // whether each entry was materialized at acquire time
}

// close releases catalog entries with their reuse classification.
func (r *shardRun) close() {
	for i, e := range r.entries {
		r.cat.release(e, r.shardReuse(i, i+1))
	}
	r.entries = nil
}

// shardReuse classifies what entries [from, to) did for this execution: none
// when one that was asked for a label had never been asked before,
// extension when some label was fresh, direct when the memo answered every
// one, "" when none was asked (a worker op that labels nothing reuses
// nothing).
func (r *shardRun) shardReuse(from, to int) string {
	reuse := ""
	for i := from; i < to; i++ {
		switch l := r.stores[i]; {
		case l.fresh+l.hits == 0:
		case !r.prev[i]:
			return ReuseNone
		case l.fresh > 0:
			reuse = ReuseExtension
		case reuse == "":
			reuse = ReuseDirect
		}
	}
	return reuse
}

// labeling reports which predicate path the run took: every worker labels
// through the half's one predicate. A run the memo answered in full
// labeled through none.
func (r *shardRun) labeling() Labeling {
	if fresh, _, _ := r.spent(); fresh > 0 {
		return r.lab
	}
	return Labeling{}
}

// spent sums the workers' label stores: fresh predicate evaluations, label
// requests their memos answered, and wall time inside the predicate.
func (r *shardRun) spent() (fresh int64, hits int, dur time.Duration) {
	for _, l := range r.stores {
		fresh += int64(l.fresh)
		hits += l.hits
		dur += l.dur
	}
	return fresh, hits, dur
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

// residentKey is everything buildShardData reads: the parameter-bound
// fingerprint, the layout, whether the method reads features, and the two
// knobs a predicate is built with. Seed, budget, catalog and classifier
// belong to the run.
type residentKey struct {
	fp          string
	count, only int
	features    bool
	parallelism int
	noCompile   bool
}

// resident returns the seed-independent half over count shards (only: see
// buildShardData) and whether it was resident, building it outside the
// lock on a miss. A failed build is not kept; of two racing misses the
// first build kept wins. A method outside the contract is rejected first:
// srs and oracle share entries, no other may.
func (q *PreparedQuery) resident(ctx context.Context, cfg config, vals map[string]engine.Value,
	strs map[string]string, count, only int) (*shardData, bool, error) {

	if !slices.Contains(GroupMethods(), cfg.method) {
		return nil, false, outOfContract("method %q cannot run the hash plan (want one of %v)", cfg.method, GroupMethods())
	}
	key := residentKey{fp: sql.Fingerprint(q.shape, strs), count: count, only: only,
		features: needsFeatures(cfg.method), parallelism: cfg.parallelism, noCompile: cfg.noCompile}
	if d := q.findResident(key, nil); d != nil {
		return d, true, nil
	}
	d, err := q.buildShardData(ctx, key, vals, strs)
	if err != nil {
		return nil, false, err
	}
	return q.findResident(key, d), false, nil
}

// findResident moves key's entry to the front of the LRU and returns it;
// absent, it inserts a non-nil add in front, evicting the least recently
// used over maxResident.
func (q *PreparedQuery) findResident(key residentKey, add *shardData) *shardData {
	q.resMu.Lock()
	defer q.resMu.Unlock()
	for i, d := range q.residents {
		if d.key == key {
			copy(q.residents[1:i+1], q.residents[:i])
			q.residents[0] = d
			return d
		}
	}
	if add != nil {
		if len(q.residents) < maxResident {
			q.residents = append(q.residents, nil)
		}
		copy(q.residents[1:], q.residents)
		q.residents[0] = add
	}
	return add
}

// buildShardData validates the hash-plan contract, takes the query's
// population, partitions it into k.count hash-aligned shards, and
// constructs the per-shard workers. count 0 is one worker over the whole
// population, its catalog key's Shard empty. only (when >= 0) restricts
// construction to that single shard — the out-of-process worker path,
// which still enumerates the full population (cheap Q2) but materializes
// just its own slice.
func (q *PreparedQuery) buildShardData(ctx context.Context, k residentKey, vals map[string]engine.Value,
	strs map[string]string) (*shardData, error) {

	if _, err := q.objectKeyColumn(); err != nil {
		return nil, outOfContract("hash-plan execution needs a unique integer object key: %v", err)
	}
	d := &shardData{key: k}
	count, only := k.count, k.only
	unsharded := count == 0
	if unsharded {
		count = 1
	}

	p, err := q.populate(ctx, k.features, vals, strs)
	if err != nil {
		return nil, err
	}
	if p.index(q.keyPos()) != nil {
		return nil, outOfContract("hash-plan execution needs an integer object key")
	}
	if len(p.posByKey) != p.n {
		// Duplicate keys would alias label memo slots.
		return nil, outOfContract("hash-plan execution needs a unique object key (duplicates found)")
	}
	d.population = p
	n, keys, features := p.n, p.keys, p.features

	var canonOf []string // per object position; nil for plain queries
	partsOf := map[string][]string{}
	if q.grouped != nil {
		canon := make([]string, len(p.groupKey))
		for g, kv := range p.groupKey {
			parts := renderKey(kv)
			canon[g] = strings.Join(parts, "\x1f")
			partsOf[canon[g]] = parts
		}
		canonOf = make([]string, n)
		for i, g := range p.groupOf {
			canonOf[i] = canon[g]
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
	// Partitioned into the workers: resident data keeps no second,
	// whole-population copy of either.
	p.features, p.groupOf = nil, nil

	pcfg := config{parallelism: k.parallelism, noCompile: k.noCompile} // all a predicate build reads
	d.build = func(ctx context.Context) (predicate.Predicate, Labeling, error) {
		return q.buildPredicate(ctx, newEvaluator(q.cat, vals), p.objects, vals, pcfg)
	}
	if !k.noCompile {
		d.count, d.countFP = q.countSpace(vals, strs)
	}
	key, snapIDs := q.catalogKey(strs, d.featCols)
	d.snapIDs = snapIDs
	for s := 0; s < count; s++ {
		if only >= 0 && s != only {
			continue
		}
		w := &shardWorker{
			local: shard.NewLocal(0, shardKeys[s], shardFeats[s], shardGroups[s], partsOf, nil, nil),
			key:   key,
		}
		if !unsharded {
			w.key.shard = shard.Spec{Index: s, Count: count}.String()
		}
		d.shards = append(d.shards, w)
	}
	return d, nil
}

// newRun starts one execution over d under cfg's seed, classifier and
// catalog: a label store and a seeded worker per materialized shard, the
// catalog entries their labels live in (or a map of the run's own), and one
// Trainer its shards share, so concurrent runs never wait on each other's fit.
func (d *shardData) newRun(cfg config) (*shardRun, error) {
	r := &shardRun{shardData: d}
	if cfg.catalog != nil && d.n > 0 { // an empty population has nothing to reuse
		r.cat = cfg.catalog
	}
	var trainer *shard.Trainer
	if needsFeatures(cfg.method) {
		newClf, err := cfg.buildClassifier()
		if err != nil {
			return nil, err
		}
		trainer = shard.NewTrainer(newClf)
	}
	// A predicate whose build fell back to the interpreter cannot count, so
	// its runs label into the one-bit space from the start.
	counted := d.countFP != "" && !d.fellBack.Load()
	for _, w := range d.shards {
		l := &labelStore{keys: d.keys, posByKey: d.posByKey, pred: d.loadPredicate}
		if r.cat != nil {
			fp := d.key.fp
			if counted {
				fp = d.countFP
			}
			e, sp, prev := r.cat.acquire(w.key, d.snapIDs, fp, counted)
			r.entries, r.prev = append(r.entries, e), append(r.prev, prev)
			l.lock, l.labels, l.counts, l.rule = e, sp.labels, sp.counts, d.count
			l.bits = func() map[int64]bool { return e.space(d.key.fp, false, sp.last).labels }
		} else {
			l.lock, l.labels = new(sync.Mutex), make(map[int64]bool)
		}
		r.workers = append(r.workers, w.local.WithSeed(cfg.seed, l.label, trainer))
		r.stores = append(r.stores, l)
	}
	return r, nil
}

// shardPlan maps the resolved config onto the driver's plan.
func (cfg config) shardPlan(grouped bool) shard.Plan {
	return shard.Plan{
		Method:   cfg.method,
		Grouped:  grouped,
		BudgetOf: cfg.budgetFor,
		Strata:   cfg.strata,
		Seed:     cfg.seed,
		Wilson:   cfg.interval == Wilson,
		Exact:    cfg.exact,
	}
}

// drive runs the plan over the run's workers, wrapping failures the way
// every estimation path reports them.
func (r *shardRun) drive(ctx context.Context, plan shard.Plan) (*shard.Result, error) {
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

// startRun begins an in-process hash-plan execution: the resident data for
// cfg.shards workers (one when no WithShards asked) and a run of cfg over
// it. The enclosing hash-plan span learns whether the data was resident; on
// a miss the enumerate and features spans open under it.
func (q *PreparedQuery) startRun(ctx context.Context, cfg config, vals map[string]engine.Value,
	strs map[string]string) (*shardRun, error) {

	d, resident, err := q.resident(ctx, cfg, vals, strs, cfg.shards, -1)
	if err != nil {
		return nil, err
	}
	obs.FromContext(ctx).Set("resident", resident)
	return d.newRun(cfg)
}

// executeHashPlan runs a plain counting query through the one hash-plan
// executor: cfg.shards in-process workers under shard.Drive, or a single
// worker over the whole population when only a reuse catalog asked for the
// hash plan. It reports handled=false (and no error) when that second case
// meets a method or shape outside the contract, and Execute falls through
// to the classic path; under WithShards the same condition is a request
// error, never a silent fallback. For a fixed request the estimate is
// byte-identical at any worker count and whatever the catalog already holds
// (the package documentation's "Cross-query reuse catalog" has the
// contract): reused state is only ever labels.
func (q *PreparedQuery) executeHashPlan(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string) (*Estimate, bool, error) {

	t0 := time.Now()
	name := "catalog"
	if cfg.shards > 0 {
		name = "shard.drive"
	}
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	span.Set("shards", cfg.shards)
	r, err := q.startRun(ctx, cfg, vals, strs)
	if oc := (contractError{}); cfg.shards == 0 && errors.As(err, &oc) {
		span.Set("fallthrough", true)
		return nil, false, nil
	}
	if err != nil {
		span.Set("error", err.Error())
		return nil, true, err
	}
	defer r.close()

	out := cfg.header(r.key.fp, r.n)
	out.FeatureColumns, out.Reuse = r.featCols, ReuseNone
	if r.n == 0 {
		return out.answerEmpty(cfg), true, nil
	}

	res, err := r.drive(ctx, cfg.shardPlan(false))
	if err != nil {
		span.Set("error", err.Error())
		return nil, true, err
	}
	out.Budget = res.Budget
	out.Count = res.Count
	out.Proportion = res.Proportion
	if res.HasCI {
		out.CI = &ConfidenceInterval{Lo: res.CILo, Hi: res.CIHi, Level: 1 - core.Alpha}
	}
	if res.HasTrue {
		tc := res.TrueCount
		out.TrueCount = &tc
	}
	fresh, hits, dur := r.spent()
	out.SamplesUsed = fresh
	// The driver counts repeat requests within this execution, the stores
	// the requests their memos answered.
	out.ReusedLabels = res.ReusedLabels + hits
	out.Labeling = r.labeling()
	out.Reuse = cmp.Or(r.shardReuse(0, len(r.entries)), ReuseNone)
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: dur}
	span.Set("reuse", out.Reuse)
	span.Set("reused_labels", out.ReusedLabels)
	span.Set("evals", out.SamplesUsed)
	return out, true, nil
}

// executeShardedGroups runs a GROUP BY counting query across cfg.shards
// in-process shards; the per-group results follow the ExecuteGroups
// ordering contract (ascending typed key order).
func (q *PreparedQuery) executeShardedGroups(ctx context.Context, cfg config,
	vals map[string]engine.Value, strs map[string]string) (*GroupedEstimate, error) {

	t0 := time.Now()
	r, err := q.startRun(ctx, cfg, vals, strs)
	if err != nil {
		return nil, err
	}
	defer r.close()

	out := q.groupedHeader(cfg, r.key.fp, r.population)
	if r.n == 0 {
		return out, nil
	}
	res, err := r.drive(ctx, cfg.shardPlan(true))
	if err != nil {
		return nil, err
	}
	out.Budget = res.Budget
	out.readOut(res.Groups)
	out.SamplesUsed, _, out.Timings.Predicate = r.spent()
	out.Labeling = r.labeling()
	out.Timings.Sample = time.Since(t0)
	return out, nil
}

// ShardExec is one shard of a query, materialized for an out-of-process
// coordinator: the shard's identity, and Op — the one entry point through
// which the coordinator's shard-op protocol reaches the shard's worker. It
// is a per-call handle: the executor itself — the shard's slice of the
// population, its features, and the predicate every Op labels through —
// stays resident on the prepared query, which hands the same one to
// every PrepareShard of its (parameters, shard, method, labeling knobs),
// whatever the seed or budget. The handle carries its call's options (the
// catalog among them); each Op brings its seed. It holds no catalog entry
// between ops and needs no closing. All methods are safe for concurrent
// use.
type ShardExec struct {
	data  *shardData
	cfg   config // the call's options; each Op supplies the seed
	index int
	count int
}

// PrepareShard returns a handle on shard index of count for this query with
// the given bound parameters: the population slice owned by the shard, its
// feature rows, and its predicate, which the first Op to miss a label
// cross-checks against the interpreter once for as long as the executor
// stays resident. The options follow the Execute contract; the method must
// be srs, lss, or oracle and the query must have a unique integer object
// key. With a catalog attached, labels are memoized in an entry scoped to
// this exact shard layout and keyed by nothing a label does not depend on;
// without one, each Op labels into a map of its own. A handle has no seed —
// every Op brings its own — so an option that sets one is rejected rather
// than ignored.
func (q *PreparedQuery) PrepareShard(ctx context.Context, index, count int,
	params map[string]any, opts ...Option) (*ShardExec, error) {

	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	if cfg.seed != q.cfg.seed {
		return nil, badf("PrepareShard takes no seed (got %d): pass it to each Op", cfg.seed)
	}
	if index < 0 || index >= count {
		return nil, badf("shard index %d out of range of %d shards", index, count)
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	d, _, err := q.resident(ctx, cfg, vals, strs, count, index)
	if err != nil {
		return nil, err
	}
	return &ShardExec{data: d, cfg: cfg, index: index, count: count}, nil
}

// Shard returns the shard identity this executor serves.
func (x *ShardExec) Shard() (index, count int) { return x.index, x.count }

// Fingerprint returns the parameter-bound query fingerprint the executor
// was prepared for.
func (x *ShardExec) Fingerprint() string { return x.data.key.fp }

// FeatureColumns returns the automatically selected feature columns (nil
// for methods that need no features).
func (x *ShardExec) FeatureColumns() []string { return x.data.featCols }

// Op runs one operation of the shard-op protocol on this shard under the
// given plan seed: op names it, args is its encoded argument block
// (internal/shard's AppendArgs), and the result is its encoded reply block.
// The blocks are opaque here — the protocol's coordinator end produces the
// one and consumes the other — so a serving layer passes both through
// without decoding either. The seed only decides which keys the cands op
// selects; labels, features and scores are facts about the shard, so ops of
// different seeds share every label any of them bought. An unknown op or an
// unreadable argument block is ErrInvalid, and so is a predicate fault met
// while labeling (see Execute).
func (x *ShardExec) Op(ctx context.Context, seed uint64, op string, args []byte) (_ []byte, err error) {
	defer recoverFault(&err)
	cfg := x.cfg
	cfg.seed = seed
	r, err := x.data.newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	reply, err := shard.Serve(ctx, r.workers[0], op, args)
	if errors.Is(err, shard.ErrBadOp) {
		return nil, badf("%v", err)
	}
	return reply, err
}
