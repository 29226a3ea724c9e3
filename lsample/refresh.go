package lsample

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estimate"
	"repro/internal/learn"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/qcompile"
	"repro/internal/shard"
	"repro/internal/sql"
)

// PrepareLive reads a counting query as Prepare does, for incremental
// re-estimation over changing data: instead of binding a fixed snapshot it
// returns a LiveQuery whose Refresh pins the newest published snapshots on
// every call and re-estimates at a price proportional to the delta, not the
// table. Grouped (GROUP BY counting) queries are not supported live; the
// object key must be a unique integer column (the feature path's
// restriction, checked here up front).
func (s *Session) PrepareLive(sqlText string, opts ...Option) (*LiveQuery, error) {
	cfg, err := newConfig(s.base, opts)
	if err != nil {
		return nil, err
	}
	a, err := analyze(sqlText)
	if err != nil {
		return nil, err
	}
	if a.grouped != nil {
		return nil, badf("GROUP BY counting queries are not supported by PrepareLive")
	}
	if len(a.dec.GroupCols) != 1 {
		return nil, badf("live queries must GROUP BY a single key column; got %d", len(a.dec.GroupCols))
	}
	// Pin one catalog now for schema-dependent analysis (schemas are fixed
	// for a table's lifetime even when its rows are not).
	cat, _, err := a.pin(s.src)
	if err != nil {
		return nil, err
	}
	objName := a.dec.Objects.From[0].Name
	keyCol, kind, err := a.keyColumn(cat[objName])
	if err != nil {
		return nil, err
	}
	if kind != dataset.Int {
		return nil, badf("live queries require an integer object key; %q.%q is %s", objName, keyCol, kind)
	}
	return &LiveQuery{
		analysis:  *a,
		sess:      s,
		text:      sqlText,
		cfg:       cfg,
		objName:   objName,
		keyCol:    keyCol,
		corrCols:  analyzeCorrelation(a.dec, cat),
		aliasTabs: q3AliasTables(a.dec),
	}, nil
}

// LiveQuery is a counting query maintained across data changes: Refresh
// pins the newest snapshots of every referenced table and re-estimates,
// reusing everything the delta provably did not touch — memoized labels,
// classifier and strata, hash indexes, feature matrices. Refresh calls are
// serialized per LiveQuery; concurrent callers simply queue.
//
// See the package documentation ("Live data and refresh") for the exact
// label-reuse contract.
type LiveQuery struct {
	analysis  // what the query's text decided (analysis.go)
	sess      *Session
	text      string
	cfg       config
	objName   string
	keyCol    string
	corrCols  map[string][]int // Q3 table → correlated column per alias (nil entry list impossible; absent = uncorrelated)
	aliasTabs map[string]bool  // tables bound by Q3 FROM aliases

	mu sync.Mutex
	st *refreshState
}

// refreshState is everything a LiveQuery carries between refreshes.
type refreshState struct {
	sig   string            // (query, param values) identity the memo is valid for
	snaps map[string]*Table // snapshots pinned by the previous refresh

	prog     *qcompile.Program
	progErr  string
	progRows map[string]int // rows per table when prog's indexes were built

	featCols []string
	keyIdx   map[int64]int // object-table key → row
	feats    [][]float64   // per object-table row, aligned with keyIdx
	ltabSnap *Table

	clf        learn.Classifier
	cutScores  []float64
	scores     map[int64]float64
	labels     map[int64]bool
	trainKeys  map[int64]bool
	trainEpoch uint64
	trainDirty int // train-sample keys invalidated since the last training

	// validated reports that the current program already passed the
	// interpreter cross-check (whose interpreted reference evaluation costs
	// a full join scan); later refreshes of the same program skip it.
	validated bool
}

func newRefreshState(sig string) *refreshState {
	return &refreshState{
		sig:      sig,
		progRows: make(map[string]int),
		scores:   make(map[int64]float64),
		labels:   make(map[int64]bool),
	}
}

// SQL returns the query text as prepared.
func (q *LiveQuery) SQL() string { return q.text }

// Tables returns the names of all tables the query references, sorted.
func (q *LiveQuery) Tables() []string { return q.tables() }

// RefreshEstimate is the outcome of one Refresh: a regular Estimate plus
// the delta accounting that makes the incremental price visible.
// SamplesUsed counts only the predicate evaluations this refresh actually
// spent (the fresh labels); ReusedLabels counts sample members answered
// from the label memo.
type RefreshEstimate struct {
	// Estimate is the regular estimation result (count, CI, budget,
	// fingerprint, labeling path, timings).
	Estimate
	// Versions records the pinned version of every live table the refresh
	// ran against (static tables are omitted).
	Versions map[string]uint64
	// DeltaRows is the number of rows identified as appended since the
	// previous refresh across all referenced tables.
	DeltaRows int
	// Retrained reports that this refresh retrained the classifier and
	// redesigned the strata (always true on the first refresh of a
	// learned method).
	Retrained bool
	// InvalidatedAll reports that the delta could not be attributed to
	// specific objects (an update/delete compaction, or a change to an
	// inner table that is not key-correlated), so every memoized label was
	// discarded and this refresh was priced like a cold estimate.
	InvalidatedAll bool
}

// Refresh pins the newest snapshots and re-estimates the count. Options
// apply to this call only; changing parameter values (which change the
// predicate) resets the label memo and learned state. The estimate is a
// deterministic function of (pinned snapshots, seed, options, classifier
// epoch): a WithRelabel(true) call on the same state returns the
// byte-identical estimate while paying full labeling price, which is the
// cold baseline refresh is measured against.
func (q *LiveQuery) Refresh(ctx context.Context, params map[string]any, opts ...Option) (_ *RefreshEstimate, err error) {
	defer recoverFault(&err)
	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	switch cfg.method {
	case "srs", "lss", "oracle":
	default:
		return nil, badf("method %q does not support live refresh (want srs, lss, or oracle)", cfg.method)
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "refresh")
	defer span.End()
	span.Set("method", cfg.method)
	q.mu.Lock()
	defer q.mu.Unlock()

	t0 := time.Now()
	out := &RefreshEstimate{Versions: make(map[string]uint64)}
	fp := sql.Fingerprint(q.shape, strs)

	// 1. Pin the newest snapshot of every referenced table.
	cat, snaps, err := q.pin(q.sess.src)
	if err != nil {
		return nil, err
	}
	for name, t := range snaps {
		if t.live != nil {
			out.Versions[name] = t.live.snap.Version
		}
	}

	// 2. Delta analysis against the previous refresh.
	st := q.st
	if st != nil && st.sig != fp {
		st = nil // different query/parameter identity: memoized labels do not apply
	}
	invalidateAll := false
	var affected []int64
	if st == nil {
		st = newRefreshState(fp)
		q.st = st
	} else {
		for _, name := range q.names {
			prev, cur := st.snaps[name], snaps[name]
			switch snapshotChange(prev, cur) {
			case snapUnchanged:
			case snapAppended:
				out.DeltaRows += cur.live.snap.Rows - prev.live.snap.Rows
				if q.aliasTabs[name] {
					cols, ok := q.corrCols[name]
					if !ok {
						// The predicate joins this table without pinning it
						// to the object key: any new row may flip any label.
						invalidateAll = true
						continue
					}
					for _, c := range cols {
						ints := cur.tab.IntsAt(c)
						affected = append(affected, ints[prev.live.snap.Rows:cur.live.snap.Rows]...)
					}
				}
			default: // replaced, compacted, or otherwise untraceable
				invalidateAll = true
			}
		}
	}
	if invalidateAll {
		// Everything learned about the old rows goes; the pins, the feature
		// choice and the training epoch (it seeds the next fit) stay.
		fresh := newRefreshState(fp)
		fresh.snaps, fresh.featCols, fresh.trainEpoch = st.snaps, st.featCols, st.trainEpoch
		*st = *fresh
		out.InvalidatedAll = true
	} else {
		for _, k := range affected {
			if _, ok := st.labels[k]; ok {
				delete(st.labels, k)
				if st.trainKeys[k] {
					st.trainDirty++
				}
			}
		}
	}

	// 3. Compiled-predicate maintenance: patch hash indexes with the delta
	// rows, or recompile from scratch when patching is not possible.
	q.maintainProgram(st, cat, snaps)

	// 4. The population: Q2 over the pinned catalog, addressed by key.
	p, err := q.enumerate(cat, vals)
	if err != nil {
		return nil, err
	}
	n := p.n
	out.Estimate = *cfg.header(fp, n)
	if n == 0 {
		st.snaps = snaps
		out.answerEmpty(cfg)
		return out, nil
	}
	if err := p.index(q.keyPos()); err != nil {
		return nil, err
	}

	// 5. Feature/key-index maintenance over the object table.
	if needsFeatures(cfg.method) {
		if err := q.maintainFeatures(st, snaps[q.objName], strs); err != nil {
			return nil, err
		}
		if err := p.attach(st.keyIdx, st.feats, st.featCols, q.objName); err != nil {
			return nil, err
		}
		out.FeatureColumns = st.featCols
	}

	// 6. Build the expensive predicate for this refresh: compiled when the
	// maintained program allows, interpreted otherwise. The interpreter
	// cross-check (one full interpreted join scan) runs once per compiled
	// program; subsequent refreshes of an already-validated program bind
	// the compiled path directly.
	basePred, labeling, err := buildEnginePredicate(p.ev, q.dec, p.objects, st.prog, st.progErr, vals, cfg, st.validated)
	if err != nil {
		return nil, err
	}
	if labeling.Compiled {
		// Only set, never clear: a refresh that fell back for a reason of
		// its own (a parameter that does not bind) must not make the next
		// compiled refresh re-pay an already-passed cross-check.
		st.validated = true
	}
	out.Labeling = labeling

	// A refresh labels from one goroutine, so its one predicate is always free.
	memo := &labelStore{lock: new(sync.Mutex), labels: st.labels, keys: p.keys, posByKey: p.posByKey, relabel: cfg.relabel,
		preds: &predPool{free: []predicate.Predicate{basePred}}}
	label := func(sel []int64) ([]bool, error) {
		labels, _, err := memo.label(ctx, sel)
		return labels, err
	}
	budget := cfg.budgetFor(n)
	out.Budget = budget

	// 7. Estimate by method, through the recipe steps shard.Drive runs.
	var res estimate.Result
	switch cfg.method {
	case "oracle":
		labels, err := label(p.keys)
		if err != nil {
			return nil, err
		}
		c := estimate.Positives(labels)
		res.Count, res.CI.Lo, res.CI.Hi = float64(c), float64(c), float64(c)
		out.TrueCount = &c

	case "srs":
		sel := shard.BottomK(p.keys, budget, cfg.seed, shard.TagSample)
		labels, err := label(sel)
		if err != nil {
			return nil, err
		}
		res = estimate.SRS(estimate.Positives(labels), len(sel), n, core.Alpha, cfg.interval == Wilson)

	case "lss":
		if res, err = q.refreshLSS(cfg, span, st, label, p, budget, out); err != nil {
			return nil, err
		}
	}
	if cfg.exact && out.TrueCount == nil {
		// The exact pass labels every object into the memo, like the
		// catalog path's; the oracle's count already is one.
		labels, err := label(p.keys)
		if err != nil {
			return nil, err
		}
		c := estimate.Positives(labels)
		out.TrueCount = &c
	}
	out.Count = res.Count
	out.CI = &ConfidenceInterval{Lo: res.CI.Lo, Hi: res.CI.Hi, Level: 1 - core.Alpha}

	out.Proportion = out.Count / float64(n)
	out.SamplesUsed = basePred.Evals()
	out.ReusedLabels = memo.hits
	out.Timings = PhaseTimings{Sample: time.Since(t0), Predicate: memo.dur}
	st.snaps = snaps
	span.Set("objects", n)
	span.Set("delta_rows", out.DeltaRows)
	span.Set("invalidated_all", out.InvalidatedAll)
	span.Set("retrained", out.Retrained)
	span.Set("fresh_labels", out.SamplesUsed)
	span.Set("memoized_labels", out.ReusedLabels)
	return out, nil
}

// churnThreshold is the refresh's retraining policy: the classifier and
// strata are retrained when the share of the learn sample that is new or
// invalidated since the last training exceeds it.
const churnThreshold = 0.1

// refreshLSS runs the learned stratified refresh with the recipe steps of
// internal/shard, keeping only refresh's own policy: the classifier is
// retrained when learn-sample churn crosses the threshold (seeded by the
// training epoch, not the learn size), objects are scored once per epoch,
// strata stay fixed between retrains, and each stratum samples under its
// own tag — so sample membership, and with it the label bill, moves only
// where the data moved. A retrain puts the fit's cost (train_rows, fit_ms,
// trees, nodes) on the refresh span, and any scoring its own (scored,
// score_ms, and the forest's scoring path as scorePathAttrs names it).
func (q *LiveQuery) refreshLSS(cfg config, span *obs.Span, st *refreshState, label func([]int64) ([]bool, error),
	p *population, budget int, out *RefreshEstimate) (estimate.Result, error) {

	kLearn, err := shard.LearnSize(budget)
	if err != nil {
		return estimate.Result{}, badf("%v", err)
	}
	learnSel := shard.BottomK(p.keys, kLearn, cfg.seed, shard.TagLearn)
	learnLabels, err := label(learnSel)
	if err != nil {
		return estimate.Result{}, err
	}

	// Churn-threshold retraining policy: retrain when the learn sample has
	// drifted (new members, or members whose labels the delta invalidated)
	// past the threshold since the classifier was last fit.
	churn := st.trainDirty
	for _, k := range learnSel {
		if !st.trainKeys[k] {
			churn++
		}
	}
	retrain := st.clf == nil || float64(churn) > churnThreshold*float64(len(learnSel))
	if retrain {
		newClf, err := cfg.buildClassifier()
		if err != nil {
			return estimate.Result{}, err
		}
		X := make([][]float64, len(learnSel))
		for j, k := range learnSel {
			X[j] = p.features[p.posByKey[k]]
		}
		st.trainEpoch++
		clf := newClf(live.Mix64(cfg.seed, shard.TagTrain, st.trainEpoch))
		tFit := time.Now()
		if err := clf.Fit(X, learnLabels); err != nil {
			return estimate.Result{}, fmt.Errorf("lsample: training refresh classifier: %w", err)
		}
		span.Set("train_rows", len(X))
		span.Set("fit_ms", durMS(time.Since(tFit)))
		if trees, nodes := learn.ForestSize(clf); trees > 0 {
			span.Set("trees", trees)
			span.Set("nodes", nodes)
		}
		st.clf = clf
		st.trainKeys = make(map[int64]bool, len(learnSel))
		for _, k := range learnSel {
			st.trainKeys[k] = true
		}
		st.trainDirty = 0
		st.scores = make(map[int64]float64, p.n)
		out.Retrained = true
	}

	// Score maintenance: only keys without a score for the current
	// classifier epoch are scored (all of them right after a retrain, just
	// the delta's new objects otherwise).
	var missKeys []int64
	var missX [][]float64
	for i, k := range p.keys {
		if _, ok := st.scores[k]; !ok {
			missKeys = append(missKeys, k)
			missX = append(missX, p.features[i])
		}
	}
	if len(missKeys) > 0 {
		tScore := time.Now()
		scored := learn.ScoreAll(st.clf, missX)
		span.Set("scored", len(missKeys))
		span.Set("score_ms", durMS(time.Since(tScore)))
		scorePathAttrs(learn.ForestScorePath(st.clf), span.Set)
		for j, k := range missKeys {
			st.scores[k] = scored[j]
		}
	}
	if retrain {
		// Strata are designed at training time and stay fixed until the
		// next retrain.
		scores := make([]float64, p.n)
		for i, k := range p.keys {
			scores[i] = st.scores[k]
		}
		st.cutScores = shard.EqualCountCuts(scores, core.StrataCount(cfg.strata))
	}

	members := make([][]int64, len(st.cutScores)+1)
	for _, k := range p.keys {
		h := shard.StratumOf(st.cutScores, st.scores[k])
		members[h] = append(members[h], k)
	}
	strata, err := shard.SampleStrata(members, budget-len(learnSel), cfg.seed,
		func(h int) uint64 { return shard.TagSample + uint64(h) + 1 }, label, nil)
	if err != nil {
		return estimate.Result{}, err
	}
	res, err := estimate.Stratified(strata, core.Alpha)
	if err != nil {
		return estimate.Result{}, badf("%v", err)
	}
	return res, nil
}

// maintainProgram keeps the compiled predicate's hash indexes in sync with
// the pinned catalog: prefix-extended tables patch their indexes with the
// delta rows; anything else recompiles from scratch. A predicate outside
// the compilable subset records its reason once and stays interpreted.
func (q *LiveQuery) maintainProgram(st *refreshState, cat engine.Catalog, snaps map[string]*Table) {
	if st.progErr != "" {
		return // permanently interpreted (shape outside the subset)
	}
	if st.prog != nil {
		extendable := true
		for _, name := range q.names {
			t := snaps[name]
			old, ok := st.progRows[name]
			if !ok || t.tab.NumRows() < old {
				extendable = false
				break
			}
			if t.tab.NumRows() != old {
				// Rows changed: patching is only sound for prefix extensions.
				prev, hadPrev := st.snaps[name]
				if !hadPrev || snapshotChange(prev, t) != snapAppended {
					extendable = false
					break
				}
			}
		}
		if extendable {
			if err := st.prog.Extend(cat, st.progRows); err == nil {
				for _, name := range q.names {
					st.progRows[name] = cat[name].NumRows()
				}
				return
			}
			// A failed Extend leaves the program partially patched: discard
			// and fall through to a fresh compile.
		}
		st.prog = nil
	}
	st.validated = false
	if st.prog, st.progErr = compileQ3(q.dec, cat); st.prog == nil {
		return
	}
	st.progRows = make(map[string]int, len(q.names))
	for _, name := range q.names {
		st.progRows[name] = cat[name].NumRows()
	}
}

// maintainFeatures keeps the object table's unique-key index and feature
// matrix in sync with its newest snapshot, extending both in place for
// prefix-extended snapshots and rebuilding otherwise.
func (q *LiveQuery) maintainFeatures(st *refreshState, ltab *Table, strs map[string]string) (err error) {
	if st.featCols == nil {
		if st.featCols, err = q.featureColumns(ltab.tab, strs); err != nil {
			return err
		}
	}
	if st.keyIdx == nil || st.ltabSnap == nil || snapshotChange(st.ltabSnap, ltab) == snapReplaced {
		st.keyIdx = make(map[int64]int, ltab.tab.NumRows())
		st.feats = nil
	}
	if st.feats, err = featureRows(ltab.tab, q.keyCol, st.featCols, st.keyIdx, st.feats); err != nil {
		// Do not leave the index half-extended: a poisoned keyIdx would make
		// every later refresh re-report rows this pass inserted as the
		// duplicates. A clean reset rebuilds (and re-errors accurately) next
		// time.
		st.keyIdx, st.feats, st.ltabSnap = nil, nil, nil
		return err
	}
	st.ltabSnap = ltab
	return nil
}

// snapChange classifies how a table moved between two pinned snapshots.
type snapChange int

const (
	snapUnchanged snapChange = iota
	snapAppended             // same storage epoch, rows grew: a literal prefix extension
	snapReplaced             // anything else: compaction, re-registration, unknown provenance
)

// snapshotChange compares two pins of the same table name.
func snapshotChange(old, new *Table) snapChange {
	if old == nil || new == nil {
		return snapReplaced
	}
	if old.tab == new.tab {
		return snapUnchanged
	}
	if old.live == nil || new.live == nil || old.live.src != new.live.src {
		return snapReplaced
	}
	if old.live.snap.Version == new.live.snap.Version {
		return snapUnchanged
	}
	if live.PrefixExtends(old.live.snap, new.live.snap) {
		return snapAppended
	}
	return snapReplaced
}

// q3AliasTables collects the tables bound by Q3 FROM aliases (the tables
// whose row changes can flip existing labels).
func q3AliasTables(dec *engine.Decomposed) map[string]bool {
	out := make(map[string]bool)
	sub, ok := dec.Predicate.(*sql.SubqueryExpr)
	if !ok || sub.Query == nil {
		return out
	}
	for _, tr := range sub.Query.From {
		if tr.Subquery == nil {
			out[tr.Name] = true
		}
	}
	return out
}

// analyzeCorrelation inspects Q3's WHERE conjuncts for equality chains that
// pin inner-table columns (transitively) to the object key. A table whose
// every Q3 alias carries such a column is "key-correlated": a delta row in
// it can only flip the label of the object whose key equals the row's
// correlated-column value — the join-index maintenance insight that lets a
// refresh invalidate per key instead of wholesale. The result maps table
// name → one correlated int-column index per alias; tables absent from the
// map are uncorrelated (their changes invalidate every label).
func analyzeCorrelation(dec *engine.Decomposed, cat engine.Catalog) map[string][]int {
	sub, ok := dec.Predicate.(*sql.SubqueryExpr)
	if !ok || sub.Query == nil || len(dec.GroupCols) != 1 {
		return nil
	}
	q3 := sub.Query
	type aliasInfo struct {
		bind    string
		tabName string
		tab     *dataset.Table
	}
	var aliases []aliasInfo
	for _, tr := range q3.From {
		if tr.Subquery != nil {
			return nil
		}
		tab, ok := cat[tr.Name]
		if !ok {
			return nil
		}
		aliases = append(aliases, aliasInfo{bind: tr.BindName(), tabName: tr.Name, tab: tab})
	}
	keyName := dec.GroupCols[0]

	// Union-find over node ids: "o" is the object key, "a<i>.<col>" an
	// alias column.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	// resolveID maps a column reference to a node id, or "" when it is not
	// usable for correlation (parameters, ambiguity).
	resolveID := func(cr *sql.ColumnRef) string {
		if cr.Qualifier == engine.ObjectAlias {
			if cr.Name == keyName {
				return "o"
			}
			return ""
		}
		if cr.Qualifier != "" {
			for i, a := range aliases {
				if a.bind == cr.Qualifier {
					if a.tab.ColIndex(cr.Name) < 0 {
						return ""
					}
					return fmt.Sprintf("a%d.%d", i, a.tab.ColIndex(cr.Name))
				}
			}
			return ""
		}
		hit, hits := "", 0
		for i, a := range aliases {
			if ci := a.tab.ColIndex(cr.Name); ci >= 0 {
				hit = fmt.Sprintf("a%d.%d", i, ci)
				hits++
			}
		}
		if hits == 1 {
			return hit
		}
		if hits == 0 && cr.Name == keyName {
			return "o"
		}
		return ""
	}

	for _, c := range sql.SplitConjuncts(q3.Where) {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.L.(*sql.ColumnRef)
		r, rok := be.R.(*sql.ColumnRef)
		if !lok || !rok {
			continue
		}
		lid, rid := resolveID(l), resolveID(r)
		if lid != "" && rid != "" {
			union(lid, rid)
		}
	}

	keyRoot := find("o")
	out := make(map[string][]int)
	colsByTable := make(map[string][][]int) // per table: per alias, candidate cols
	for i, a := range aliases {
		var corr []int
		for ci := 0; ci < a.tab.NumCols(); ci++ {
			if a.tab.Schema()[ci].Kind != dataset.Int {
				continue
			}
			if find(fmt.Sprintf("a%d.%d", i, ci)) == keyRoot {
				corr = append(corr, ci)
			}
		}
		colsByTable[a.tabName] = append(colsByTable[a.tabName], corr)
	}
	for name, perAlias := range colsByTable {
		cols := make([]int, 0, len(perAlias))
		ok := true
		for _, corr := range perAlias {
			if len(corr) == 0 {
				ok = false
				break
			}
			cols = append(cols, corr[0])
		}
		if ok {
			out[name] = cols
		}
	}
	return out
}
