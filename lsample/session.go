package lsample

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/qcompile"
	"repro/internal/sql"
	"repro/internal/xrand"
)

// Session is the SDK entry point for SQL counting queries: it binds a
// DataSource to a default option set and prepares queries against it. A
// Session is cheap and safe for concurrent use; create as many as
// convenient. Sessions over changing data additionally maintain one
// LiveQuery per Refresh-ed query text (see Session.Refresh).
type Session struct {
	src  DataSource
	base config

	liveMu sync.Mutex
	liveQs map[string]*LiveQuery // lazily created by Session.Refresh
}

// NewSession returns a session over src. The options become defaults for
// every Prepare and Execute made through it.
func NewSession(src DataSource, opts ...Option) (*Session, error) {
	if src == nil {
		return nil, badf("nil data source")
	}
	cfg, err := newConfig(defaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	return &Session{src: src, base: cfg}, nil
}

// Source returns the session's data source.
func (s *Session) Source() DataSource { return s.src }

// Count is the one-shot convenience: Prepare followed by a single Execute.
// Use Prepare directly when the same query runs repeatedly.
func (s *Session) Count(ctx context.Context, sqlText string, params map[string]any, opts ...Option) (*Estimate, error) {
	q, err := s.Prepare(sqlText, opts...)
	if err != nil {
		return nil, err
	}
	return q.Execute(ctx, params)
}

// Prepare parses a counting query, rewrites it into the paper's §2
// object/predicate form, and binds it to a snapshot of the tables it
// references. The expensive per-query analysis — parsing, decomposition,
// and (lazily, on the first Execute that needs it) automatic feature
// selection with the O(N) key index and feature matrix — happens once; the
// returned PreparedQuery can then Execute many times with different bound
// parameters, seeds, and options.
//
// Queries must follow the paper's Q1 shape: a GROUP BY over a single
// integer key column of the first FROM table (the object table), with the
// expensive condition in HAVING or WHERE. Free identifiers that are not
// columns are parameters, bound per Execute.
//
// Prepare also accepts the grouped counting form
//
//	SELECT g, COUNT(*) FROM (Q1) GROUP BY g
//
// where the inner Q1's GROUP BY carries the object key plus the grouping
// columns; the prepared query then reports IsGrouped and runs through
// ExecuteGroups instead of Execute. See GroupedEstimate for the contract.
func (s *Session) Prepare(sqlText string, opts ...Option) (*PreparedQuery, error) {
	cfg, err := newConfig(s.base, opts)
	if err != nil {
		return nil, err
	}
	if sqlText == "" {
		return nil, badf("missing sql")
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, badf("parse: %v", err)
	}

	// Grouped counting (SELECT groups, COUNT(*) FROM (...) GROUP BY groups)
	// decomposes the inner statement and remembers which Q2 columns carry
	// the group labels; everything else goes through the plain single-count
	// decomposition. Either way the fingerprinted statement keeps the outer
	// shape, so grouped and plain variants of the same inner query cache
	// separately.
	var (
		dec     *engine.Decomposed
		grouped *engine.GroupedDecomposed
		inner   *sql.SelectStmt
		fpStmt  = stmt
	)
	if gInner, gNames, gerr := engine.ExtractGroups(stmt); gerr != nil {
		return nil, badf("%v", gerr)
	} else if gInner != nil {
		inner = gInner
		grouped, err = engine.DecomposeGrouped(gInner, gNames)
		if err != nil {
			return nil, badf("decompose: %v", err)
		}
		dec = grouped.Decomposed
	} else {
		inner = engine.ExtractInner(stmt)
		fpStmt = inner
	}
	for _, tr := range inner.From {
		if tr.Subquery != nil {
			return nil, badf("FROM subqueries are not supported")
		}
	}
	// Resolve every table the query touches, including ones referenced only
	// inside predicate subqueries — all must be in the evaluator's catalog.
	names := sql.Tables(inner)
	if len(names) == 0 {
		return nil, badf("query has no FROM clause")
	}
	cat := make(engine.Catalog, len(names))
	snaps := make(map[string]*Table, len(names))
	for _, name := range names {
		t, err := s.src.Table(name)
		if err != nil {
			return nil, err
		}
		cat[name] = t.tab
		snaps[name] = t
	}
	if dec == nil {
		dec, err = engine.Decompose(inner)
		if err != nil {
			return nil, badf("decompose: %v", err)
		}
	}
	// Compile the per-object predicate once per prepared query: the
	// analysis and hash-index building are the expensive parts, and the
	// tables are an immutable snapshot. A predicate outside the compilable
	// subset records its fallback reason and every Execute keeps the
	// interpreted engine.
	prog, perr := qcompile.Compile(dec, cat)
	progErr := ""
	if perr != nil {
		prog = nil
		progErr = perr.Error()
	}
	return &PreparedQuery{
		sess:    s,
		text:    sqlText,
		cfg:     cfg,
		inner:   fpStmt,
		dec:     dec,
		grouped: grouped,
		cat:     cat,
		snaps:   snaps,
		q2IDs:   q2Identifiers(dec.Objects),
		ltab:    cat[dec.Objects.From[0].Name],
		feats:   make(map[string]*featureState),
		prog:    prog,
		progErr: progErr,
	}, nil
}

// q2Identifiers collects every identifier name referenced anywhere in the
// object-enumeration query Q2 (including its subqueries). The reuse
// catalog restricts bound parameters to this set when fingerprinting Q2:
// parameters only the predicate Q3 reads then leave the enumeration
// identity unchanged, so predicate variants of one query shape share a
// catalog entry. Column names are included too — over-inclusion can only
// split entries that could have been shared, never alias different ones.
func q2Identifiers(objects *sql.SelectStmt) map[string]bool {
	ids := make(map[string]bool)
	sql.WalkStmtDeep(objects, func(e sql.Expr) {
		if cr, ok := e.(*sql.ColumnRef); ok {
			ids[cr.Name] = true
		}
	}, nil)
	return ids
}

// PreparedQuery is a parsed, decomposed, feature-selected counting query
// bound to a table snapshot. It is safe for concurrent Execute calls and
// stays consistent even if the session's DataSource replaces a table —
// prepare again to pick up new data.
type PreparedQuery struct {
	sess    *Session
	text    string
	cfg     config
	inner   *sql.SelectStmt // the fingerprinted statement (outer shape for grouped queries)
	dec     *engine.Decomposed
	grouped *engine.GroupedDecomposed // nil for plain counting queries
	cat     engine.Catalog
	snaps   map[string]*Table // pinned snapshots by name (catalog identity)
	q2IDs   map[string]bool   // identifier names Q2 references (catalog key)
	ltab    *dataset.Table
	prog    *qcompile.Program // compiled Q3, nil when outside the subset
	progErr string            // fallback reason when prog is nil

	featMu sync.Mutex
	feats  map[string]*featureState // keyed by sorted parameter names
	builds int                      // feature-state constructions (tests assert == 1)
}

// featureState is the per-query-shape artifact every feature-using Execute
// shares: the auto-selected feature columns, the O(N) unique-key index, and
// the full feature matrix of the object table.
type featureState struct {
	cols  []string
	index map[int64]int
	feats [][]float64
}

// SQL returns the query text as prepared.
func (q *PreparedQuery) SQL() string { return q.text }

// Tables returns the names of all tables the query references, sorted.
func (q *PreparedQuery) Tables() []string {
	names := make([]string, 0, len(q.cat))
	for name := range q.cat {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ObjectsSQL returns the object-enumeration query Q2 of the §2
// decomposition.
func (q *PreparedQuery) ObjectsSQL() string { return q.dec.Objects.String() }

// PredicateSQL returns the per-object predicate Q3 of the §2 decomposition.
func (q *PreparedQuery) PredicateSQL() string { return q.dec.Predicate.String() }

// Fingerprint returns the canonical identity of the query with the given
// parameters bound: equal fingerprints over the same data imply
// byte-identical estimates for equal (method, budget, seed) — the property
// caching layers rely on.
func (q *PreparedQuery) Fingerprint(params map[string]any) (string, error) {
	_, strs, err := convertParams(params)
	if err != nil {
		return "", err
	}
	return sql.Fingerprint(q.inner, strs), nil
}

// Execute runs one estimation with the given bound parameters. Options
// override the prepare-time defaults for this call only. Cancellation of
// ctx aborts the run at the next predicate evaluation, returning an error
// wrapping context.Canceled (or DeadlineExceeded). A predicate that fails
// on some object's data — a zero divisor, SQRT of a negative — fails the
// run with an error wrapping ErrInvalid that names the fault, on every
// path and at any parallelism.
func (q *PreparedQuery) Execute(ctx context.Context, params map[string]any, opts ...Option) (*Estimate, error) {
	if q.grouped != nil {
		return nil, badf("query has GROUP BY groups; use ExecuteGroups")
	}
	cfg, err := newConfig(q.cfg, opts)
	if err != nil {
		return nil, err
	}
	m, err := cfg.buildMethod()
	if err != nil {
		return nil, err
	}
	vals, strs, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	alpha := cfg.alpha
	if alpha <= 0 {
		alpha = 0.05
	}

	wall := time.Now()
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "execute")
	defer span.End()
	span.Set("method", cfg.method)
	est, err := q.execute(ctx, cfg, m, vals, strs, alpha)
	if err != nil {
		span.Set("error", err.Error())
		return nil, err
	}
	span.Set("objects", est.Objects)
	span.Set("evals", est.SamplesUsed)
	cfg.queryLog(ctx, est, time.Since(wall))
	return est, nil
}

// execute is Execute's body behind the root span. It has two branches: the
// deterministic hash plan (shardexec.go) when WithShards or a reuse catalog
// asks for it, and the paper's RNG-driven enumerate → features → predicate
// → estimate pipeline over internal/core, each phase in a child span. They
// give different (each deterministic) answers for the same seed.
func (q *PreparedQuery) execute(ctx context.Context, cfg config, m core.Method,
	vals map[string]engine.Value, strs map[string]string, alpha float64) (_ *Estimate, err error) {

	defer recoverFault(&err)
	if cfg.shards > 0 || cfg.catalog != nil {
		if est, handled, err := q.executeHashPlan(ctx, cfg, vals, strs, alpha); handled {
			return est, err
		}
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
	esp.Set("objects", objects.NumRows())
	out := &Estimate{
		Method:      cfg.method,
		Fingerprint: sql.Fingerprint(q.inner, strs),
		Objects:     objects.NumRows(),
		Seed:        cfg.seed,
	}
	if objects.NumRows() == 0 {
		out.CI = &ConfidenceInterval{Level: 1 - alpha}
		if cfg.exact {
			zero := 0
			out.TrueCount = &zero
		}
		return out, nil
	}

	// Feature-free methods (plain random sampling, the exact oracle) skip
	// feature derivation entirely — and with it the single-unique-integer
	// group-key restriction it needs.
	features := make([][]float64, objects.NumRows())
	if needsFeatures(cfg.method) {
		_, fsp := obs.StartSpan(ctx, "features")
		fv, cols, err := q.featureVectors(objects, strs)
		fsp.End()
		if err != nil {
			return nil, err
		}
		fsp.Set("columns", len(cols))
		features = fv
		out.FeatureColumns = cols
	}

	pred, labeling, err := q.buildPredicate(ctx, ev, objects, vals, cfg, unvalidated)
	if err != nil {
		return nil, err
	}
	obj, err := core.NewObjectSet(features, pred)
	if err != nil {
		return nil, badf("%v", err)
	}

	budget := cfg.budgetFor(obj.N())
	mctx, msp := obs.StartSpan(ctx, "estimate")
	res, err := m.Estimate(mctx, obj, budget, xrand.New(cfg.seed))
	if err != nil {
		msp.End()
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("lsample: %w", err)
		}
		return nil, fmt.Errorf("lsample: estimation failed: %w", err)
	}

	est := fromCore(res, obj.N(), budget, cfg.seed, cfg.alpha)
	est.Method = out.Method
	est.Fingerprint = out.Fingerprint
	est.FeatureColumns = out.FeatureColumns
	est.Labeling = labeling
	estimateSpan(mctx, est, res)
	msp.End()
	if cfg.exact {
		xctx, xsp := obs.StartSpan(ctx, "exact.scan")
		tc, err := exactCount(xctx, pred, obj.N())
		xsp.End()
		if err != nil {
			return nil, err
		}
		est.TrueCount = &tc
		// The exact pass spends real predicate evaluations too; report the
		// predicate's full counter, not just the estimation's share.
		est.SamplesUsed = pred.Evals()
	}
	return est, nil
}

// validator names who remembers that a program already passed the
// interpreter's cross-check: nobody, the hash-plan Execute whose first shard
// just passed it, or the ShardExec whose first build did (shardData.checked).
type validator uint8

const (
	unvalidated validator = iota
	byRun
	byExecutor
)

// String is the validated_by attribute of a "predicate.build" span.
func (v validator) String() string { return [...]string{"", "run", "executor"}[v] }

// buildPredicate is buildEnginePredicate for the prepared program, inside a
// "predicate.build" span. by is unvalidated for a build that must pay the
// cross-check: Execute and ExecuteGroups on the classic path, where nothing
// remembers a passed check across executions yet, and the first build of
// every hash-plan execution or executor.
func (q *PreparedQuery) buildPredicate(ctx context.Context, ev *engine.Evaluator, objects *engine.ResultSet,
	vals map[string]engine.Value, cfg config, by validator) (predicate.Predicate, Labeling, error) {

	_, sp := obs.StartSpan(ctx, "predicate.build")
	defer sp.End()
	validated := by != unvalidated
	if validated {
		sp.Set("validated_by", by.String())
	}
	pred, lab, err := buildEnginePredicate(ev, q.dec, objects, q.prog, q.progErr, vals, cfg, validated)
	if err != nil {
		return nil, Labeling{}, err
	}
	sp.Set("compiled", lab.Compiled)
	if lab.Fallback != "" {
		sp.Set("fallback", lab.Fallback)
	}
	return pred, lab, nil
}

// buildEnginePredicate is the one place a program becomes the expensive
// per-object predicate: Execute, ExecuteGroups and the hash plan's label
// store reach it through buildPredicate, LiveQuery.Refresh calls it with
// the program it maintains. The compiled path is preferred: the program
// binds the parameter values and object set, a guarded first-object
// evaluation is cross-checked against the interpreter (whose construction
// just validated that object), and only then does labeling run through the
// batch-capable compiled predicate. Any failure along the way —
// compile-time unsupported shape, bind-time type mismatch, cross-check
// disagreement — degrades to the interpreted engine with the reason
// recorded, never to an error the interpreter itself would not produce.
//
// validated says prog already passed that cross-check, so a bind that
// succeeds is used as it is and the interpreter's evaluation of object 0 —
// one full join scan — is not paid again. Refresh remembers it across
// refreshes of one program (refreshState.validated), a hash-plan execution's
// seed-independent half for as long as it lives (shardData.checked: one
// Execute's shards, or every count a ShardExec serves); nothing else does.
func buildEnginePredicate(ev *engine.Evaluator, dec *engine.Decomposed, objects *engine.ResultSet,
	prog *qcompile.Program, progErr string, vals map[string]engine.Value, cfg config,
	validated bool) (predicate.Predicate, Labeling, error) {

	lab := Labeling{Workers: 1}
	var bound *qcompile.Bound
	switch {
	case cfg.noCompile:
		lab.Fallback = "compilation disabled"
	case prog == nil:
		lab.Fallback = progErr
	default:
		var err error
		if bound, err = prog.Bind(vals, objects); err != nil {
			lab.Fallback = err.Error()
		}
	}
	if bound == nil || !validated {
		ep, err := predicate.NewEngineExists(ev, dec, objects)
		if err != nil {
			return nil, Labeling{}, badf("%v", err)
		}
		if bound != nil && !compiledAgrees(bound.NewEvalFn(), ep, objects.NumRows()) {
			bound, lab.Fallback = nil, "first-object cross-check failed"
		}
		if bound == nil {
			return ep, lab, nil
		}
	}
	cp := predicate.NewCompiled(bound.NewEvalFn, cfg.parallelism)
	return cp, Labeling{Compiled: true, Workers: cp.Workers()}, nil
}

// recoverFault is deferred by the SDK entry points that label objects. A
// predicate fault (engine.Fault: a division by zero or SQRT of a negative
// that only an object past the first meets) raised below them — on the
// calling goroutine, or re-raised there by the labeling pool — becomes the
// call's error, wrapping ErrInvalid. Any other panic value is a bug and
// keeps propagating.
func recoverFault(err *error) {
	switch p := recover().(type) {
	case nil:
	case *engine.Fault:
		*err = fmt.Errorf("%w: %w", ErrInvalid, p)
	default:
		panic(p)
	}
}

// compiledAgrees is the runtime safety net behind the fallback contract: a
// compiled first-object evaluation must agree with the interpreter's (and
// must not panic, e.g. on a data-dependent division the interpreter would
// have reported as an error). The interpreter's side reuses the
// construction-time validation result, so the check costs one compiled
// evaluation, not a second full interpreted join scan.
func compiledAgrees(fn func(int) bool, ep *predicate.EngineExists, n int) (ok bool) {
	if n == 0 {
		return true
	}
	want, has := ep.First()
	if !has {
		return false
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return fn(0) == want
}

// exactCount evaluates the predicate on every object — the expensive path
// WithExact requests; it is by far the longest loop a request can hold
// resources for — and returns the positive count.
func exactCount(ctx context.Context, pred predicate.Predicate, n int) (int, error) {
	labels, err := predicate.Label(pred, predicate.AllIndices(n), canceled(ctx, "exact count"))
	if err != nil {
		return 0, err
	}
	count := 0
	for _, b := range labels {
		if b {
			count++
		}
	}
	return count, nil
}

// canceled returns the cooperative cancellation check predicate.Label polls
// between evaluations, wording the error for the loop it stops ("labeling",
// "exact count"). A nil ctx never cancels.
func canceled(ctx context.Context, what string) func() error {
	return func() error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("lsample: %s canceled: %w", what, err)
			}
		}
		return nil
	}
}

// featureState returns the memoized feature artifacts for the given
// parameter-name signature, building them on first use. Parameter names are
// part of the key because identifiers bound as parameters are excluded from
// feature selection; executing with a consistent parameter set — the normal
// case — builds exactly once.
func (q *PreparedQuery) featureState(paramStrs map[string]string) (*featureState, error) {
	names := make([]string, 0, len(paramStrs))
	for name := range paramStrs {
		names = append(names, name)
	}
	sort.Strings(names)
	key := strings.Join(names, ",")

	q.featMu.Lock()
	defer q.featMu.Unlock()
	if fs, ok := q.feats[key]; ok {
		return fs, nil
	}

	skip := make(map[string]bool, len(paramStrs))
	for name := range paramStrs {
		skip[name] = true
	}
	cols, err := engine.NumericFeatureColumns(q.ltab, q.dec.FeatureCols, skip)
	if err != nil {
		return nil, badf("%v", err)
	}
	keyCol, err := q.objectKeyColumn()
	if err != nil {
		return nil, err
	}
	ci := q.ltab.ColIndex(keyCol)
	index := make(map[int64]int, q.ltab.NumRows())
	for r := 0; r < q.ltab.NumRows(); r++ {
		k := q.ltab.Int(r, ci)
		if _, dup := index[k]; dup {
			return nil, badf("group key %q is not unique in %q (value %d repeats); cannot derive per-object features", keyCol, q.ltab.Name, k)
		}
		index[k] = r
	}
	feats, err := q.ltab.Features(cols...)
	if err != nil {
		return nil, badf("features: %v", err)
	}
	fs := &featureState{cols: cols, index: index, feats: feats}
	q.feats[key] = fs
	q.builds++
	return fs, nil
}

// featureVectors materializes the per-object feature matrix in Q2 row
// order, building (or reusing) the memoized feature state and resolving
// each object's row through the unique-key index.
func (q *PreparedQuery) featureVectors(objects *engine.ResultSet, strs map[string]string) ([][]float64, []string, error) {
	fs, err := q.featureState(strs)
	if err != nil {
		return nil, nil, err
	}
	keyPos := q.keyPos()
	features := make([][]float64, objects.NumRows())
	for i := range features {
		v := objects.Value(i, keyPos)
		if v.Kind != engine.KInt {
			return nil, nil, badf("object key is not an integer")
		}
		r, ok := fs.index[v.I]
		if !ok {
			return nil, nil, badf("object key %d not found in %q", v.I, q.ltab.Name)
		}
		features[i] = fs.feats[r]
	}
	return features, fs.cols, nil
}

// keyPos returns the position of the object-identity key within each Q2
// output row: column 0 for plain queries, the non-group column for grouped
// ones.
func (q *PreparedQuery) keyPos() int {
	if q.grouped != nil && len(q.grouped.KeyIdx) > 0 {
		return q.grouped.KeyIdx[0]
	}
	return 0
}

// objectKeyColumn validates the decomposition's group key for feature
// derivation and returns its base-column name. Queries needing features
// must group by a single integer column that is unique in the object table
// (e.g. an id column) — the shape of both of the paper's workloads. Grouped
// queries additionally carry grouping columns in Q2; the identity key is
// the single inner GROUP BY column left over after the grouping columns.
func (q *PreparedQuery) objectKeyColumn() (string, error) {
	if q.grouped != nil {
		if len(q.grouped.KeyIdx) != 1 {
			return "", badf("grouped queries must keep a single object-identity column for feature-using methods; got %d", len(q.grouped.KeyIdx))
		}
	} else if len(q.dec.GroupCols) != 1 {
		return "", badf("queries must GROUP BY a single key column; got %d", len(q.dec.GroupCols))
	}
	cr, ok := q.dec.Objects.Select[q.keyPos()].Expr.(*sql.ColumnRef)
	if !ok {
		return "", badf("group key is not a column reference")
	}
	ci := q.ltab.ColIndex(cr.Name)
	if ci < 0 {
		return "", badf("table %q has no column %q", q.ltab.Name, cr.Name)
	}
	if q.ltab.Schema()[ci].Kind != dataset.Int {
		return "", badf("group key %q must be an integer column", cr.Name)
	}
	return cr.Name, nil
}
