package lsample

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/qcompile"
	"repro/internal/sql"
	"repro/internal/xrand"
)

// Session is the SDK entry point for SQL counting queries: it binds a
// DataSource to a default option set and prepares queries against it. A
// Session is cheap and safe for concurrent use; create as many as
// convenient.
type Session struct {
	src  DataSource
	base config
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

// Prepare reads a counting query (analysis.go: parse, the §2 rewrite into
// object query and per-object predicate, the object key) and binds it to a
// snapshot of the tables it references. That analysis, the predicate's
// compilation and (lazily, on the first Execute that needs it) automatic
// feature selection with the O(N) key index and feature matrix happen once;
// the returned PreparedQuery can then Execute many times with different
// bound parameters, seeds, and options.
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
	a, err := analyze(sqlText)
	if err != nil {
		return nil, err
	}
	cat, snaps, err := a.pin(s.src)
	if err != nil {
		return nil, err
	}
	// Once per prepared query: the tables are an immutable snapshot.
	prog, progErr := compileQ3(a.dec, cat)
	return &PreparedQuery{
		analysis: *a,
		text:     sqlText,
		cfg:      cfg,
		cat:      cat,
		snaps:    snaps,
		q2IDs:    q2Identifiers(a.dec.Objects),
		ltab:     cat[a.dec.Objects.From[0].Name],
		feats:    make(map[string]*featureState),
		prog:     prog,
		progErr:  progErr,
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

// PreparedQuery is an analyzed counting query bound to a table snapshot. It
// is safe for concurrent Execute calls and stays consistent even if the
// session's DataSource replaces a table — prepare again to pick up new data.
type PreparedQuery struct {
	analysis // what the query's text decided (analysis.go)
	text     string
	cfg      config
	cat      engine.Catalog
	snaps    map[string]*Table // pinned snapshots by name (catalog identity)
	q2IDs    map[string]bool   // identifier names Q2 references (catalog key)
	ltab     *dataset.Table
	prog     *qcompile.Program // compiled Q3, nil when outside the subset
	progErr  string            // fallback reason when prog is nil

	featMu sync.Mutex
	feats  map[string]*featureState // keyed by sorted parameter names
	builds int                      // feature-state constructions (tests assert == 1)

	resMu     sync.Mutex
	residents []*shardData // hash-plan executors (shardexec.go), most recently used first
}

// maxResident bounds the hash-plan executors a prepared query keeps
// resident, each O(population): parameter bindings × shard layouts ×
// labeling knobs in recent use.
const maxResident = 8

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
func (q *PreparedQuery) Tables() []string { return q.tables() }

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
	return sql.Fingerprint(q.shape, strs), nil
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
	wall := time.Now()
	ctx, span := obs.EnsureSpan(ctx, cfg.tracer, "execute")
	defer span.End()
	span.Set("method", cfg.method)
	est, err := q.execute(ctx, cfg, m, vals, strs)
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
// asks for it, and the paper's RNG-driven pipeline — the population, its
// predicate, then the classic body over internal/core. They give different
// (each deterministic) answers for the same seed.
func (q *PreparedQuery) execute(ctx context.Context, cfg config, m core.Method,
	vals map[string]engine.Value, strs map[string]string) (_ *Estimate, err error) {

	defer recoverFault(&err)
	if cfg.shards > 0 || cfg.catalog != nil {
		if est, handled, err := q.executeHashPlan(ctx, cfg, vals, strs); handled {
			return est, err
		}
	}

	p, err := q.populate(ctx, needsFeatures(cfg.method), vals, strs)
	if err != nil {
		return nil, err
	}
	fp := sql.Fingerprint(q.shape, strs)
	if p.n == 0 {
		return cfg.header(fp, 0).answerEmpty(cfg), nil
	}
	pred, labeling, err := q.buildPredicate(ctx, p.ev, p.objects, vals, cfg, false)
	if err != nil {
		return nil, err
	}
	est, _, err := cfg.classic(ctx, "estimation", p.rows(), pred, m.Estimate)
	if err != nil {
		return nil, err
	}
	est.Method, est.Fingerprint = cfg.method, fp
	est.FeatureColumns = p.featCols
	est.Labeling = labeling
	return est, nil
}

// header starts the answer every path of one count fills in.
func (c config) header(fingerprint string, objects int) *Estimate {
	return &Estimate{Method: c.method, Fingerprint: fingerprint, Objects: objects, Seed: c.seed}
}

// answerEmpty completes the answer over an empty population: a count of
// zero, known exactly.
func (e *Estimate) answerEmpty(cfg config) *Estimate {
	e.CI = &ConfidenceInterval{Level: 1 - cfg.alpha}
	if cfg.exact {
		zero := 0
		e.TrueCount = &zero
	}
	return e
}

// classic is the one body of a count answered by internal/core, behind
// Execute, ExecuteGroups and Estimator.Estimate: budget, the method's run
// (a core.Method's Estimate, or a grouped method behind the same signature)
// inside an "estimate" span with its learn / design / sample children, and
// the WithExact scan, whose labels come back by object position.
func (cfg config) classic(ctx context.Context, what string, features [][]float64, pred predicate.Predicate,
	run func(context.Context, *core.ObjectSet, int, *xrand.Rand) (*core.Result, error)) (*Estimate, []bool, error) {

	obj, err := core.NewObjectSet(features, pred)
	if err != nil {
		return nil, nil, badf("%v", err)
	}
	budget := cfg.budgetFor(obj.N())
	mctx, msp := obs.StartSpan(ctx, "estimate")
	res, err := run(mctx, obj, budget, xrand.New(cfg.seed))
	if err != nil {
		msp.End()
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, fmt.Errorf("lsample: %w", err)
		}
		return nil, nil, fmt.Errorf("lsample: %s failed: %w", what, err)
	}
	est := fromCore(res, obj.N(), budget, cfg)
	estimateSpan(mctx, est, res)
	msp.End()
	if !cfg.exact {
		return est, nil, nil
	}
	// The exact pass evaluates the predicate on every object — the expensive
	// path WithExact requests; it is by far the longest loop a request can
	// hold resources for. It spends real predicate evaluations too: report
	// the predicate's full counter, not just the estimation's share.
	xctx, xsp := obs.StartSpan(ctx, "exact.scan")
	truth, err := predicate.Label(pred, predicate.AllIndices(obj.N()), canceled(xctx, "exact count"))
	xsp.End()
	if err != nil {
		return nil, nil, err
	}
	tc := estimate.Positives(truth)
	est.TrueCount = &tc
	est.SamplesUsed = pred.Evals()
	return est, truth, nil
}

// buildPredicate is buildEnginePredicate for the prepared program, inside a
// "predicate.build" span. validated is false for a build that must pay the
// cross-check: Execute and ExecuteGroups on the classic path, where nothing
// remembers a passed check across executions, and the first build of every
// resident hash-plan executor; a build on an executor's verdict carries
// validated_by=executor.
func (q *PreparedQuery) buildPredicate(ctx context.Context, ev *engine.Evaluator, objects *engine.ResultSet,
	vals map[string]engine.Value, cfg config, validated bool) (predicate.Predicate, Labeling, error) {

	_, sp := obs.StartSpan(ctx, "predicate.build")
	defer sp.End()
	if validated {
		sp.Set("validated_by", "executor")
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
// one full join scan — is not paid again. Who remembers a passed check:
// refreshState.validated across refreshes of one program, shardData.checked
// for a resident hash-plan executor; nothing else.
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
	key := strings.Join(slices.Sorted(maps.Keys(paramStrs)), ",")

	q.featMu.Lock()
	defer q.featMu.Unlock()
	if fs, ok := q.feats[key]; ok {
		return fs, nil
	}

	cols, err := q.featureColumns(q.ltab, paramStrs)
	if err != nil {
		return nil, err
	}
	keyCol, err := q.objectKeyColumn()
	if err != nil {
		return nil, err
	}
	index := make(map[int64]int, q.ltab.NumRows())
	feats, err := featureRows(q.ltab, keyCol, cols, index, nil)
	if err != nil {
		return nil, err
	}
	fs := &featureState{cols: cols, index: index, feats: feats}
	q.feats[key] = fs
	q.builds++
	return fs, nil
}

// objectKeyColumn is keyColumn under the rule feature derivation and the
// hash plan share: the key must be an integer column, unique in the object
// table (e.g. an id column) — the shape of both of the paper's workloads.
func (q *PreparedQuery) objectKeyColumn() (string, error) {
	name, kind, err := q.keyColumn(q.ltab)
	if err == nil && kind != dataset.Int {
		err = badf("group key %q must be an integer column", name)
	}
	return name, err
}
