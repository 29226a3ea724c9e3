package lsample

import (
	"context"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qcompile"
	"repro/internal/sql"
)

// This file is the front half every SQL count shares (the paper's §2): the
// text becomes an analysis — Q1's shape, its decomposition into the object
// query Q2 and the per-object predicate Q3, the tables it names, its object
// key — and an analysis over pinned tables with parameters bound becomes a
// population: Q2's result with keys, feature rows and group labels attached.
// What happens to a population — internal/core's methods, shard.Drive, a
// refresh — is the back halves' business (session.go, shardexec.go,
// refresh.go).

// analysis is everything a counting query's text decides. Prepare and
// PrepareLive embed one; QueryShape reads the half that needs no
// decomposition.
type analysis struct {
	shape   *sql.SelectStmt           // the fingerprinted statement: Q1, or the outer statement of a grouped query
	names   []string                  // every table referenced, subquery-only ones included
	dec     *engine.Decomposed        // Q2 and Q3
	grouped *engine.GroupedDecomposed // nil for plain counting queries
}

// parseShape parses a counting query and returns the statement, the part of
// it a fingerprint canonicalizes, and the tables it references.
func parseShape(sqlText string) (stmt, shape *sql.SelectStmt, names []string, err error) {
	if sqlText == "" {
		return nil, nil, nil, badf("missing sql")
	}
	if stmt, err = sql.Parse(sqlText); err != nil {
		return nil, nil, nil, badf("parse: %v", err)
	}
	shape = engine.ExtractInner(stmt)
	if names = sql.Tables(shape); len(names) == 0 {
		return nil, nil, nil, badf("query has no FROM clause")
	}
	return stmt, shape, names, nil
}

// analyze is the one reading of a counting query's text. A grouped query
// (SELECT groups, COUNT(*) FROM (Q1) GROUP BY groups) decomposes its inner
// statement and remembers which Q2 columns carry the group labels; its
// shape keeps the outer statement, so grouped and plain variants of one Q1
// cache separately.
func analyze(sqlText string) (*analysis, error) {
	stmt, shape, names, err := parseShape(sqlText)
	if err != nil {
		return nil, err
	}
	q := &analysis{shape: shape, names: names}
	inner := shape
	if gInner, gNames, gerr := engine.ExtractGroups(stmt); gerr != nil {
		return nil, badf("%v", gerr)
	} else if gInner != nil {
		inner = gInner
		if q.grouped, err = engine.DecomposeGrouped(gInner, gNames); err != nil {
			return nil, badf("decompose: %v", err)
		}
		q.dec = q.grouped.Decomposed
	}
	for _, tr := range inner.From {
		if tr.Subquery != nil {
			return nil, badf("FROM subqueries are not supported")
		}
	}
	if q.dec == nil {
		if q.dec, err = engine.Decompose(inner); err != nil {
			return nil, badf("decompose: %v", err)
		}
	}
	return q, nil
}

// QueryShape parses a counting query and returns its canonical
// parameter-free fingerprint plus the names of every table it references
// (including tables appearing only inside predicate subqueries). Two
// queries with equal shapes differ at most in formatting; caching layers
// combine the shape with bound parameters and dataset versions to key
// results without re-analyzing the query.
func QueryShape(sqlText string) (fingerprint string, tables []string, err error) {
	_, shape, names, err := parseShape(sqlText)
	if err != nil {
		return "", nil, err
	}
	return sql.Fingerprint(shape, nil), names, nil
}

// tables returns the names of all tables the query references, sorted.
func (q *analysis) tables() []string { return slices.Sorted(slices.Values(q.names)) }

// compileQ3 compiles the per-object predicate over a pinned catalog: the
// analysis and hash-index building are the expensive parts of a predicate.
// One outside the compilable subset yields its fallback reason instead, and
// every execution keeps the interpreted engine.
func compileQ3(dec *engine.Decomposed, cat engine.Catalog) (*qcompile.Program, string) {
	prog, err := qcompile.Compile(dec, cat)
	if err != nil {
		return nil, err.Error()
	}
	return prog, ""
}

// pin resolves every table the query touches — all must be in the
// evaluator's catalog, subquery-only ones included — to the source's
// current snapshots.
func (q *analysis) pin(src DataSource) (engine.Catalog, map[string]*Table, error) {
	cat := make(engine.Catalog, len(q.names))
	snaps := make(map[string]*Table, len(q.names))
	for _, name := range q.names {
		t, err := src.Table(name)
		if err != nil {
			return nil, nil, err
		}
		cat[name] = t.tab
		snaps[name] = t
	}
	return cat, snaps, nil
}

// keyPos returns the position of the object-identity key within each Q2
// output row: column 0 for plain queries, the non-group column for grouped
// ones.
func (q *analysis) keyPos() int {
	if q.grouped != nil && len(q.grouped.KeyIdx) > 0 {
		return q.grouped.KeyIdx[0]
	}
	return 0
}

// keyColumn validates the decomposition's object key against the object
// table and returns its base-column name and kind. The key must be a single
// column of the table: plain queries GROUP BY exactly it, grouped queries
// carry it beside their grouping columns. Whether it must also be an
// integer is the caller's rule (objectKeyColumn, PrepareLive).
func (q *analysis) keyColumn(ltab *dataset.Table) (string, dataset.Kind, error) {
	if q.grouped != nil {
		if len(q.grouped.KeyIdx) != 1 {
			return "", 0, badf("grouped queries must keep a single object-identity column for feature-using methods; got %d", len(q.grouped.KeyIdx))
		}
	} else if len(q.dec.GroupCols) != 1 {
		return "", 0, badf("queries must GROUP BY a single key column; got %d", len(q.dec.GroupCols))
	}
	cr := q.dec.Objects.Select[q.keyPos()].Expr.(*sql.ColumnRef) // Q2 selects GROUP BY columns only
	ci := ltab.ColIndex(cr.Name)
	if ci < 0 {
		return "", 0, badf("table %q has no column %q", ltab.Name, cr.Name)
	}
	return cr.Name, ltab.Schema()[ci].Kind, nil
}

// featureColumns selects the classifier features: the numeric columns of
// the object table the predicate reads, identifiers bound as parameters
// excluded.
func (q *analysis) featureColumns(ltab *dataset.Table, strs map[string]string) ([]string, error) {
	skip := make(map[string]bool, len(strs))
	for name := range strs {
		skip[name] = true
	}
	cols, err := engine.NumericFeatureColumns(ltab, q.dec.FeatureCols, skip)
	if err != nil {
		return nil, badf("%v", err)
	}
	return cols, nil
}

// featureRows extends a unique-key index and the feature matrix aligned
// with it over the rows of the object table past len(feats): all of them
// for a fresh index, the appended ones when a refresh extends its own.
func featureRows(ltab *dataset.Table, keyCol string, cols []string, index map[int64]int, feats [][]float64) ([][]float64, error) {
	ki := ltab.ColIndex(keyCol)
	ci := make([]int, len(cols))
	for j, name := range cols {
		ci[j] = ltab.ColIndex(name)
	}
	schema := ltab.Schema()
	for r := len(feats); r < ltab.NumRows(); r++ {
		k := ltab.Int(r, ki)
		if _, dup := index[k]; dup {
			return nil, badf("group key %q is not unique in %q (value %d repeats); cannot derive per-object features", keyCol, ltab.Name, k)
		}
		index[k] = r
		v := make([]float64, len(ci))
		for j, c := range ci {
			if schema[c].Kind == dataset.Float {
				v[j] = ltab.Float(r, c)
			} else {
				v[j] = float64(ltab.Int(r, c))
			}
		}
		feats = append(feats, v)
	}
	return feats, nil
}

// population is an analysis evaluated: Q2's result over pinned tables with
// the parameters bound, and what the back halves read off it. Nothing here
// depends on a seed or a budget.
type population struct {
	ev       *engine.Evaluator // over the pinned catalog, parameters bound
	objects  *engine.ResultSet // Q2's result, one row per object
	n        int
	keys     []int64       // object keys by position (readKeys)
	posByKey map[int64]int // (index)
	features [][]float64   // feature rows by position; nil when the method reads none
	featCols []string
	groupOf  []int            // grouped: dense group id by position
	groupKey [][]engine.Value // grouped: group tuple by group id
}

func newEvaluator(cat engine.Catalog, vals map[string]engine.Value) *engine.Evaluator {
	ev := engine.NewEvaluator(cat)
	for name, v := range vals {
		ev.SetParam(name, v)
	}
	return ev
}

// enumerate runs Q2 over the catalog and labels each object with its group.
func (q *analysis) enumerate(cat engine.Catalog, vals map[string]engine.Value) (*population, error) {
	ev := newEvaluator(cat, vals)
	objects, err := ev.Run(q.dec.Objects, nil)
	if err != nil {
		return nil, badf("enumerating objects: %v", err)
	}
	p := &population{ev: ev, objects: objects, n: objects.NumRows()}
	if q.grouped != nil && p.n > 0 {
		p.groupOf, p.groupKey = q.grouped.GroupLabels(objects)
	}
	return p, nil
}

// readKeys reads every object's integer key, once.
func (p *population) readKeys(keyPos int) error {
	if p.keys != nil {
		return nil
	}
	keys := make([]int64, p.n)
	for i := range keys {
		v := p.objects.Value(i, keyPos)
		if v.Kind != engine.KInt {
			return badf("object key is not an integer")
		}
		keys[i] = v.I
	}
	p.keys = keys
	return nil
}

// index reads the keys and builds the key → position map label stores
// address objects by.
func (p *population) index(keyPos int) error {
	if err := p.readKeys(keyPos); err != nil {
		return err
	}
	p.posByKey = make(map[int64]int, p.n)
	for i, k := range p.keys {
		p.posByKey[k] = i
	}
	return nil
}

// attach resolves each object's feature row through a unique-key index over
// the object table's rows.
func (p *population) attach(index map[int64]int, rows [][]float64, cols []string, table string) error {
	features := make([][]float64, p.n)
	for i, k := range p.keys {
		r, ok := index[k]
		if !ok {
			return badf("object key %d not found in %q", k, table)
		}
		features[i] = rows[r]
	}
	p.features, p.featCols = features, cols
	return nil
}

// rows returns the feature matrix internal/core wants: one row per object,
// empty rows for a method that reads none.
func (p *population) rows() [][]float64 {
	if p.features == nil {
		return make([][]float64, p.n)
	}
	return p.features
}

// populate is the one builder of a prepared query's population: Q2 inside
// an "enumerate" span and — when the method reads features, over a
// population that has objects — the feature rows inside a "features" span.
// Feature-free methods (plain random sampling, the exact oracle) skip
// feature derivation and with it the unique-integer-key restriction it
// needs.
func (q *PreparedQuery) populate(ctx context.Context, features bool, vals map[string]engine.Value,
	strs map[string]string) (*population, error) {

	_, esp := obs.StartSpan(ctx, "enumerate")
	p, err := q.enumerate(q.cat, vals)
	esp.End()
	if err != nil {
		return nil, err
	}
	esp.Set("objects", p.n)
	if p.n == 0 || !features {
		return p, nil
	}
	_, fsp := obs.StartSpan(ctx, "features")
	defer fsp.End()
	fs, err := q.featureState(strs)
	if err != nil {
		return nil, err
	}
	if err := p.readKeys(q.keyPos()); err != nil {
		return nil, err
	}
	if err := p.attach(fs.index, fs.feats, fs.cols, q.ltab.Name); err != nil {
		return nil, err
	}
	fsp.Set("columns", len(fs.cols))
	return p, nil
}
