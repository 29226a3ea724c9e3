// Package qcompile compiles the decomposed per-object predicate Q3 of a
// counting query (§2 of the paper) from a tree-walking interpretation into
// specialized typed closures over columnar data.
//
// The paper's cost unit is the number of expensive predicate evaluations,
// and in this repository each evaluation of Q3
//
//	EXISTS (SELECT GL FROM L, R WHERE θL AND θLR AND GL = o.*
//	        GROUP BY GL HAVING φ)
//
// is, by default, a full interpretation: a nested-loop join whose every row
// re-resolves columns through scope chains and boxes every value. qcompile
// removes that constant factor and — where the query allows — the
// asymptotics:
//
//   - comparison/arithmetic/boolean nodes lower to monomorphic
//     func(*env) bool / int64 / float64 / string closures with no Value
//     boxing in the hot loop;
//   - equality conjuncts whose probe side is available before the alias is
//     scanned (the GL = o.* correlation the decomposition injects, and
//     equi-join keys against earlier FROM entries) compile to prebuilt hash
//     indexes on the inner relation, so each evaluation probes a bucket
//     instead of scanning the join;
//   - EXISTS short-circuits: with no HAVING the first witnessing row
//     decides, and a HAVING of the form COUNT(*) <op> threshold aborts as
//     soon as the monotonically growing count settles the comparison (the
//     same early exit the hand-written skyband predicate performs).
//
// Anything outside the compilable subset — subqueries inside Q3's WHERE or
// HAVING, DISTINCT aggregates, FROM subqueries, unknown functions — is
// rejected by Compile with an Unsupported error, and callers keep the
// interpreted engine path, which remains the semantics oracle.
//
// # Equivalence contract
//
// Compiled evaluation is byte-identical to the interpreter on the supported
// subset, including its corner semantics: comparisons treat NaN as equal to
// everything (the interpreter's compare maps incomparable floats to 0), ±0
// hash to the same bucket, ints compare with ints exactly as int64 (keys
// beyond 2^53 stay distinct) and int/float mixes through float64, and float
// aggregates accumulate in exactly the interpreter's nested-loop enumeration
// order, so no floating-point reassociation can flip a HAVING on a boundary.
// Leaf semantics are not restated here: arithmetic, the scalar functions and
// the aggregate accumulator are internal/engine's kernel table (ops.go),
// which the closures call as the interpreter does. Labels are pure functions
// of the object index, which is what makes batched and parallel labeling a
// pure throughput knob for the estimators built on top.
//
// The closures lower.go builds are the one compiled evaluator; the
// interpreter is their fallback and their reference. FuzzCompiledAgrees
// holds the two together: over generated tables, query shapes and
// parameters, every object gets the interpreter's label, and where the
// interpreter returns a data-dependent error (a zero divisor, SQRT of a
// negative) the closures raise the one typed panic value for it,
// engine.Fault, which the SDK's entry points turn into the request's error.
// The fuzzer's header says where the two agree on faults (aggregate
// arguments, HAVING) and why WHERE is excluded.
//
// Compile performs the per-query work (analysis and index building) once —
// lsample.Session.Prepare calls it per prepared query — while Bind performs
// the cheap per-execution specialization: binding parameter values,
// prefetching the object columns, and lowering expressions with full type
// information.
package qcompile

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// Unsupported reports that a predicate falls outside the compilable subset;
// the caller keeps the interpreted path. Reason is a short human-readable
// explanation surfaced by the SDK's labeling diagnostics.
type Unsupported struct{ Reason string }

func (u *Unsupported) Error() string { return "qcompile: " + u.Reason }

func unsupportedf(format string, args ...any) error {
	return &Unsupported{Reason: fmt.Sprintf(format, args...)}
}

// refKind classifies what a column reference resolves to.
type refKind int

const (
	refTable  refKind = iota // a column of a Q3 FROM alias
	refObject                // a column of the current object row (o.*)
	refParam                 // a free identifier bound as a query parameter
)

// refInfo is a resolved column reference.
type refInfo struct {
	kind  refKind
	depth int    // FROM position for refTable
	col   int    // column index within the alias's table for refTable
	name  string // column name for refObject, parameter name for refParam
}

// probePlan is one hash-indexed equality access path: rows of the alias
// whose indexed column equals the probe expression's value, prebuilt at
// compile time over the immutable table snapshot.
type probePlan struct {
	col    int                 // indexed column within the alias's table
	rhs    sql.Expr            // probe value; references earlier aliases, o.*, params
	numIdx map[float64][]int32 // a float column's rows by value
	intIdx map[int64][]int32   // an int column's rows by value
	wide   map[float64][]int32 // an int column's rows of magnitude ≥ 2^53, by float64 value
	strIdx map[string][]int32
	all    []int32 // every row id, for NaN probes (NaN compares equal to all)
}

// aliasPlan is the per-FROM-entry piece of the join plan, in FROM order
// (preserved so float aggregate accumulation order matches the
// interpreter's nested loop exactly).
type aliasPlan struct {
	name    string
	tabName string // catalog name of the bound table (for delta patching)
	tab     *dataset.Table
	probe   *probePlan // nil means scan all rows
	filters []sql.Expr // conjuncts decided at this depth
}

// shortKind selects the EXISTS short-circuit strategy.
type shortKind int

const (
	shortNone     shortKind = iota
	shortNoHaving           // no HAVING: first full row decides EXISTS
	shortCount              // HAVING COUNT(*) <op> threshold: abort when settled
)

// Program is the compile-time artifact: the analyzed join plan with its
// prebuilt hash indexes, shared by every Bind against the same table
// snapshot. A Program is immutable and safe for concurrent use.
type Program struct {
	aliases []aliasPlan
	pre     []sql.Expr // conjuncts referencing no alias: evaluated once per object
	having  sql.Expr   // nil when Q3 has no HAVING
	aggs    []*sql.FuncCall

	short     shortKind
	countSlot int      // aggregate slot of the monotone COUNT(*)
	countOp   string   // comparison with the count on the left
	threshold sql.Expr // per-object-constant right-hand side

	objCols []string // o.* columns the predicate reads

	// floatGroupChecks are the float GROUP BY columns whose values Compile
	// scanned for NaN (which would break the single-group plan); Extend
	// re-runs the scan over delta rows only.
	floatGroupChecks []refInfo

	// resolution context, reused by Bind's typed lowering
	aliasNames []string
	groupCols  map[string]bool
}

// Indexes reports how many hash indexes the program prebuilt — zero means
// every alias is still scanned (the compilation win is then only the
// closure lowering and short-circuiting).
func (p *Program) Indexes() int {
	n := 0
	for _, ap := range p.aliases {
		if ap.probe != nil {
			n++
		}
	}
	return n
}

// Compile analyzes the decomposed predicate against the catalog and builds
// the join plan and hash indexes. It returns an *Unsupported error for any
// construct outside the compilable subset; the caller then keeps the
// interpreted path.
func Compile(dec *engine.Decomposed, cat engine.Catalog) (*Program, error) {
	sub, ok := dec.Predicate.(*sql.SubqueryExpr)
	if !ok || !sub.Exists {
		return nil, unsupportedf("predicate is not an EXISTS subquery")
	}
	q3 := sub.Query
	if q3.Distinct || len(q3.OrderBy) > 0 || q3.HasLimit {
		return nil, unsupportedf("Q3 uses DISTINCT/ORDER BY/LIMIT")
	}
	if len(q3.From) == 0 {
		return nil, unsupportedf("Q3 has no FROM clause")
	}

	p := &Program{
		groupCols: make(map[string]bool, len(dec.GroupCols)),
		countSlot: -1,
	}
	for _, c := range dec.GroupCols {
		p.groupCols[c] = true
	}
	seen := make(map[string]bool, len(q3.From))
	for _, tr := range q3.From {
		if tr.Subquery != nil {
			return nil, unsupportedf("FROM subquery")
		}
		tab, ok := cat[tr.Name]
		if !ok {
			return nil, unsupportedf("unknown table %q", tr.Name)
		}
		name := tr.BindName()
		if name == engine.ObjectAlias {
			return nil, unsupportedf("FROM alias shadows the object alias")
		}
		if seen[name] {
			return nil, unsupportedf("duplicate FROM alias %q", name)
		}
		seen[name] = true
		p.aliases = append(p.aliases, aliasPlan{name: name, tabName: tr.Name, tab: tab})
		p.aliasNames = append(p.aliasNames, name)
	}

	// Projection: the decomposition selects the GL column references, which
	// cannot fail at projection time. Anything richer could error per group
	// in the interpreter, which the compiled path would not replicate.
	for _, it := range q3.Select {
		if it.Star {
			return nil, unsupportedf("SELECT * in Q3")
		}
		cr, ok := it.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, unsupportedf("Q3 selects a non-column expression")
		}
		ref, err := p.resolve(cr)
		if err != nil {
			return nil, err
		}
		if ref.kind != refTable {
			return nil, unsupportedf("Q3 selects %s, which is not a table column", cr.String())
		}
	}

	// Classify WHERE conjuncts by the deepest alias they reference.
	conjuncts := sql.SplitConjuncts(q3.Where)
	depths := make([]int, len(conjuncts))
	for ci, c := range conjuncts {
		if err := p.validate(c, false); err != nil {
			return nil, err
		}
		d, err := p.maxDepth(c)
		if err != nil {
			return nil, err
		}
		depths[ci] = d
	}

	// Probe selection: for each alias, the first equality conjunct whose
	// column lives at this depth and whose other side is fully available
	// before the alias is scanned becomes a hash-index probe. Conjuncts an
	// index cannot capture faithfully (NaN values in a float column make
	// hash lookup diverge from the interpreter's NaN-equals-everything
	// compare) stay as filters.
	consumed := make([]bool, len(conjuncts))
	for ci, c := range conjuncts {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		for _, side := range [2][2]sql.Expr{{be.L, be.R}, {be.R, be.L}} {
			colExpr, rhs := side[0], side[1]
			cr, ok := colExpr.(*sql.ColumnRef)
			if !ok {
				continue
			}
			ref, err := p.resolve(cr)
			if err != nil || ref.kind != refTable {
				continue
			}
			if p.aliases[ref.depth].probe != nil {
				continue // one probe per alias; extras stay filters
			}
			rd, err := p.maxDepth(rhs)
			if err != nil || rd >= ref.depth {
				continue // probe value not available before this alias
			}
			probe, ok := buildIndex(p.aliases[ref.depth].tab, ref.col)
			if !ok {
				continue
			}
			probe.rhs = rhs
			p.aliases[ref.depth].probe = probe
			consumed[ci] = true
			break
		}
	}
	for ci, c := range conjuncts {
		if consumed[ci] {
			continue
		}
		if depths[ci] < 0 {
			p.pre = append(p.pre, c)
		} else {
			p.aliases[depths[ci]].filters = append(p.aliases[depths[ci]].filters, c)
		}
	}

	// Single-group property: every GROUP BY column must be pinned by an
	// equality against a per-object constant (the GL = o.* conjuncts the
	// decomposition injects), so all WHERE-passing rows share one group key
	// and EXISTS reduces to "any row, and HAVING on that one group".
	if len(q3.GroupBy) == 0 {
		return nil, unsupportedf("Q3 has no GROUP BY")
	}
	for _, g := range q3.GroupBy {
		cr, ok := g.(*sql.ColumnRef)
		if !ok {
			return nil, unsupportedf("GROUP BY expression %s is not a column", g.String())
		}
		ref, err := p.resolve(cr)
		if err != nil {
			return nil, err
		}
		if ref.kind != refTable {
			return nil, unsupportedf("GROUP BY column %s is not a table column", cr.String())
		}
		if !p.pinned(conjuncts, ref) {
			return nil, unsupportedf("GROUP BY column %s is not pinned to a per-object constant", cr.String())
		}
		// The interpreter's group keys give every NaN-keyed row a shared NaN
		// group, which would split the single group this plan relies on.
		// -0 needs no check: it keys as 0, the value it equals.
		tab := p.aliases[ref.depth].tab
		if tab.Schema()[ref.col].Kind == dataset.Float {
			for _, v := range tab.FloatsAt(ref.col) {
				if math.IsNaN(v) {
					return nil, unsupportedf("GROUP BY column %s contains NaN", cr.String())
				}
			}
			p.floatGroupChecks = append(p.floatGroupChecks, ref)
		}
	}

	// HAVING: collect aggregate slots in the interpreter's order and detect
	// the monotone COUNT(*) short-circuit.
	p.having = q3.Having
	if p.having == nil {
		p.short = shortNoHaving
	} else {
		aggs := engine.AppendAggregates(nil, p.having)
		for _, fc := range aggs {
			if fc.Distinct {
				return nil, unsupportedf("DISTINCT aggregate %s", fc.String())
			}
			if fc.Star {
				if fc.Name != "COUNT" {
					return nil, unsupportedf("%s(*)", fc.Name)
				}
				continue
			}
			if len(fc.Args) != 1 {
				return nil, unsupportedf("aggregate %s with %d arguments", fc.Name, len(fc.Args))
			}
			if err := p.validate(fc.Args[0], false); err != nil {
				return nil, err
			}
		}
		p.aggs = aggs
		if err := p.validate(p.having, true); err != nil {
			return nil, err
		}
		p.detectMonotoneCount()
		p.short = shortNone
		if p.countSlot >= 0 {
			p.short = shortCount
		}
	}
	return p, nil
}

// pinned reports whether an equality conjunct fixes the referenced column
// to an expression with no alias references (a per-object constant).
func (p *Program) pinned(conjuncts []sql.Expr, ref refInfo) bool {
	for _, c := range conjuncts {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		for _, side := range [2][2]sql.Expr{{be.L, be.R}, {be.R, be.L}} {
			cr, ok := side[0].(*sql.ColumnRef)
			if !ok {
				continue
			}
			r, err := p.resolve(cr)
			if err != nil || r.kind != refTable || r.depth != ref.depth || r.col != ref.col {
				continue
			}
			if d, err := p.maxDepth(side[1]); err == nil && d < 0 {
				return true
			}
		}
	}
	return false
}

// detectMonotoneCount recognizes HAVING of the exact shape
// COUNT(*) <op> threshold (or mirrored) with a per-object-constant
// threshold, enabling the early abort once the growing count settles the
// comparison.
func (p *Program) detectMonotoneCount() {
	be, ok := p.having.(*sql.BinaryExpr)
	if !ok {
		return
	}
	isCountStar := func(e sql.Expr) (int, bool) {
		fc, ok := e.(*sql.FuncCall)
		if !ok || fc.Name != "COUNT" || !fc.Star {
			return 0, false
		}
		for si, a := range p.aggs {
			if a == fc {
				return si, true
			}
		}
		return 0, false
	}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
	op, ok := flip[be.Op]
	if !ok {
		return
	}
	if slot, ok := isCountStar(be.L); ok {
		if d, err := p.maxDepth(be.R); err == nil && d < 0 && engine.AppendAggregates(nil, be.R) == nil {
			p.countSlot, p.countOp, p.threshold = slot, be.Op, be.R
		}
		return
	}
	if slot, ok := isCountStar(be.R); ok {
		if d, err := p.maxDepth(be.L); err == nil && d < 0 && engine.AppendAggregates(nil, be.L) == nil {
			p.countSlot, p.countOp, p.threshold = slot, op, be.L
		}
	}
}

// CountParam reports the parameter a HAVING of the exact shape
// COUNT(*) <op> name (or mirrored) compares the group's row count with, and
// op written with the count on the left. ok is false for every other HAVING,
// a literal or computed threshold among them. A Bound of such a program
// reports counts (NewCountFn), so one evaluation can answer the predicate at
// every threshold CountSettles allows.
func (p *Program) CountParam() (name, op string, ok bool) {
	cr, isRef := p.threshold.(*sql.ColumnRef)
	if p.short != shortCount || !isRef {
		return "", "", false
	}
	if ref, err := p.resolve(cr); err != nil || ref.kind != refParam {
		return "", "", false
	}
	return cr.Name, p.countOp, true
}

// resolve mirrors the engine's scope resolution for Q3: FROM aliases bind
// innermost, the object alias binds in the enclosing scope, and remaining
// unqualified names are parameters.
func (p *Program) resolve(cr *sql.ColumnRef) (refInfo, error) {
	if cr.Qualifier != "" {
		if cr.Qualifier == engine.ObjectAlias {
			if !p.groupCols[cr.Name] {
				return refInfo{}, unsupportedf("object has no column %q", cr.Name)
			}
			return refInfo{kind: refObject, name: cr.Name}, nil
		}
		for d, name := range p.aliasNames {
			if name == cr.Qualifier {
				ci := p.aliases[d].tab.ColIndex(cr.Name)
				if ci < 0 {
					return refInfo{}, unsupportedf("table %q has no column %q", cr.Qualifier, cr.Name)
				}
				return refInfo{kind: refTable, depth: d, col: ci}, nil
			}
		}
		return refInfo{}, unsupportedf("unknown alias %q", cr.Qualifier)
	}
	found := refInfo{}
	matches := 0
	for d := range p.aliases {
		if ci := p.aliases[d].tab.ColIndex(cr.Name); ci >= 0 {
			found = refInfo{kind: refTable, depth: d, col: ci}
			matches++
		}
	}
	switch {
	case matches > 1:
		return refInfo{}, unsupportedf("ambiguous column %q", cr.Name)
	case matches == 1:
		return found, nil
	case p.groupCols[cr.Name]:
		return refInfo{kind: refObject, name: cr.Name}, nil
	default:
		return refInfo{kind: refParam, name: cr.Name}, nil
	}
}

// maxDepth returns the deepest FROM alias an expression references, or -1
// when it references none (object columns and parameters are per-object
// constants). Object columns read are recorded as a side effect.
func (p *Program) maxDepth(e sql.Expr) (int, error) {
	depth := -1
	var werr error
	sql.WalkExpr(e, func(x sql.Expr) {
		cr, ok := x.(*sql.ColumnRef)
		if !ok || werr != nil {
			return
		}
		ref, err := p.resolve(cr)
		if err != nil {
			werr = err
			return
		}
		switch ref.kind {
		case refTable:
			if ref.depth > depth {
				depth = ref.depth
			}
		case refObject:
			p.recordObjCol(ref.name)
		}
	})
	return depth, werr
}

func (p *Program) recordObjCol(name string) {
	for _, c := range p.objCols {
		if c == name {
			return
		}
	}
	p.objCols = append(p.objCols, name)
}

// validate rejects constructs the compiler does not lower: subqueries,
// unknown operators and functions, unresolvable columns, and, outside
// HAVING, aggregates. Every aggregate call in HAVING is one of the program's
// slots, whose arguments Compile has validated as row-level expressions.
func (p *Program) validate(e sql.Expr, having bool) error {
	var werr error
	sql.WalkExpr(e, func(x sql.Expr) {
		if werr != nil {
			return
		}
		switch n := x.(type) {
		case *sql.SubqueryExpr:
			werr = unsupportedf("nested subquery")
			if having {
				werr = unsupportedf("subquery in HAVING")
			}
		case *sql.FuncCall:
			if _, agg := engine.Aggregate(n.Name); agg {
				if !having {
					werr = unsupportedf("aggregate %s outside HAVING", n.Name)
				}
			} else if engine.ScalarFunc(n.Name) == nil {
				werr = unsupportedf("unknown function %s", n.Name)
			}
		case *sql.ColumnRef:
			_, werr = p.resolve(n)
		case *sql.BinaryExpr:
			if !knownBinaryOp(n.Op) {
				werr = unsupportedf("operator %q", n.Op)
			}
		case *sql.UnaryExpr:
			if n.Op != "NOT" && n.Op != "-" {
				werr = unsupportedf("unary operator %q", n.Op)
			}
		}
	})
	return werr
}

// buildIndex hashes every row of the column. It refuses float columns
// containing NaN: under the interpreter's compare, NaN is equal to
// everything, which a hash bucket cannot express. ±0 need no special case
// (Go map keys fold them).
func buildIndex(tab *dataset.Table, col int) (*probePlan, bool) {
	n := tab.NumRows()
	pp := &probePlan{col: col, all: make([]int32, 0, n)}
	switch tab.Schema()[col].Kind {
	case dataset.Float:
		pp.numIdx = make(map[float64][]int32, n)
	case dataset.Int:
		pp.intIdx = make(map[int64][]int32, n)
	case dataset.String:
		pp.strIdx = make(map[string][]int32, n)
	default:
		return nil, false
	}
	if pp.extend(tab, 0, n) != nil {
		return nil, false
	}
	return pp, true
}

func knownBinaryOp(op string) bool {
	switch op {
	case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return engine.ArithOp(op) != nil
}
