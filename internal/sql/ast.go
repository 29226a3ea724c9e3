package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is any SQL expression node.
type Expr interface {
	exprNode()
	// String renders the expression back to SQL.
	String() string
}

// ColumnRef is a (possibly qualified) column reference like o1.x or wins.
type ColumnRef struct {
	Qualifier string // table alias, "" if unqualified
	Name      string
}

// NumberLit is a numeric literal. IsInt records whether it was written
// without a fractional part or exponent and fits an int64; Int is then its
// exact value (Value rounds it past 2^53).
type NumberLit struct {
	Value float64
	IsInt bool
	Int   int64
}

// StringLit is a single-quoted string literal.
type StringLit struct {
	Value string
}

// BinaryExpr is a binary operation: arithmetic, comparison, AND, or OR.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is a (possibly aggregate) function call like COUNT(*), SQRT(x),
// or POWER(x, 2).
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// SubqueryExpr is a scalar subquery (SELECT ...) or EXISTS (SELECT ...).
type SubqueryExpr struct {
	Exists bool
	Query  *SelectStmt
}

func (*ColumnRef) exprNode()    {}
func (*NumberLit) exprNode()    {}
func (*StringLit) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*SubqueryExpr) exprNode() {}

// SelectItem is one output expression of a SELECT list.
type SelectItem struct {
	Star  bool // bare *
	Expr  Expr
	Alias string
}

// TableRef is one FROM-clause entry: a named table or a derived table.
type TableRef struct {
	Name     string      // base table name, "" if Subquery
	Subquery *SelectStmt // derived table, nil if base
	Alias    string      // binding alias ("" means Name)
}

// BindName returns the name the table is referred to by in expressions.
func (t TableRef) BindName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a single SELECT block.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    Expr // nil if absent
	GroupBy  []Expr
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	Limit    int // -1 (or 0 in a zero value) means no limit; set via HasLimit
	HasLimit bool
}

// --- Rendering back to SQL ---

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

func (n *NumberLit) String() string {
	if n.IsInt {
		return strconv.FormatInt(n.Int, 10)
	}
	// Render non-integer literals so they reparse as non-integer: a float
	// whose shortest form looks like a digit string (e.g. 1e3 → "1000")
	// would otherwise come back with IsInt set and change evaluation
	// semantics (IntVal vs FloatVal).
	s := fmt.Sprintf("%g", n.Value)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (s *StringLit) String() string {
	return "'" + strings.ReplaceAll(s.Value, "'", "''") + "'"
}

func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.String() + ")"
	}
	return "(-" + u.X.String() + ")"
}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

func (s *SubqueryExpr) String() string {
	if s.Exists {
		return "EXISTS (" + s.Query.String() + ")"
	}
	return "(" + s.Query.String() + ")"
}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		if t.Subquery != nil {
			sb.WriteString("(" + t.Subquery.String() + ")")
		} else {
			sb.WriteString(t.Name)
		}
		if t.Alias != "" && t.Alias != t.Name {
			sb.WriteString(" " + t.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.HasLimit {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// WalkExpr calls fn on e and every sub-expression (pre-order). It does not
// descend into subquery bodies.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// WalkStmtDeep calls exprFn on every expression of s and every
// sub-expression in pre-order, descending into subquery bodies (every clause
// of every nested statement), unlike WalkExpr, which stops at subquery
// boundaries. A nil exprFn or stmtFn is skipped; stmtFn is called on s and
// on each nested statement before its clauses are walked.
func WalkStmtDeep(s *SelectStmt, exprFn func(Expr), stmtFn func(*SelectStmt)) {
	walkStmtDeep(s, exprFn, stmtFn)
}

func walkExprDeep(e Expr, exprFn func(Expr), stmtFn func(*SelectStmt)) {
	if e == nil {
		return
	}
	if exprFn != nil {
		exprFn(e)
	}
	switch x := e.(type) {
	case *BinaryExpr:
		walkExprDeep(x.L, exprFn, stmtFn)
		walkExprDeep(x.R, exprFn, stmtFn)
	case *UnaryExpr:
		walkExprDeep(x.X, exprFn, stmtFn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExprDeep(a, exprFn, stmtFn)
		}
	case *SubqueryExpr:
		walkStmtDeep(x.Query, exprFn, stmtFn)
	}
}

func walkStmtDeep(s *SelectStmt, exprFn func(Expr), stmtFn func(*SelectStmt)) {
	if s == nil {
		return
	}
	if stmtFn != nil {
		stmtFn(s)
	}
	for _, tr := range s.From {
		walkStmtDeep(tr.Subquery, exprFn, stmtFn)
	}
	for _, it := range s.Select {
		if !it.Star {
			walkExprDeep(it.Expr, exprFn, stmtFn)
		}
	}
	walkExprDeep(s.Where, exprFn, stmtFn)
	for _, g := range s.GroupBy {
		walkExprDeep(g, exprFn, stmtFn)
	}
	walkExprDeep(s.Having, exprFn, stmtFn)
	for _, o := range s.OrderBy {
		walkExprDeep(o.Expr, exprFn, stmtFn)
	}
}

// Tables returns the base-table names referenced anywhere in stmt — the
// FROM clauses of the statement itself, of derived tables, and of
// subqueries inside any expression — deduplicated in first-reference
// order.
func Tables(stmt *SelectStmt) []string {
	var out []string
	seen := make(map[string]bool)
	WalkStmtDeep(stmt, nil, func(s *SelectStmt) {
		for _, tr := range s.From {
			if tr.Subquery == nil && !seen[tr.Name] {
				seen[tr.Name] = true
				out = append(out, tr.Name)
			}
		}
	})
	return out
}

// SplitConjuncts flattens a tree of ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjoin joins exprs with AND; it returns nil for an empty list.
func Conjoin(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
