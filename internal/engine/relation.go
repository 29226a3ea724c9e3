package engine

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/sql"
)

// Relation is a read-only rowset: either a base table or a materialized
// intermediate result.
type Relation interface {
	NumRows() int
	Columns() []string
	ColIndex(name string) int
	Value(row, col int) Value
}

// tableRel adapts a dataset.Table to Relation.
type tableRel struct {
	t     *dataset.Table
	cols  []string
	kinds []dataset.Kind
}

// NewTableRelation wraps a dataset table as a Relation.
func NewTableRelation(t *dataset.Table) Relation {
	cols := make([]string, t.NumCols())
	kinds := make([]dataset.Kind, t.NumCols())
	for i, c := range t.Schema() {
		cols[i], kinds[i] = c.Name, c.Kind
	}
	return &tableRel{t: t, cols: cols, kinds: kinds}
}

func (r *tableRel) NumRows() int      { return r.t.NumRows() }
func (r *tableRel) Columns() []string { return r.cols }
func (r *tableRel) ColIndex(name string) int {
	return r.t.ColIndex(name)
}
func (r *tableRel) Value(row, col int) Value {
	switch r.kinds[col] {
	case dataset.Float:
		return FloatVal(r.t.Float(row, col))
	case dataset.Int:
		return IntVal(r.t.Int(row, col))
	default:
		return StringVal(r.t.Str(row, col))
	}
}

// ResultSet is a fully materialized query result.
type ResultSet struct {
	Cols []string
	Rows [][]Value
}

// NumRows returns the number of rows.
func (r *ResultSet) NumRows() int { return len(r.Rows) }

// Columns returns the output column names.
func (r *ResultSet) Columns() []string { return r.Cols }

// ColIndex returns the position of the named column, or -1.
func (r *ResultSet) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the value at (row, col).
func (r *ResultSet) Value(row, col int) Value { return r.Rows[row][col] }

// Catalog maps table names to base tables.
type Catalog map[string]*dataset.Table

// binding associates an alias with one current row of a relation.
type binding struct {
	name string
	rel  Relation
	row  int
}

// Scope is a chain of row bindings; inner scopes shadow outer ones, which is
// how correlated subqueries see the outer query's current row.
//
// Every binding of a scope and of its parents exists before the scope's
// first evaluation — Run binds FROM before it enumerates, ObjectPredicate
// binds the object before it evaluates — and afterwards only a binding's
// row moves. So a column reference resolves to the same binding and column
// — or to none — on every row, and refs remembers that answer for each (the
// reference itself at the same position of keys, which the lookup scans).
type Scope struct {
	parent   *Scope
	bindings []*binding
	keys     []*sql.ColumnRef
	refs     []resolvedRef
}

// resolvedRef is where a column reference resolved in a scope. A numeric
// column of a base table keeps its backing slice in fs or is, and a column
// of a materialized relation keeps the relation in rs, so a comparison
// reads the number in place (Evaluator.numLeaf) instead of through
// Relation.Value.
type resolvedRef struct {
	b   *binding
	col int
	fs  []float64
	is  []int64
	rs  *ResultSet
}

// NewScope returns a scope with parent as enclosing scope.
func NewScope(parent *Scope) *Scope { return &Scope{parent: parent} }

// Bind adds an alias binding and returns the binding handle so the executor
// can advance its row cursor. Bind before the scope's first evaluation.
func (s *Scope) Bind(name string, rel Relation) *binding {
	b := &binding{name: name, rel: rel}
	s.bindings = append(s.bindings, b)
	return b
}

// BindRow adds an alias binding fixed at a specific row (used to bind the
// decomposed object alias).
func (s *Scope) BindRow(name string, rel Relation, row int) {
	s.bindings = append(s.bindings, &binding{name: name, rel: rel, row: row})
}

// column returns where a column reference resolves, with a nil binding
// when no binding of the chain has it (it may name a parameter). Either
// answer is remembered, since the bindings never change, so a parameter
// stops walking the chain after its first row; an ambiguous or misqualified
// reference takes the full path, and raises its error, on every evaluation.
func (s *Scope) column(x *sql.ColumnRef) (*resolvedRef, error) {
	for i, k := range s.keys {
		if k == x {
			return &s.refs[i], nil
		}
	}
	b, ci, err := s.resolve(x.Qualifier, x.Name)
	if err != nil {
		return nil, err
	}
	r := resolvedRef{b: b, col: ci}
	if b != nil {
		switch rel := b.rel.(type) {
		case *tableRel:
			switch rel.kinds[ci] {
			case dataset.Float:
				r.fs = rel.t.FloatsAt(ci)
			case dataset.Int:
				r.is = rel.t.IntsAt(ci)
			}
		case *ResultSet:
			r.rs = rel
		}
	}
	s.keys = append(s.keys, x)
	s.refs = append(s.refs, r)
	return &s.refs[len(s.refs)-1], nil
}

// resolve finds the binding and column of a (possibly qualified) column
// reference, or a nil binding when the chain has none.
func (s *Scope) resolve(qualifier, name string) (*binding, int, error) {
	for sc := s; sc != nil; sc = sc.parent {
		if qualifier != "" {
			for _, b := range sc.bindings {
				if b.name == qualifier {
					ci := b.rel.ColIndex(name)
					if ci < 0 {
						return nil, -1, fmt.Errorf("engine: table %q has no column %q", qualifier, name)
					}
					return b, ci, nil
				}
			}
			continue
		}
		// Unqualified: must be unique among bindings at this level.
		var found *binding
		ci := -1
		for _, b := range sc.bindings {
			if j := b.rel.ColIndex(name); j >= 0 {
				if found != nil {
					return nil, -1, fmt.Errorf("engine: ambiguous column %q", name)
				}
				found, ci = b, j
			}
		}
		if found != nil {
			return found, ci, nil
		}
	}
	return nil, -1, nil
}
