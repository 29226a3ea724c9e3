package engine

import (
	"fmt"
	"sort"

	"repro/internal/sql"
)

// Run executes stmt against the evaluator's catalog. outer, which may be
// nil, supplies bindings for correlated references.
func (ev *Evaluator) Run(stmt *sql.SelectStmt, outer *Scope) (*ResultSet, error) {
	// Resolve FROM.
	sc := NewScope(outer)
	var cursors []*binding
	for _, tr := range stmt.From {
		var rel Relation
		if tr.Subquery != nil {
			sub, err := ev.Run(tr.Subquery, outer)
			if err != nil {
				return nil, err
			}
			rel = sub
		} else {
			t, ok := ev.Cat[tr.Name]
			if !ok {
				return nil, fmt.Errorf("engine: unknown table %q", tr.Name)
			}
			rel = NewTableRelation(t)
		}
		cursors = append(cursors, sc.Bind(tr.BindName(), rel))
	}

	// Classify the query: grouped iff GROUP BY present or aggregates appear.
	var aggCalls []*sql.FuncCall
	for _, it := range stmt.Select {
		if !it.Star {
			aggCalls = AppendAggregates(aggCalls, it.Expr)
		}
	}
	aggCalls = AppendAggregates(aggCalls, stmt.Having)
	grouped := len(stmt.GroupBy) > 0 || len(aggCalls) > 0
	if stmt.Having != nil && !grouped {
		return nil, fmt.Errorf("engine: HAVING without grouping")
	}

	// Output columns.
	cols, starExpand, err := outputColumns(stmt, cursors)
	if err != nil {
		return nil, err
	}

	res := &ResultSet{Cols: cols}
	var distinctSeen map[string]bool
	if stmt.Distinct {
		distinctSeen = make(map[string]bool)
	}

	if !grouped {
		err := ev.enumerate(cursors, 0, func() error {
			ev.Stats.RowsScanned++
			if stmt.Where != nil {
				ev.Stats.PredicateEval++
				if b, err := ev.evalBool(stmt.Where, sc, nil, "WHERE"); err != nil || !b {
					return err
				}
			}
			row, err := ev.projectRow(stmt, sc, nil, starExpand, cursors)
			if err != nil {
				return err
			}
			appendMaybeDistinct(res, row, distinctSeen)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := orderAndLimit(stmt, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Grouped execution: hash aggregation with representative rows.
	type group struct {
		repRows []int // row index per cursor at first group member
		accs    []Accumulator
	}
	groups := make(map[string]*group)
	var order []string
	keyVals := make([]Value, len(stmt.GroupBy)) // the current row's GROUP BY values
	var key []byte                              // and their rowKey

	err = ev.enumerate(cursors, 0, func() error {
		ev.Stats.RowsScanned++
		if stmt.Where != nil {
			ev.Stats.PredicateEval++
			if b, err := ev.evalBool(stmt.Where, sc, nil, "WHERE"); err != nil || !b {
				return err
			}
		}
		for i, g := range stmt.GroupBy {
			v, err := ev.Eval(g, sc)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key = appendRowKey(key[:0], keyVals)
		grp, ok := groups[string(key)]
		if !ok {
			k := string(key)
			rep := make([]int, len(cursors))
			for i, c := range cursors {
				rep[i] = c.row
			}
			grp = &group{repRows: rep, accs: newAccumulators(aggCalls)}
			groups[k] = grp
			order = append(order, k)
		}
		for i, fc := range aggCalls {
			if err := ev.accumulate(&grp.accs[i], fc, sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A global aggregate (no GROUP BY) over zero rows still yields one row.
	if len(stmt.GroupBy) == 0 && len(groups) == 0 {
		grp := &group{repRows: nil, accs: newAccumulators(aggCalls)}
		groups[""] = grp
		order = append(order, "")
	}

	for _, k := range order {
		grp := groups[k]
		if grp.repRows != nil {
			for i, c := range cursors {
				c.row = grp.repRows[i]
			}
		}
		aggs := make(aggEnv, len(aggCalls))
		for i, fc := range aggCalls {
			aggs[fc] = grp.accs[i].Result()
		}
		if stmt.Having != nil {
			ev.Stats.PredicateEval++
			b, err := ev.evalBool(stmt.Having, sc, aggs, "HAVING")
			if err != nil {
				return nil, err
			}
			if !b {
				continue
			}
		}
		row, err := ev.projectRow(stmt, sc, aggs, starExpand, cursors)
		if err != nil {
			return nil, err
		}
		appendMaybeDistinct(res, row, distinctSeen)
	}
	if err := orderAndLimit(stmt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// orderAndLimit applies ORDER BY and LIMIT to a materialized result. Order
// keys must be output columns (by name) or 1-based output positions — the
// forms the repository's query class uses.
func orderAndLimit(stmt *sql.SelectStmt, res *ResultSet) error {
	if len(stmt.OrderBy) > 0 {
		type key struct {
			col  int
			desc bool
		}
		keys := make([]key, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			switch x := o.Expr.(type) {
			case *sql.ColumnRef:
				name := x.Name
				ci := res.ColIndex(name)
				if ci < 0 {
					return fmt.Errorf("engine: ORDER BY references unknown output column %q", name)
				}
				keys[i] = key{ci, o.Desc}
			case *sql.NumberLit:
				if !x.IsInt || x.Int < 1 || x.Int > int64(len(res.Cols)) {
					return fmt.Errorf("engine: ORDER BY position %v out of range", x.Value)
				}
				keys[i] = key{int(x.Int) - 1, o.Desc}
			default:
				return fmt.Errorf("engine: ORDER BY supports output columns or positions, got %s", o.Expr.String())
			}
		}
		var sortErr error
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for _, k := range keys {
				c, err := compare(&res.Rows[a][k.col], &res.Rows[b][k.col])
				if err != nil {
					if sortErr == nil {
						sortErr = err
					}
					return false
				}
				if c != 0 {
					if k.desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return sortErr
		}
	}
	if stmt.HasLimit && len(res.Rows) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
	}
	return nil
}

func appendMaybeDistinct(res *ResultSet, row []Value, seen map[string]bool) {
	if seen != nil {
		k := rowKey(row)
		if seen[k] {
			return
		}
		seen[k] = true
	}
	res.Rows = append(res.Rows, row)
}

// enumerate drives the nested-loop join over all cursors, invoking emit for
// each complete row combination.
func (ev *Evaluator) enumerate(cursors []*binding, depth int, emit func() error) error {
	if depth == len(cursors) {
		return emit()
	}
	c := cursors[depth]
	n := c.rel.NumRows()
	for i := 0; i < n; i++ {
		c.row = i
		if err := ev.enumerate(cursors, depth+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// outputColumns computes result column names; starExpand lists, for a bare
// SELECT *, the (cursorIndex, colIndex) pairs to copy.
func outputColumns(stmt *sql.SelectStmt, cursors []*binding) ([]string, [][2]int, error) {
	var cols []string
	var star [][2]int
	for _, it := range stmt.Select {
		if it.Star {
			for ci, c := range cursors {
				for j, name := range c.rel.Columns() {
					cols = append(cols, name)
					star = append(star, [2]int{ci, j})
				}
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				name = cr.Name
			} else {
				name = it.Expr.String()
			}
		}
		cols = append(cols, name)
	}
	return cols, star, nil
}

func (ev *Evaluator) projectRow(stmt *sql.SelectStmt, sc *Scope, aggs aggEnv, star [][2]int, cursors []*binding) ([]Value, error) {
	var row []Value
	for _, it := range stmt.Select {
		if it.Star {
			for _, se := range star {
				c := cursors[se[0]]
				row = append(row, c.rel.Value(c.row, se[1]))
			}
			continue
		}
		v, err := ev.eval(it.Expr, sc, aggs)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// accumulate adds the current row to a, the accumulator of the aggregate
// call fc.
func (ev *Evaluator) accumulate(a *Accumulator, fc *sql.FuncCall, sc *Scope) error {
	if fc.Star {
		a.Row()
		return nil
	}
	if len(fc.Args) != 1 {
		return fmt.Errorf("engine: %s expects 1 argument", fc.Name)
	}
	v, err := ev.Eval(fc.Args[0], sc)
	if err != nil {
		return err
	}
	return a.Add(v)
}

func newAccumulators(calls []*sql.FuncCall) []Accumulator {
	accs := make([]Accumulator, len(calls))
	for i, fc := range calls {
		accs[i] = NewAccumulator(fc)
	}
	return accs
}
