// Package dataset provides the column-typed in-memory tables that play the
// role of the paper's stored relations, together with CSV import/export and
// the synthetic generators that stand in for the two evaluation datasets
// (MLB pitching statistics and the KDD Cup 1999 connection sample — see
// DESIGN.md §2 for the substitution rationale).
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Kind is the type of a column.
type Kind int

const (
	// Float is a 64-bit floating point column.
	Float Kind = iota
	// Int is a 64-bit integer column.
	Int
	// String is a text column.
	String
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table is a column-major in-memory relation. The zero value is not useful;
// construct with New.
type Table struct {
	Name   string
	schema Schema
	floats map[int][]float64
	ints   map[int][]int64
	strs   map[int][]string
	n      int
}

// New returns an empty table with the given schema.
func New(name string, schema Schema) *Table {
	t := &Table{
		Name:   name,
		schema: append(Schema(nil), schema...),
		floats: make(map[int][]float64),
		ints:   make(map[int][]int64),
		strs:   make(map[int][]string),
	}
	for i, c := range schema {
		switch c.Kind {
		case Float:
			t.floats[i] = nil
		case Int:
			t.ints[i] = nil
		case String:
			t.strs[i] = nil
		}
	}
	return t
}

// Schema returns the table's schema. The caller must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.n }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.schema) }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int { return t.schema.Index(name) }

// AppendRow appends one row. vals must match the schema in length and kind
// (float64 for Float, int64 for Int, string for String).
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("dataset: row has %d values, schema has %d columns", len(vals), len(t.schema))
	}
	for i, c := range t.schema {
		switch c.Kind {
		case Float:
			v, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("dataset: column %q wants float64, got %T", c.Name, vals[i])
			}
			t.floats[i] = append(t.floats[i], v)
		case Int:
			v, ok := vals[i].(int64)
			if !ok {
				return fmt.Errorf("dataset: column %q wants int64, got %T", c.Name, vals[i])
			}
			t.ints[i] = append(t.ints[i], v)
		case String:
			v, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("dataset: column %q wants string, got %T", c.Name, vals[i])
			}
			t.strs[i] = append(t.strs[i], v)
		}
	}
	t.n++
	return nil
}

// MustAppendRow appends one row and panics on schema mismatch. Intended for
// generators whose rows are constructed programmatically.
func (t *Table) MustAppendRow(vals ...any) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Float returns the float value at (row, col). Panics if out of range or the
// column is not a Float column.
func (t *Table) Float(row, col int) float64 { return t.floats[col][row] }

// Int returns the int value at (row, col).
func (t *Table) Int(row, col int) int64 { return t.ints[col][row] }

// Str returns the string value at (row, col).
func (t *Table) Str(row, col int) string { return t.strs[col][row] }

// Value returns the value at (row, col) as an any.
func (t *Table) Value(row, col int) any {
	switch t.schema[col].Kind {
	case Float:
		return t.floats[col][row]
	case Int:
		return t.ints[col][row]
	default:
		return t.strs[col][row]
	}
}

// FloatColumn returns the backing slice of a Float column (shared, not
// copied). Panics if the column is not Float.
func (t *Table) FloatColumn(name string) []float64 {
	i := t.ColIndex(name)
	if i < 0 || t.schema[i].Kind != Float {
		panic(fmt.Sprintf("dataset: no float column %q", name))
	}
	return t.floats[i]
}

// IntColumn returns the backing slice of an Int column.
func (t *Table) IntColumn(name string) []int64 {
	i := t.ColIndex(name)
	if i < 0 || t.schema[i].Kind != Int {
		panic(fmt.Sprintf("dataset: no int column %q", name))
	}
	return t.ints[i]
}

// FloatsAt returns the backing slice of the Float column at position col
// (shared, not copied). Panics if the column is not a Float column. The
// positional accessors exist for compiled predicate evaluation, whose hot
// loop reads columns resolved once at compile time.
func (t *Table) FloatsAt(col int) []float64 {
	if t.schema[col].Kind != Float {
		panic(fmt.Sprintf("dataset: column %d (%q) is not float", col, t.schema[col].Name))
	}
	return t.floats[col]
}

// IntsAt returns the backing slice of the Int column at position col.
func (t *Table) IntsAt(col int) []int64 {
	if t.schema[col].Kind != Int {
		panic(fmt.Sprintf("dataset: column %d (%q) is not int", col, t.schema[col].Name))
	}
	return t.ints[col]
}

// StringsAt returns the backing slice of the String column at position col.
func (t *Table) StringsAt(col int) []string {
	if t.schema[col].Kind != String {
		panic(fmt.Sprintf("dataset: column %d (%q) is not string", col, t.schema[col].Name))
	}
	return t.strs[col]
}

// Prefix returns a view of the first n rows that shares t's column storage
// (no row data is copied). The view is the snapshot primitive of the live
// layer: a parent table may keep appending rows at positions ≥ n — appends
// never write below an already-published length — while every prefix view
// stays a stable, immutable relation. The caller must treat the view as
// read-only (never AppendRow to it) and must guarantee the parent never
// mutates rows below n in place.
func (t *Table) Prefix(n int) *Table {
	if n < 0 || n > t.n {
		panic(fmt.Sprintf("dataset: prefix %d out of range [0, %d]", n, t.n))
	}
	nt := &Table{
		Name:   t.Name,
		schema: t.schema,
		floats: make(map[int][]float64, len(t.floats)),
		ints:   make(map[int][]int64, len(t.ints)),
		strs:   make(map[int][]string, len(t.strs)),
		n:      n,
	}
	for i, c := range t.floats {
		nt.floats[i] = c[:n]
	}
	for i, c := range t.ints {
		nt.ints[i] = c[:n]
	}
	for i, c := range t.strs {
		nt.strs[i] = c[:n]
	}
	return nt
}

// Features extracts the named numeric columns into row-major feature
// vectors, the format consumed by internal/learn classifiers.
func (t *Table) Features(cols ...string) ([][]float64, error) {
	idx := make([]int, len(cols))
	for j, name := range cols {
		i := t.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("dataset: unknown column %q", name)
		}
		if t.schema[i].Kind == String {
			return nil, fmt.Errorf("dataset: column %q is not numeric", name)
		}
		idx[j] = i
	}
	out := make([][]float64, t.n)
	for r := 0; r < t.n; r++ {
		v := make([]float64, len(idx))
		for j, i := range idx {
			if t.schema[i].Kind == Float {
				v[j] = t.floats[i][r]
			} else {
				v[j] = float64(t.ints[i][r])
			}
		}
		out[r] = v
	}
	return out, nil
}

// WriteCSV writes the table (with a header row) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, c := range t.schema {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.schema))
	for r := 0; r < t.n; r++ {
		for i, c := range t.schema {
			switch c.Kind {
			case Float:
				rec[i] = strconv.FormatFloat(t.floats[i][r], 'g', -1, 64)
			case Int:
				rec[i] = strconv.FormatInt(t.ints[i][r], 10)
			case String:
				rec[i] = t.strs[i][r]
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table with the given schema from CSV data with a header
// row. The header must match the schema column names in order.
func ReadCSV(name string, schema Schema, r io.Reader) (*Table, error) {
	t := New(name, schema)
	if err := ReadCSVRows(schema, r, func(vals []any) error { return t.AppendRow(vals...) }); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadCSVRows reads CSV data whose header row names schema's columns in
// order and calls emit with each later row, every value parsed to its
// column's kind (float64, int64 or string) in a slice of its own. An error
// from emit stops the read and is returned as is.
func ReadCSVRows(schema Schema, r io.Reader, emit func(vals []any) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != len(schema) {
		return fmt.Errorf("dataset: CSV header has %d columns, schema %d", len(header), len(schema))
	}
	for i, h := range header {
		if h != schema[i].Name {
			return fmt.Errorf("dataset: CSV header column %d is %q, want %q", i, h, schema[i].Name)
		}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		vals := make([]any, len(schema))
		for i, c := range schema {
			switch c.Kind {
			case Float:
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return fmt.Errorf("dataset: CSV line %d column %q: %w", line, c.Name, err)
				}
				vals[i] = v
			case Int:
				v, err := strconv.ParseInt(rec[i], 10, 64)
				if err != nil {
					return fmt.Errorf("dataset: CSV line %d column %q: %w", line, c.Name, err)
				}
				vals[i] = v
			case String:
				vals[i] = rec[i]
			}
		}
		if err := emit(vals); err != nil {
			return err
		}
	}
}
