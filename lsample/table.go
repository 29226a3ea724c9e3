package lsample

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/live"
)

// Table is an immutable, typed, named relation — the unit of data every
// DataSource serves. Build one in memory with NewTable/AppendRow, load one
// from CSV with ReadCSV/OpenCSV, generate one of the paper's synthetic
// datasets with SyntheticTable, or pin one from a LiveTable with Snapshot.
// Once a table has been handed to a DataSource or Session it must not be
// modified.
type Table struct {
	tab  *dataset.Table
	live *liveMeta // non-nil when the table is a pinned live snapshot

	// sid is the process-unique snapshot identity, assigned lazily on first
	// use (0 = unassigned). Two distinct *Table pins never share an id, so
	// catalog keys built from it can never alias different data; re-pinning
	// the same data costs at most a catalog miss, never a wrong hit.
	sid atomic.Uint64
}

// snapCounter feeds snapshotID; id 0 is reserved for "unassigned".
var snapCounter atomic.Uint64

// snapshotID returns the table's process-unique snapshot identity,
// assigning one on first call.
func (t *Table) snapshotID() uint64 {
	for {
		if v := t.sid.Load(); v != 0 {
			return v
		}
		if t.sid.CompareAndSwap(0, snapCounter.Add(1)) {
			return t.sid.Load()
		}
	}
}

// liveMeta identifies which live table a snapshot came from and where in
// its history it was pinned; LiveQuery.Refresh uses it to price deltas
// (live.PrefixExtends).
type liveMeta struct {
	src  *live.Table
	snap *live.Snapshot
}

// NewTable creates an empty table with the given name and schema. The
// schema is the compact "name:kind,name:kind" form with kinds int, float,
// and string, e.g. "id:int,x:float,y:float".
func NewTable(name, schema string) (*Table, error) {
	sch, err := parseSchema(schema)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, badf("missing table name")
	}
	return &Table{tab: dataset.New(name, sch)}, nil
}

// AppendRow appends one row; values must match the schema kinds in order
// (int64 or int for int columns, float64 for float, string for string).
// Tables pinned from a LiveTable are immutable snapshots and reject
// appends — apply a delta to the live table instead.
func (t *Table) AppendRow(vals ...any) error {
	if t.live != nil {
		return badf("table %q is a pinned live snapshot; apply deltas to the LiveTable instead", t.Name())
	}
	return t.tab.AppendRow(vals...)
}

// Name returns the table name queries refer to.
func (t *Table) Name() string { return t.tab.Name }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.tab.NumRows() }

// NumCols returns the column count.
func (t *Table) NumCols() int { return t.tab.NumCols() }

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int { return t.tab.ColIndex(name) }

// Float reads a float cell.
func (t *Table) Float(row, col int) float64 { return t.tab.Float(row, col) }

// Int reads an int cell.
func (t *Table) Int(row, col int) int64 { return t.tab.Int(row, col) }

// Str reads a string cell.
func (t *Table) Str(row, col int) string { return t.tab.Str(row, col) }

// ReadCSV parses CSV data (with a header row) into a table under the given
// name and schema spec.
func ReadCSV(name, schema string, r io.Reader) (*Table, error) {
	sch, err := parseSchema(schema)
	if err != nil {
		return nil, err
	}
	tab, err := dataset.ReadCSV(name, sch, r)
	if err != nil {
		// Double-wrap: callers branch on ErrInvalid, but the underlying
		// error (e.g. an http.MaxBytesError from a capped upload body) must
		// stay reachable through the chain too.
		return nil, fmt.Errorf("%w: reading CSV for %q: %w", ErrInvalid, name, err)
	}
	return &Table{tab: tab}, nil
}

// OpenCSV is ReadCSV over a file path.
func OpenCSV(name, schema, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, badf("opening %s: %v", path, err)
	}
	defer f.Close()
	return ReadCSV(name, schema, f)
}

// SyntheticTable generates one of the paper's synthetic datasets: kind
// "sports" (strikeouts/wins, Example 2) or "neighbors" (f0/f1, Example 1),
// with the given number of rows (0 means the paper's scale) and seed.
func SyntheticTable(kind string, rows int, seed uint64) (*Table, error) {
	switch kind {
	case "sports":
		return &Table{tab: dataset.Sports(rows, seed)}, nil
	case "neighbors":
		return &Table{tab: dataset.Neighbors(rows, seed)}, nil
	}
	return nil, badf("unknown synthetic dataset %q (want sports or neighbors)", kind)
}

// parseSchema parses the compact "name:kind,name:kind" schema syntax.
func parseSchema(spec string) (dataset.Schema, error) {
	if spec == "" {
		return nil, badf("missing schema (want name:kind,name:kind with kinds int|float|string)")
	}
	var schema dataset.Schema
	for _, part := range strings.Split(spec, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || name == "" {
			return nil, badf("schema entry %q is not name:kind", part)
		}
		var k dataset.Kind
		switch kind {
		case "int":
			k = dataset.Int
		case "float":
			k = dataset.Float
		case "string":
			k = dataset.String
		default:
			return nil, badf("schema entry %q: unknown kind %q", part, kind)
		}
		schema = append(schema, dataset.Column{Name: name, Kind: k})
	}
	return schema, nil
}

// badf wraps a caller error so it tests true against ErrInvalid.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}
