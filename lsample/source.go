package lsample

import (
	"sort"
	"sync"
)

// DataSource abstracts where objects come from: a Session resolves every
// table a query references through its source. Implementations must return
// stable snapshots — a *Table handed out once must never change, so a
// PreparedQuery bound to it stays consistent for its lifetime. The SDK
// ships MemorySource, over tables registered in memory — from OpenCSV,
// SyntheticTable or NewTable — and NewLiveSource, over live tables.
//
// Prepare resolves tables one at a time, so replacing several tables in a
// live source while a multi-table query is being prepared can bind a
// catalog that mixes data generations. Callers that update related tables
// together should prepare against a frozen source instead — resolve the
// tables they care about once, put them in a fresh MemorySource, and
// Prepare there (the HTTP service's versioned registry does exactly this).
type DataSource interface {
	// Table returns the named table, or an error wrapping ErrInvalid when
	// the source does not have it.
	Table(name string) (*Table, error)
	// Names lists the tables this source can serve, sorted.
	Names() []string
}

// MemorySource serves tables registered in memory. It is safe for
// concurrent use; registering a table under an existing name replaces it
// (sessions that already prepared against the old snapshot keep it).
type MemorySource struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewMemorySource returns a source serving the given tables, keyed by
// their names.
func NewMemorySource(tables ...*Table) *MemorySource {
	s := &MemorySource{tables: make(map[string]*Table, len(tables))}
	for _, t := range tables {
		s.tables[t.Name()] = t
	}
	return s
}

// Add registers or replaces a table.
func (s *MemorySource) Add(t *Table) {
	s.mu.Lock()
	s.tables[t.Name()] = t
	s.mu.Unlock()
}

// Table implements DataSource.
func (s *MemorySource) Table(name string) (*Table, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, badf("unknown dataset %q", name)
	}
	return t, nil
}

// Names implements DataSource.
func (s *MemorySource) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}
