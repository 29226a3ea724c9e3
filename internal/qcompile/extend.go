package qcompile

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Extend patches the program in place for a catalog whose tables are
// prefix-extensions of the ones it was compiled against: every table in cat
// must contain the rows the program has already indexed at the same
// positions with the same values (the contract live snapshots with an
// unchanged epoch provide), and oldRows gives the previously-indexed row
// count per table name. Hash indexes absorb only the delta rows — O(delta)
// instead of the O(table) rebuild Compile performs — and the NaN
// validation scans delta rows only.
//
// Extend returns an *Unsupported error when a delta row breaks a
// compilability invariant (NaN in an indexed or grouped float column),
// matching what Compile would decide over the full table. On ANY error the
// program may be partially patched and must be discarded; the caller falls
// back to a fresh Compile (which re-decides compilability from scratch).
//
// Extend mutates shared index maps, so it must only be called on a program
// owned exclusively by the caller — never on one still shared with
// concurrent Bind/eval users.
func (p *Program) Extend(cat engine.Catalog, oldRows map[string]int) error {
	for ai := range p.aliases {
		ap := &p.aliases[ai]
		tab, ok := cat[ap.tabName]
		if !ok {
			return fmt.Errorf("qcompile: extend: catalog is missing table %q", ap.tabName)
		}
		old, ok := oldRows[ap.tabName]
		if !ok {
			return fmt.Errorf("qcompile: extend: no previous row count for table %q", ap.tabName)
		}
		if got, want := tab.NumCols(), ap.tab.NumCols(); got != want {
			return fmt.Errorf("qcompile: extend: table %q has %d columns, program expects %d", ap.tabName, got, want)
		}
		n := tab.NumRows()
		if n < old {
			return fmt.Errorf("qcompile: extend: table %q shrank from %d to %d rows", ap.tabName, old, n)
		}
		if ap.probe != nil {
			if err := ap.probe.extend(tab, old, n); err != nil {
				return err
			}
		}
		ap.tab = tab
	}
	for _, ref := range p.floatGroupChecks {
		ap := p.aliases[ref.depth]
		vals := ap.tab.FloatsAt(ref.col)
		for _, v := range vals[oldRows[ap.tabName]:] {
			if math.IsNaN(v) {
				return unsupportedf("GROUP BY column contains NaN in delta rows")
			}
		}
	}
	return nil
}

// extend appends rows [old, n) of the (re-pinned) table to the hash index
// (buildIndex indexes a table as rows [0, n)): a NaN in an indexed float
// column makes the plan unsupported.
func (pp *probePlan) extend(tab *dataset.Table, old, n int) error {
	for r := old; r < n; r++ {
		pp.all = append(pp.all, int32(r))
	}
	switch tab.Schema()[pp.col].Kind {
	case dataset.Float:
		vals := tab.FloatsAt(pp.col)
		for r := old; r < n; r++ {
			v := vals[r]
			if math.IsNaN(v) {
				return unsupportedf("indexed column gained a NaN in delta rows")
			}
			pp.numIdx[v] = append(pp.numIdx[v], int32(r))
		}
	case dataset.Int:
		vals := tab.IntsAt(pp.col)
		for r := old; r < n; r++ {
			v := vals[r]
			pp.intIdx[v] = append(pp.intIdx[v], int32(r))
			if f := float64(v); math.Abs(f) >= 1<<53 {
				if pp.wide == nil {
					pp.wide = make(map[float64][]int32)
				}
				pp.wide[f] = append(pp.wide[f], int32(r))
			}
		}
	case dataset.String:
		vals := tab.StringsAt(pp.col)
		for r := old; r < n; r++ {
			pp.strIdx[vals[r]] = append(pp.strIdx[vals[r]], int32(r))
		}
	default:
		return unsupportedf("indexed column has unknown kind")
	}
	return nil
}
