package lsample

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/predicate"
)

// ScanCoalescer lets a serving layer share one scan of the object
// population across concurrent full-population labeling passes (the
// WithExact pass). LabelAll must return a label vector of length n where
// out[j] is the label of object idxs[j] as eval would have produced it:
// implementations may interleave eval calls for several members over one
// ascending pass of the population, but must call each member's eval
// exactly once per object, in ascending chunk order, so per-member
// evaluation counters and estimates stay byte-identical to a standalone
// pass.
//
// The key identifies the population: two calls share a scan only when
// their keys are equal, and equal keys guarantee identical object
// enumerations (same snapshot, same Q2, same Q2-relevant parameters).
// eval is not safe for concurrent calls; the coalescer must serialize
// calls to one member's eval. A non-nil error makes the caller fall back
// to a standalone pass (context errors are returned as-is).
type ScanCoalescer interface {
	// LabelAll labels objects 0..n-1 of the population identified by key,
	// possibly sharing the scan with concurrent callers of equal keys (see
	// the interface contract above).
	LabelAll(ctx context.Context, key string, n int, eval func(idxs []int, out []bool)) ([]bool, error)
}

// scanKey canonically identifies this execution's object population for
// scan coalescing: the pinned snapshot identities (process-unique, never
// aliasing distinct data), the object-enumeration query Q2, and the bound
// parameters Q2 references. Parameters only the predicate Q3 reads are
// excluded — they leave the enumeration unchanged, so predicate variants
// of one shape can share a scan (each member still evaluates its own
// predicate).
func (q *PreparedQuery) scanKey(strs map[string]string) string {
	var sb strings.Builder
	names := make([]string, 0, len(q.snaps))
	for name := range q.snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s#%d|", name, q.snaps[name].snapshotID())
	}
	sb.WriteString(q.dec.Objects.String())
	pnames := make([]string, 0, len(strs))
	for name := range strs {
		if q.q2IDs[name] {
			pnames = append(pnames, name)
		}
	}
	sort.Strings(pnames)
	for _, name := range pnames {
		fmt.Fprintf(&sb, "|%s=%s", name, strs[name])
	}
	return sb.String()
}

// exactCountShared is exactCount routed through the configured scan
// coalescer when one is attached and the predicate is batch-capable;
// otherwise (and on any coalescer failure that is not a context error) it
// runs the standalone pass, so a misbehaving coalescer can cost a rescan
// but never a wrong or failed request.
func (q *PreparedQuery) exactCountShared(ctx context.Context, cfg config,
	pred predicate.Predicate, strs map[string]string, n int) (int, error) {

	labels, err := q.exactLabelsShared(ctx, cfg, pred, strs, n)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, b := range labels {
		if b {
			count++
		}
	}
	return count, nil
}

// exactLabelsShared is the label-vector form of exactCountShared (see
// there for the fallback contract).
func (q *PreparedQuery) exactLabelsShared(ctx context.Context, cfg config,
	pred predicate.Predicate, strs map[string]string, n int) ([]bool, error) {

	if bp, ok := predicate.AsBatch(pred); ok && cfg.scanner != nil && n > 0 {
		labels, err := cfg.scanner.LabelAll(ctx, q.scanKey(strs), n, bp.EvalBatch)
		if err == nil && len(labels) == n {
			return labels, nil
		}
		if err != nil && ctx != nil && ctx.Err() != nil {
			return nil, canceled(ctx, "exact count")()
		}
	}
	return predicate.Label(pred, predicate.AllIndices(n), canceled(ctx, "exact count"))
}
