package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistIndexMonotone sweeps the bucket mapping: indices stay in range,
// never decrease as the value grows, and each bucket's reported upper
// bound actually bounds the values it holds within the ≤25% width.
func TestHistIndexMonotone(t *testing.T) {
	check := func(ns int64, prev int) int {
		idx := histIndex(ns)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", ns, idx)
		}
		if idx < prev {
			t.Fatalf("histIndex(%d) = %d < previous %d: not monotone", ns, idx, prev)
		}
		// The top bucket's bound clamps to MaxInt64 and becomes inclusive.
		if up := histUpper(idx); ns >= up && up != math.MaxInt64 {
			t.Fatalf("histIndex(%d) = %d but histUpper = %d", ns, idx, up)
		}
		if ns >= 8 {
			if up := histUpper(idx); float64(up-ns) > 0.25*float64(ns)+1 {
				t.Fatalf("bucket of %dns overstates by %dns (>25%%)", ns, up-ns)
			}
		}
		return idx
	}
	prev := 0
	for ns := int64(0); ns < 1<<14; ns++ {
		prev = check(ns, prev)
	}
	// Geometric sweep to the top of the range.
	prev = 0
	for ns := int64(1); ns > 0 && ns < math.MaxInt64/3; ns = ns*3 + 1 {
		prev = check(ns, prev)
	}
	check(math.MaxInt64, prev)
	if got := histIndex(-5); got != 0 {
		t.Fatalf("negative duration bucket = %d, want 0", got)
	}
}

// TestLatencyHistQuantiles records a known distribution and checks the
// summary brackets the true quantiles within bucket resolution.
func TestLatencyHistQuantiles(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s.Count != 0 || s.MaxMS != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	// 980 requests at ~1ms, 20 at 100ms: p50/p90 land in the 1ms octave,
	// p99/p999 and max in the 100ms octave.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 980; i++ {
		h.Observe(time.Millisecond + time.Duration(r.Intn(100_000)))
	}
	for i := 0; i < 20; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.P50MS < 1 || s.P50MS > 1.5 {
		t.Fatalf("p50 = %vms, want ≈1ms", s.P50MS)
	}
	if s.P90MS > 1.5 {
		t.Fatalf("p90 = %vms, want ≈1ms", s.P90MS)
	}
	if s.P99MS < 100 || s.P99MS > 130 {
		t.Fatalf("p99 = %vms, want ≈100ms", s.P99MS)
	}
	if s.P999MS < 100 || s.P999MS > 130 {
		t.Fatalf("p999 = %vms, want ≈100ms", s.P999MS)
	}
	if s.MaxMS != 100 {
		t.Fatalf("max = %vms, want 100ms", s.MaxMS)
	}
	if s.P50MS > s.P90MS || s.P90MS > s.P99MS || s.P99MS > s.P999MS || s.P999MS > s.MaxMS {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
}
