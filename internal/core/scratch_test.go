package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/par"
	"repro/internal/predicate"
	"repro/internal/xrand"
)

// ledgerInstance is the benchmark ledger's udf_learn population: n objects
// with two uniform features, positive inside a noise-blurred ellipse.
func ledgerInstance(tb testing.TB, n int) *ObjectSet {
	tb.Helper()
	r := xrand.New(33)
	features := make([][]float64, n)
	labels := make([]bool, len(features))
	for i := range features {
		x, y := 2*r.Float64()-1, 2*r.Float64()-1
		features[i] = []float64{x, y}
		labels[i] = x*x/0.49+y*y/0.16+0.15*r.NormFloat64() < 1
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		tb.Fatal(err)
	}
	return obj
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// allocated is the heap a function allocates, by runtime.MemStats.TotalAlloc.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLearnedCountScratchSurvivesGC: a learned count's large scratch — the
// score-order sort, the scored rest, the rank grid and the design sweep's
// table — comes back off the free lists after two collections, so the
// second of two ledger-shape counts allocates only what its answer and its
// forest need. A set over par.MaxScratchBytes is not kept.
func TestLearnedCountScratchSurvivesGC(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation sizes")
	}
	obj := ledgerInstance(t, 10000)
	for _, tc := range []struct {
		m     Method
		bound uint64 // bytes the second count may allocate
	}{
		// Measured on linux/amd64: 0.43 MB (lss), 0.35 MB (lws) and
		// 0.14 MB (qlcc), where buffers a collection empties (sync.Pool)
		// or that no list keeps cost 1.86, 0.65 and 0.43 MB.
		{&LSS{NewClassifier: ForestClassifier(1)}, 700_000},
		{&LWS{NewClassifier: ForestClassifier(1)}, 450_000},
		{&QLCC{NewClassifier: ForestClassifier(1)}, 250_000},
	} {
		t.Run(tc.m.Name(), func(t *testing.T) {
			count := func() {
				if _, err := tc.m.Estimate(context.Background(), obj, 200, xrand.New(34)); err != nil {
					t.Fatal(err)
				}
			}
			count()
			runtime.GC()
			runtime.GC()
			got := allocated(count)
			t.Logf("second count allocated %d B", got)
			if got > tc.bound {
				t.Errorf("second count allocated %d B, bound %d B: its scratch did not survive the collections", got, tc.bound)
			}
		})
	}

	t.Run("over_cap", func(t *testing.T) {
		// 250 000 objects: the scored rest (17 B an object) and the sort's
		// two buffers (48 B) are each over the cap.
		const n = 250000
		big := ledgerInstance(t, n)
		if _, err := (&LSS{NewClassifier: ForestClassifier(1)}).Estimate(context.Background(), big, 200, xrand.New(35)); err != nil {
			t.Fatal(err)
		}
		// A fresh set has no arrays; the list hands those out once it has
		// none left.
		var rest []*restBuffers
		for b := restScratch.Get(); b.bytes() > 0; b = restScratch.Get() {
			rest = append(rest, b)
			if b.bytes() > par.MaxScratchBytes || cap(b.scores) >= n {
				t.Errorf("restScratch kept a %d B set with room for %d scores", b.bytes(), cap(b.scores))
			}
		}
		var sorts []*sortBuffers
		for b := sortScratch.Get(); b.bytes() > 0; b = sortScratch.Get() {
			sorts = append(sorts, b)
			if b.bytes() > par.MaxScratchBytes || cap(b.a) >= n {
				t.Errorf("sortScratch kept a %d B set with room for %d objects", b.bytes(), cap(b.a))
			}
		}
		for _, b := range rest {
			restScratch.Put(b)
		}
		for _, b := range sorts {
			sortScratch.Put(b)
		}
	})
}
