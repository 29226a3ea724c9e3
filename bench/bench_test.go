package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %g, want NaN", got)
	}
}

// count_p95_ms is the median over whole pattern cycles of the cycle's p95
// (its second-slowest op), so a burst that slows a minority of the cycles
// does not move it, and a partial or failed cycle does not count.
func TestCyclePercentileIgnoresBursts(t *testing.T) {
	const n = len(classPattern)
	var at []int
	var ms []float64
	for i := 0; i < 9*n+7; i++ { // nine whole cycles and a partial one
		v := float64(i%n + 1) // 1..20 in every cycle: p95 = 19, p50 = 10
		if c := i / n; c == 2 || c == 5 || c == 9 {
			v *= 10 // two slow cycles and the slow partial tail
		}
		if i == 4*n+3 {
			continue // a failed op: cycle 4 is left out
		}
		at, ms = append(at, i), append(ms, v)
	}
	p95, cycles := cyclePercentile(at, ms, 95)
	if p95 != 19 || cycles != 8 {
		t.Errorf("cycle p95 = %g over %d cycles, want 19 over 8", p95, cycles)
	}
	if p50, _ := cyclePercentile(at, ms, 50); p50 != 10 {
		t.Errorf("cycle p50 = %g, want 10", p50)
	}
	if pooled := percentile(sortedCopy(ms), 95); pooled <= 100 {
		t.Errorf("pooled p95 = %g: the bursts were meant to reach it", pooled)
	}
	// Without a whole cycle the pooled percentile stands in.
	if v, cycles := cyclePercentile([]int{0, 1, 2, 3}, []float64{4, 3, 2, 1}, 95); v != 4 || cycles != 0 {
		t.Errorf("short run: %g over %d cycles, want 4 over 0", v, cycles)
	}
}

// Inside one cycle the nearest-rank p95 is rank 19 of 20: whatever the cost
// order it lies inside the most expensive class, which has at least three
// ops, never on the boundary below it.
func TestCycleP95InsideOneClass(t *testing.T) {
	var perCycle [numClasses]int
	for _, c := range classPattern {
		perCycle[c]++
	}
	rank := int(math.Ceil(0.95 * float64(len(classPattern))))
	for c, k := range perCycle {
		if top := len(classPattern) - k; rank <= top+1 || rank == len(classPattern) {
			t.Errorf("class %d most expensive (%d ops per cycle): rank %d is its cheapest op, the maximum, or below it", c, k, rank)
		}
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 beyond the median
		{20, 50, true},
		{99, 75, true}, // 9.9 beyond p90
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g (%v), want p%g (%v)", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	mk := func(name string, start, dur int, kids ...*span) *span {
		return &span{Name: name, Start: t0.Add(ms(start)), DurMS: float64(dur), Children: kids}
	}
	for _, c := range []struct {
		name string
		s    *span
		want float64
	}{
		{"leaf", mk("a", 0, 10), 10},
		{"sequential children", mk("a", 0, 10, mk("b", 1, 2), mk("c", 5, 3)), 5},
		// A hedged RPC runs beside the first attempt: 2..8 and 4..9 cover 7 ms.
		{"overlapping children", mk("a", 0, 10, mk("rpc", 2, 6), mk("rpc", 4, 5)), 3},
		{"nested overlap", mk("a", 0, 10, mk("b", 1, 8), mk("c", 3, 2)), 2},
		// Spans laid out after the fact may stick out of the parent.
		{"child past the end", mk("a", 0, 10, mk("b", 8, 5)), 8},
		{"child before the start", mk("a", 5, 10, mk("b", 0, 7)), 8},
		{"children cover everything", mk("a", 0, 10, mk("b", -1, 6), mk("c", 5, 9)), 0},
	} {
		if got := c.s.selfMS(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self = %g ms, want %g", c.name, got, c.want)
		}
	}

	// Self times of a tree add up to the root's duration when children
	// stay inside their parents, whatever the overlap between siblings
	// would suggest for a naive subtraction.
	root := mk(clientSpanName, 0, 20, mk("count", 1, 18, mk("prepare", 2, 3), mk("execute", 6, 12, mk("enumerate", 7, 2), mk("estimate", 10, 7))))
	sum := 0.0
	for _, tot := range aggregate([]*span{root}) {
		sum += tot.selfMS
	}
	if math.Abs(sum-20) > 1e-9 {
		t.Errorf("self times sum to %g ms, want the root's 20", sum)
	}
}

func TestEverySpanNameMapsToAListedLayer(t *testing.T) {
	listed := make(map[string]bool)
	for _, m := range perLayer {
		if listed[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	for _, name := range []string{
		clientSpanName, "execute", "execute.groups", "enumerate", "features", "predicate.build", "estimate",
		"learn", "design", "sample", "exact.scan", "catalog", "refresh", "shard.drive", "count",
		"admission.wait", "prepare", "coordinator.count", "shard.rpc", "shard.census", "shard.attempt",
		"shard.meta", "shard.label", "sharedscan.member", "something.new",
	} {
		ms := layerOfSpan(name)
		if len(ms) == 0 {
			t.Errorf("span %q feeds no layer metric", name)
		}
		self := 0
		for _, m := range ms {
			if !listed[m.name] {
				t.Errorf("span %q feeds %s, which the per-layer table does not list", name, m.name)
			}
			if m.kind == spanSelf {
				self++
			}
		}
		if self != 1 {
			t.Errorf("span %q books its self time %d times, want once", name, self)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := scheduleHash("serve_mix", 7, 4096)
	if b := scheduleHash("serve_mix", 7, 4096); a != b {
		t.Errorf("same seed, different schedule hash: %x vs %x", a, b)
	}
	if b := scheduleHash("serve_mix", 8, 4096); a == b {
		t.Errorf("different seeds share schedule hash %x", a)
	}
	if b := scheduleHash("sdk_cold", 7, 4096); a == b {
		t.Errorf("different workloads share schedule hash %x", a)
	}
	// Op i uses seed i (offset past the warm-up seeds) whatever the
	// workload seed, so the quality window is the same requests in every
	// run.
	for i := 0; i < 100; i++ {
		x, y := opAt(1, i), opAt(99, i)
		if x.seed != y.seed || x.class != y.class || x.seed != seedBase+uint64(i) {
			t.Fatalf("op %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestClassShares(t *testing.T) {
	var n [numClasses]int
	for _, c := range classPattern {
		n[c]++
	}
	for c, share := range classShares {
		if got := float64(n[c]) / float64(len(classPattern)); got != share {
			t.Errorf("class %d has share %g, want %g", c, got, share)
		}
	}
	// No window of the pattern starves a class for long: every class
	// appears in every run of eight consecutive ops.
	for start := range classPattern {
		var seen [numClasses]bool
		for k := 0; k < 8; k++ {
			seen[classPattern[(start+k)%len(classPattern)]] = true
		}
		if seen != [numClasses]bool{true, true, true} {
			t.Errorf("window at %d misses a class: %v", start, seen)
		}
	}
}

// Whatever the cost order of the three classes, p50 lies inside the
// primary class and p50 and p95 stay at least five points away from every
// class boundary.
func TestClassShareInvariant(t *testing.T) {
	orders := [][numClasses]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, order := range orders { // cheapest class first
		cum := 0.0
		for k, c := range order {
			lo := cum
			cum += 100 * classShares[c]
			if k < numClasses-1 {
				for _, p := range []float64{50, 95} {
					if math.Abs(p-cum) < 5 {
						t.Errorf("order %v: p%g is within 5 points of the class boundary at %g%%", order, p, cum)
					}
				}
			}
			if lo < 50 && 50 <= cum && c != classPrimary {
				t.Errorf("order %v: p50 falls in class %d, not the primary class", order, c)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lowerM := metricSpec{Name: "count_p50_ms", Better: "lower", Bound: 0.10}
	higherM := metricSpec{Name: "counts_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98}
	wide := []float64{100, 130, 80, 100, 140, 70}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"inside the bound", lowerM, tight, []float64{108, 109}, verdictPass},
		{"beyond the bound", lowerM, tight, []float64{115, 116}, verdictRegressed},
		{"better", lowerM, tight, []float64{50}, verdictPass},
		{"higher is better, dropped", higherM, tight, []float64{85}, verdictRegressed},
		{"higher is better, rose", higherM, tight, []float64{150}, verdictPass},
		{"spread wider than the bound", lowerM, wide, []float64{100}, verdictUnresolved},
		{"wide spread but every run better", lowerM, wide, []float64{60, 65}, verdictPass},
		{"single runs", lowerM, []float64{100}, []float64{120}, verdictRegressed},
		{"zero bound, any increase", metricSpec{Name: "fail_rate", Better: "lower"}, []float64{0}, []float64{0.01}, verdictRegressed},
		{"zero bound, still zero", metricSpec{Name: "fail_rate", Better: "lower"}, []float64{0}, []float64{0}, verdictPass},
		{"inside the absolute allowance", metricSpec{Name: "rel_err_med", Better: "lower", Bound: 0.25, abs: 0.01}, []float64{0.02}, []float64{0.029}, verdictPass},
		{"beyond both allowances", metricSpec{Name: "rel_err_med", Better: "lower", Bound: 0.25, abs: 0.01}, []float64{0.02}, []float64{0.031}, verdictRegressed},
	} {
		if _, _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is the contract later changes are judged by; it must say
// what the harness's own tables say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	var gated []metricSpec
	for _, m := range endToEnd {
		if m.gated {
			gated = append(gated, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness gates %d", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		if m != gated[i] {
			t.Errorf("end_to_end[%d] = %+v, harness says %+v", i, m, gated[i])
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, harness says %+v", i, m, perLayer[i])
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", len(perLayer))
	}
}

// TestSmoke drives the whole harness — set-up with its ground-truth
// cross-checks, children included, the closed loop, re-issues, the traced
// run, every probe — at tiny sizes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run builds and starts lsserve children")
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload: name, seed: 3, seconds: 0.5, trace: trace, sz: smokeSizes,
				outDir: out, workDir: filepath.Join(t.TempDir(), "work"),
			}
			res, err := runOne(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < smokeSizes.quality {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", name, trace, res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range endToEnd {
				v, ok := res.EndToEnd[m.Name]
				if !m.appliesTo(name) {
					if ok {
						t.Errorf("%s reports %s, which does not apply to it", name, m.Name)
					}
					continue
				}
				if !ok || math.IsNaN(v) || (m.gated && v <= 0) {
					t.Errorf("%s (trace %v): %s = %v (present %v)", name, trace, m.Name, v, ok)
				}
			}
			if !trace {
				continue
			}
			if res.TracedOps == 0 {
				t.Errorf("%s: traced run kept no spans", name)
			}
			for key := range res.PerLayer {
				found := false
				for _, m := range perLayer {
					found = found || m.Name == key
				}
				if !found {
					t.Errorf("%s reports per-layer metric %s, which the table does not list", name, key)
				}
			}
			for _, probe := range []string{"sql.parse_us", "qcompile.extend_us_per_row", "core.lss_ms", "wal.commit_ms", "shard.drive_ms", "service.cache_hit_us"} {
				if res.PerLayer[probe] <= 0 {
					t.Errorf("%s: probe %s = %v", name, probe, res.PerLayer[probe])
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
