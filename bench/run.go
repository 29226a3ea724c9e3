package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes are the knobs of one run that -smoke shrinks; nothing else differs
// between a smoke run and a measured one.
type sizes struct {
	quality    int           // Q: ops 0..Q-1 are the quality window
	qualityMix int           // Q of serve_mix, whose ops are cheap and whose classes need more draws
	setupReps  int           // set-ups per run at least; setup_s is their median
	setupTotal float64       // … and seconds of set-up per run at least, so a cheap set-up repeats more often
	probe      time.Duration // total time budget of one layer probe
	sqlRows    int           // rows of D (R ≈ 5×)
	udfObjects int
	liveItems  int
	hotSet     int // serve_mix: distinct requests of the hit class
}

var fullSizes = sizes{
	quality:    192,
	qualityMix: 1024,
	setupReps:  3,
	setupTotal: 0.5,
	probe:      200 * time.Millisecond,
	sqlRows:    300,
	udfObjects: 10000,
	liveItems:  600,
	hotSet:     32,
}

var smokeSizes = sizes{
	quality:    8,
	qualityMix: 24,
	setupReps:  1,
	probe:      5 * time.Millisecond,
	sqlRows:    120,
	udfObjects: 5000, // 100 labels at 2 %: below that an lws estimate can leave [0, N]
	liveItems:  200,
	hotSet:     8,
}

// setupMaxReps caps the set-ups of one run.
const setupMaxReps = 101

// reissueEvery: every 32nd op is re-issued on the recomputing path and must
// give the same answer byte for byte.
const reissueEvery = 32

// runConfig is one (workload, seed, seconds, trace) run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // trace-<workload>.json and run-<workload>-trace<0|1>.json land here
	workDir  string // scratch inside the checkout: binaries, live tables, child stderr
}

// interval is one reported count with its confidence interval and truth:
// the whole answer of a plain count, one group of a GROUP BY.
type interval struct {
	key         string // group key; "" for a plain count
	est, lo, hi float64
	hasCI       bool
	objects     int
	sampled     int // GROUP BY only: labeled objects behind the group's estimate
	truth       float64
}

// answer is what one op returned, reduced to what the checks and the
// quality metrics need.
type answer struct {
	estimate  float64    // the headline count (sum of groups for GROUP BY)
	truth     float64    // brute-force truth of the same count
	objects   int        // |O| the program reported
	wantN     int        // |O| the harness generated
	evals     int64      // fresh predicate evaluations spent
	budget    int        // evaluations allowed
	slack     int        // documented allowance over budget (grouped top-up)
	intervals []interval // one per reported count: 1, or one per group
	sig       string     // every deterministic field, canonically encoded
}

// seal computes the signature: every field that must repeat bit for bit when
// the same request is computed again. withEvals is off where the program
// documents that only the evaluation count may differ on a repeat (label
// memos, catalog state).
func (a *answer) seal(method, fingerprint string, withEvals bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|%x", method, fingerprint, a.objects, a.budget, math.Float64bits(a.estimate))
	for _, iv := range a.intervals {
		fmt.Fprintf(&b, "|%s:%d:%x:%d", iv.key, iv.objects, math.Float64bits(iv.est), iv.sampled)
		if iv.hasCI {
			fmt.Fprintf(&b, ":%x:%x", math.Float64bits(iv.lo), math.Float64bits(iv.hi))
		}
	}
	if withEvals {
		fmt.Fprintf(&b, "|e%d", a.evals)
	}
	a.sig = b.String()
}

// check applies the per-answer correctness checks; any error makes the op
// a failure.
func (a *answer) check() error {
	if math.IsNaN(a.estimate) || math.IsInf(a.estimate, 0) {
		return fmt.Errorf("estimate %v is not finite", a.estimate)
	}
	if a.objects != a.wantN {
		return fmt.Errorf("objects %d, generated %d", a.objects, a.wantN)
	}
	if a.estimate < 0 || a.estimate > float64(a.objects) {
		return fmt.Errorf("estimate %v outside [0, %d]", a.estimate, a.objects)
	}
	if a.evals > int64(a.budget+a.slack) {
		return fmt.Errorf("evals %d over budget %d (+%d)", a.evals, a.budget, a.slack)
	}
	for _, iv := range a.intervals {
		if math.IsNaN(iv.est) || math.IsInf(iv.est, 0) || iv.est < 0 || iv.est > float64(iv.objects) {
			return fmt.Errorf("count %v outside [0, %d]", iv.est, iv.objects)
		}
		if iv.hasCI && !(iv.lo <= iv.est && iv.est <= iv.hi) {
			return fmt.Errorf("estimate %v outside its interval [%v, %v]", iv.est, iv.lo, iv.hi)
		}
	}
	return nil
}

// workload is one of the five traffic mixes. Methods are called from the
// runner in the order setup, warm, (do | reissue)*, finish, teardown;
// teardown is safe after a failed or partial setup and may be called
// twice.
type workload interface {
	// classes names the primary / 25 % / 15 % op classes.
	classes() [numClasses]string
	// clients is the number of closed-loop client goroutines.
	clients() int
	// quality is Q, the length of the quality window.
	quality() int
	// setup generates the inputs from the seed, computes ground truth,
	// cross-checks it against the program's exact answer, prepares or
	// uploads, and starts children.
	setup(ctx context.Context) error
	// warm runs the fixed unrecorded ops that precede the stream.
	warm(ctx context.Context) error
	// do runs one op; traced asks for the program's span tree as well.
	do(ctx context.Context, client int, o op, traced bool) (*answer, *span, error)
	// reissue repeats o on the path that recomputes and reports whether
	// the deterministic content matched.
	reissue(ctx context.Context, client int, o op, first *answer) error
	// finish runs after the stream, inside set-up state (live_refresh
	// closes, reopens and recovers here) and returns extra end-to-end
	// metrics and layer counters.
	finish(ctx context.Context) (map[string]float64, error)
	// teardown stops children and removes scratch state, returning the CPU
	// seconds and peak RSS (MB) of the children it reaped (zero for
	// in-process workloads).
	teardown() (cpuS, rssMB float64)
	// served is the number of counts answered by children since setup
	// (zero for in-process workloads).
	served() int64
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "sdk_cold":
		return &sdkCold{cfg: cfg}, nil
	case "udf_learn":
		return &udfLearn{cfg: cfg}, nil
	case "serve_mix":
		return &serveMix{cfg: cfg}, nil
	case "live_refresh":
		return &liveRefresh{cfg: cfg}, nil
	case "shard_scatter":
		return &shardScatter{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"sdk_cold", "udf_learn", "serve_mix", "live_refresh", "shard_scatter"}

// record is one op of the stream as the client saw it.
type record struct {
	i      int
	class  int
	traced bool
	ms     float64
	err    string // "" = correct
	ans    *answer
	root   *span // client span with the program's tree beneath (traced ops)
}

// runResult is everything one run measured.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Smoke        bool               `json:"smoke,omitempty"`
	ScheduleHash string             `json:"schedule_hash"`
	Classes      [numClasses]string `json:"classes"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"` // first few failure messages
	Warnings     []string           `json:"warnings,omitempty"`
	Samples      int                `json:"samples"`        // latency samples behind p50
	Cycles       int                `json:"cycles"`         // whole pattern cycles behind p95
	TopPct       float64            `json:"top_percentile"` // highest percentile with ≥10 samples beyond
	TopPctMS     float64            `json:"top_percentile_ms"`
	ClassN       [numClasses]int    `json:"class_samples"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	SpanSumMS    float64            `json:"span_self_sum_ms,omitempty"` // Σ program span self time per traced count
	TracedMeanMS float64            `json:"traced_mean_ms,omitempty"`   // client-observed mean latency of traced ops
	TracedOps    int                `json:"traced_ops,omitempty"`
}

// selfUsage is this process's CPU time so far and its high-water RSS in MB.
func selfUsage() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), peakRSSMB("self", ru.Maxrss)
}

// peakRSSMB is the high-water RSS of a live process ("self" or a pid) in MB:
// VmHWM of /proc/<pid>/status, which starts at zero when the program is
// exec'd. rusage's ru_maxrss (the fallback, in KiB) does not: it starts at
// whatever the forking process had resident, so under `go run` this harness
// would report the go command's 25–30 MB instead of its own 15, and every
// lsserve child at least the harness's own size.
func peakRSSMB(pid string, ruMaxrssKiB int64) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(rest, "%f kB", &kib); err == nil && kib > 0 {
					return kib / 1024
				}
			}
		}
	}
	return float64(ruMaxrssKiB) / 1024
}

// runOne executes one run end to end and returns its result. A set-up
// failure (including a ground-truth mismatch) is returned as an error;
// op-level failures are counted in the result.
func runOne(ctx context.Context, cfg runConfig) (*runResult, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		ScheduleHash: fmt.Sprintf("%016x", scheduleHash(cfg.workload, cfg.seed, 4096)),
		Classes:      w.classes(),
		EndToEnd:     make(map[string]float64),
	}

	// Set-up, several times: setup_s is the median, and the last one stays.
	var childCPU, childRSS float64
	tornDown := false
	teardown := func() {
		if !tornDown {
			tornDown = true
			c, r := w.teardown()
			childCPU += c
			childRSS = math.Max(childRSS, r)
		}
	}
	defer teardown()
	var setups []float64
	for total := 0.0; ; {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
		if len(setups) >= cfg.sz.setupReps && (total >= cfg.sz.setupTotal || len(setups) >= setupMaxReps) {
			break
		}
		w.teardown()
	}
	res.EndToEnd["setup_s"] = median(setups)

	if err := w.warm(ctx); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
	}
	// The closed loop: each client takes the next op of the stream, waits
	// for its answer, checks it, and takes the next. The loop ends when the
	// time is up and the quality window is complete, so ops 0..Q-1 are the
	// same requests in every run whatever the machine speed.
	var (
		next     atomic.Int64
		recs     = make([][]record, w.clients())
		wg       sync.WaitGroup
		classes  = w.classes()
		deadline = time.Duration(cfg.seconds * float64(time.Second))
	)
	cpu0, _ := selfUsage()
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if ctx.Err() != nil || (i >= w.quality() && time.Since(start) >= deadline) {
					return
				}
				o := opAt(cfg.seed, i)
				// In a traced run whole pattern cycles alternate between
				// untraced and traced, so the two p50s that give the tracing
				// overhead come from the same minutes of the same process.
				traced := cfg.trace && (i/len(classPattern))%2 == 1
				t0 := time.Now()
				ans, tree, err := w.do(ctx, c, o, traced)
				dur := time.Since(t0)
				rec := record{i: i, class: o.class, traced: traced, ms: float64(dur) / float64(time.Millisecond), ans: ans}
				if err == nil {
					err = ans.check()
				}
				if err == nil && i%reissueEvery == reissueEvery-1 {
					err = w.reissue(ctx, c, o, ans)
				}
				if err != nil {
					rec.err = fmt.Sprintf("op %d (%s): %v", i, classes[o.class], err)
				}
				if traced {
					rec.root = clientSpan(t0, dur, classes[o.class], tree)
				}
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the deferred teardown still reaps the children
	}
	elapsed := time.Since(start)
	cpu1, rssSelf := selfUsage()

	extra, err := w.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", cfg.workload, err)
	}
	servedAll := w.served()
	teardown()

	var all []record
	for _, r := range recs {
		all = append(all, r...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	summarize(res, w.quality(), all, elapsed)
	for k, v := range extra {
		if _, ok := endToEndSpec(k); ok {
			res.EndToEnd[k] = v
		}
	}

	// CPU and memory of the process(es) under test: the children when there
	// are any (whole life, from ProcessState rusage, over every count they
	// answered), otherwise this process over the loop.
	counts := float64(res.Attempted - res.Failed)
	if servedAll > 0 {
		res.EndToEnd["cpu_ms_per_count"] = childCPU * 1000 / float64(servedAll)
		res.EndToEnd["peak_rss_mb"] = childRSS
	} else if counts > 0 {
		res.EndToEnd["cpu_ms_per_count"] = float64(cpu1-cpu0) / float64(time.Millisecond) / counts
		res.EndToEnd["peak_rss_mb"] = rssSelf
	}
	if cfg.trace {
		res.PerLayer = make(map[string]float64)
		layerMetrics(res, cfg, all, extra)
		if err := runProbes(ctx, cfg, res.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", cfg.workload, err)
		}
		if err := writeTrace(cfg, res, all); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// summarize fills the end-to-end metrics that come from the op records.
func summarize(res *runResult, quality int, all []record, elapsed time.Duration) {
	var lat []float64
	var at []int // stream position of each latency, for the cycle percentile
	var evals, errs []float64
	covered, intervals := 0, 0
	for _, r := range all {
		res.Attempted++
		if r.err != "" {
			res.Failed++
			if len(res.Errors) < 8 {
				res.Errors = append(res.Errors, r.err)
			}
			continue
		}
		lat = append(lat, r.ms)
		at = append(at, r.i)
		res.ClassN[r.class]++
		if r.i >= quality {
			continue
		}
		evals = append(evals, float64(r.ans.evals))
		if r.ans.truth > 0 {
			errs = append(errs, math.Abs(r.ans.estimate-r.ans.truth)/r.ans.truth)
		}
		for _, iv := range r.ans.intervals {
			if iv.hasCI {
				intervals++
				if iv.lo <= iv.truth && iv.truth <= iv.hi {
					covered++
				}
			}
		}
	}
	p95, cycles := cyclePercentile(at, lat, 95)
	sort.Float64s(lat)
	res.Samples, res.Cycles = len(lat), cycles
	e := res.EndToEnd
	// A metric with nothing behind it (every op failed) stays absent.
	put := func(name string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			e[name] = v
		}
	}
	put("counts_per_s", float64(len(lat))/elapsed.Seconds())
	put("count_p50_ms", percentile(lat, 50))
	put("count_p95_ms", p95)
	if p, ok := highestPercentile(len(lat)); ok {
		res.TopPct, res.TopPctMS = p, percentile(lat, p)
	}
	put("evals_per_count", mean(evals))
	put("rel_err_med", median(errs))
	if intervals > 0 {
		cover := float64(covered) / float64(intervals)
		e["ci_cover"] = cover
		if lo, hi := binomialBand(intervals, 0.95); cover < lo || cover > hi {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"ci_cover %.3f over %d intervals is outside the binomial band [%.3f, %.3f] of a nominal 95 %% interval",
				cover, intervals, lo, hi))
		}
	}
	e["fail_rate"] = float64(res.Failed) / float64(res.Attempted)
	if cycles < 10 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"count_p95_ms rests on %d whole pattern cycles (fewer than ten)", cycles))
	}
}

// layerMetrics derives the span- and record-based per-layer metrics of a
// traced run.
func layerMetrics(res *runResult, cfg runConfig, all []record, extra map[string]float64) {
	pl := res.PerLayer
	var roots []*span
	var tracedMS, untracedPrimary, tracedPrimary []float64
	byClass := make([][]float64, numClasses)
	var httpOverheadUS []float64
	for _, r := range all {
		if r.err != "" {
			continue
		}
		byClass[r.class] = append(byClass[r.class], r.ms)
		if r.class == classPrimary {
			if r.traced {
				tracedPrimary = append(tracedPrimary, r.ms)
			} else {
				untracedPrimary = append(untracedPrimary, r.ms)
			}
		}
		if r.root == nil {
			continue
		}
		roots = append(roots, r.root)
		tracedMS = append(tracedMS, r.ms)
		for _, name := range []string{"count", "coordinator.count"} {
			if srv := r.root.find(name); srv != nil {
				httpOverheadUS = append(httpOverheadUS, (r.root.DurMS-srv.DurMS)*1000)
				break
			}
		}
	}
	for c := 0; c < numClasses; c++ {
		if len(byClass[c]) > 0 {
			pl["class."+classSlots[c]+".p50_ms"] = median(byClass[c])
		}
	}
	if len(untracedPrimary) > 0 && len(tracedPrimary) > 0 {
		u, t := median(untracedPrimary), median(tracedPrimary)
		pl["obs.trace_overhead_pct"] = 100 * (t - u) / u
	}
	if len(httpOverheadUS) > 0 {
		pl["service.http_overhead_us"] = mean(httpOverheadUS)
	}
	pl["quality.rel_err_med"] = res.EndToEnd["rel_err_med"]
	pl["quality.fail_rate"] = res.EndToEnd["fail_rate"]
	for k, v := range extra {
		if _, ok := endToEndSpec(k); !ok {
			pl[k] = v
		}
	}
	if len(roots) == 0 {
		return
	}
	n := float64(len(roots))
	programSelf := 0.0
	for name, t := range aggregate(roots) {
		if name != clientSpanName {
			programSelf += t.selfMS
		}
		for _, m := range layerOfSpan(name) {
			switch m.kind {
			case spanSelf:
				pl[m.name] += t.selfMS / n
			case spanDur:
				pl[m.name] += t.durMS / n
			case spanCount:
				pl[m.name] += float64(t.count) / n
			}
		}
	}
	res.TracedOps = len(roots)
	res.TracedMeanMS = mean(tracedMS)
	res.SpanSumMS = programSelf / n
	pl["obs.span_coverage_pct"] = 100 * res.SpanSumMS / res.TracedMeanMS
}

// writeTrace dumps every span kept in memory during the run.
func writeTrace(cfg runConfig, res *runResult, all []record) error {
	var roots []*span
	for _, r := range all {
		if r.root != nil {
			roots = append(roots, r.root)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Ops      int     `json:"traced_ops"`
		Spans    []*span `json:"spans"`
	}{cfg.workload, cfg.seed, len(roots), roots})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), data, 0o644)
}

// errMismatch marks a re-issue whose answer differs from the first one.
var errMismatch = errors.New("answer differs from the first answer to the same request")

// matchFirst is the tail of every reissue: the recomputed answer must carry
// the first answer's signature.
func matchFirst(first, again *answer, err error) error {
	if err != nil {
		return err
	}
	if again.sig != first.sig {
		return errMismatch
	}
	return nil
}

// warmOps runs the default warm-up: two unrecorded ops of each class, with
// seeds below the stream's and a position no stream op has.
func warmOps(ctx context.Context, w workload) error {
	for i := 0; i < 2*numClasses; i++ {
		if _, _, err := w.do(ctx, 0, op{i: -1, class: i % numClasses, seed: uint64(i + 1)}, false); err != nil {
			return err
		}
	}
	return nil
}
