// Command bench is the repository's benchmark: a single-process load
// harness over the public SDK (repro/lsample), the internal layers, and
// real cmd/lsserve children. See README.md in this directory for the
// workloads, the metrics, and what each layer metric should move.
//
//	go run ./bench -seed S -out DIR            every workload, untraced then traced
//	go run ./bench -workload NAME ...          one workload
//	go run ./bench -compare A B                judge result directory B against A
//	go run ./bench -smoke                      the same code path, tiny sizes, no bounds
//
// The benchmark driver's form runs one (workload, trace mode) pair and
// prints one JSON object as the last line of standard output:
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

// buildDir is the one directory of the checkout the harness writes to
// unless -out says otherwise (.gitignore lists it).
const buildDir = ".bench_build"

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same generated inputs and op stream")
		out      = flag.String("out", "", "result directory (default "+buildDir+"/out)")
		wl       = flag.String("workload", "", "run only this workload")
		compare  = flag.Bool("compare", false, "compare two result directories: -compare A B")
		smoke    = flag.Bool("smoke", false, "tiny sizes and one-second runs: exercises every code path, measures nothing")
		seconds  = flag.Float64("seconds", 20, "length of the timed (or traced) closed loop")
		traceArg = flag.String("trace", "", "driver form: 0 = timed run, tracing off, end-to-end metrics; 1 = traced run, per-layer metrics")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code, err := func() (int, error) {
		if *compare {
			if flag.NArg() != 2 {
				return 2, fmt.Errorf("-compare takes two result directories")
			}
			return compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		if flag.NArg() != 0 {
			return 2, fmt.Errorf("unexpected arguments %v", flag.Args())
		}
		root, err := moduleRoot()
		if err != nil {
			return 1, err
		}
		outDir := *out
		if outDir == "" {
			outDir = filepath.Join(root, buildDir, "out")
		}
		sz := fullSizes
		if *smoke {
			sz = smokeSizes
			if *seconds > 1 {
				*seconds = 1
			}
		}
		if *traceArg != "" {
			// One run, the driver's contract.
			trace, err := strconv.ParseBool(*traceArg)
			if err != nil || *wl == "" {
				return 2, fmt.Errorf("-trace takes 0 or 1 and needs -workload")
			}
			return driverRun(ctx, runConfig{
				workload: *wl, seed: *seed, seconds: *seconds, trace: trace, sz: sz,
				outDir:  outDir,
				workDir: filepath.Join(root, buildDir, "work", fmt.Sprintf("%s-%d", *wl, os.Getpid())),
			}, *smoke)
		}
		names := workloadNames
		if *wl != "" {
			names = []string{*wl}
		}
		return fullRun(ctx, names, *seed, *seconds, *smoke, outDir)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// driverLine is the last line of a driver-form run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun executes one run, prints its human-readable summary, writes
// run-<workload>-trace<0|1>.json beside the trace file, and ends standard
// output with the driver's JSON line. A failed set-up check prints no
// result and exits non-zero.
func driverRun(ctx context.Context, cfg runConfig, smoke bool) (int, error) {
	defer os.RemoveAll(cfg.workDir)
	res, err := runOne(ctx, cfg)
	if err != nil {
		return 1, err
	}
	res.Smoke = smoke
	printRun(os.Stdout, res)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 1, err
	}
	detail, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 1, err
	}
	name := fmt.Sprintf("run-%s-trace%d.json", cfg.workload, b2i(cfg.trace))
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), detail, 0o644); err != nil {
		return 1, err
	}

	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	if cfg.trace {
		for _, m := range perLayer {
			line.Metrics[m.Name] = driverValue{Value: res.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.gated {
				line.Metrics[m.Name] = driverValue{Value: res.EndToEnd[m.Name], Unit: m.Unit}
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(data))
	return 0, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fullRun runs each workload untraced and then traced. Every run is a
// fresh process of this same binary in the driver's form, so CPU time and
// peak memory of one workload never include another's, and a full run's
// numbers are the driver's numbers. It then merges the run files into
// DIR/result.json and prints the ledger.
func fullRun(ctx context.Context, names []string, seed uint64, seconds float64, smoke bool, outDir string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	var runs []*runResult
	for _, name := range names {
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return 1, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			res, err := readRun(filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", name, trace)))
			if err != nil {
				return 1, err
			}
			runs = append(runs, res)
		}
	}
	ledger := mergeRuns(runs)
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("\nwrote %s\n", filepath.Join(outDir, "result.json"))
	for _, r := range runs {
		if r.Failed > 0 {
			return 1, fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return 0, nil
}

func readRun(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// ledger is DIR/result.json: per workload the end-to-end metrics of the
// untraced run and the per-layer metrics of the traced run.
type ledger struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

type workloadLedger struct {
	Timed    *runResult         `json:"timed_run"`
	Traced   *runResult         `json:"traced_run,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func mergeRuns(runs []*runResult) *ledger {
	l := &ledger{Workloads: make(map[string]*workloadLedger)}
	for _, r := range runs {
		l.Seed, l.Seconds, l.Smoke = r.Seed, r.Seconds, r.Smoke
		w := l.Workloads[r.Workload]
		if w == nil {
			w = &workloadLedger{}
			l.Workloads[r.Workload] = w
		}
		if r.Trace {
			w.Traced, w.PerLayer = r, r.PerLayer
		} else {
			w.Timed, w.EndToEnd = r, r.EndToEnd
		}
	}
	return l
}

// printRun prints every metric of a run by name with its unit.
func printRun(w *os.File, r *runResult) {
	mode := "timed run, tracing off"
	if r.Trace {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s  schedule %s\n", r.Workload, r.Seed, r.Seconds, mode, r.ScheduleHash)
	fmt.Fprintf(w, "   classes %s 60%% / %s 25%% / %s 15%%  samples %d+%d+%d  attempted %d  failed %d\n",
		r.Classes[0], r.Classes[1], r.Classes[2], r.ClassN[0], r.ClassN[1], r.ClassN[2], r.Attempted, r.Failed)
	if r.TopPct > 0 {
		fmt.Fprintf(w, "   %d latency samples in %d whole pattern cycles; highest pooled percentile with at least 10 samples beyond it: p%g = %.4f ms\n",
			r.Samples, r.Cycles, r.TopPct, r.TopPctMS)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok && m.appliesTo(r.Workload) {
			fmt.Fprintf(w, "   %-38s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if r.Trace {
		fmt.Fprintf(w, "   per layer (%d traced ops; program span self times sum to %.4f ms per count, client-observed mean %.4f ms):\n",
			r.TracedOps, r.SpanSumMS, r.TracedMeanMS)
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-38s %14.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
	}
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "   warning: %s\n", s)
	}
	for _, s := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", s)
	}
}
