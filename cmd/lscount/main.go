// Command lscount runs one count estimation through the public repro/lsample
// SDK and prints the estimate, confidence interval, true count, and cost
// breakdown. Ctrl-C cancels an in-flight estimation mid-run.
//
// Calibrated-workload mode (the paper's benchmarks):
//
//	lscount -dataset neighbors -size S -method lss -budget 0.02
//
// Ad-hoc SQL mode (your own data): give a counting query and a CSV file;
// the query is decomposed per §2, features are selected automatically from
// the columns the predicate reads, and the count is estimated within the
// budget. The CSV is registered under the first table name in FROM.
//
//	lscount -sql 'SELECT o1.id FROM D o1, D o2 WHERE ... GROUP BY o1.id HAVING COUNT(*) < k' \
//	        -csv points.csv -schema id:int,x:float,y:float -param k=25 -method lss -budget 0.05
//
// GROUP BY counting: when -sql is the grouped form
// SELECT g, COUNT(*) FROM (...) GROUP BY g, every group is estimated from
// one shared sample and the result is printed as a per-group table
// (methods srs, lss, oracle).
//
// Delta replay mode: add -delta to the ad-hoc form to load the CSV into a
// live table and replay a change stream against it, refreshing the
// estimate after every applied batch. Each step prints the pinned version,
// the delta size, and — the paper's cost unit — how many fresh predicate
// evaluations the refresh spent versus how many it answered from the label
// memo; the final line compares the total against the cold (relabel-all)
// price a naive re-register loop would have paid per step.
//
//	lscount -sql '...' -csv base.csv -schema id:int,f1:float -key id \
//	        -delta changes.ndjson -delta-batch 500 -method lss -budget 0.1
//
// The delta file is CSV (header row, append-only) or NDJSON (one
// {"op":"append|update|delete","key":...,"row":{...}} per line), chosen by
// -delta-format or the file extension. -aux name=schema=path (repeatable)
// loads additional static side tables for multi-table queries.
//
// Flags (common): -method srs|ssp|ssn|lws|lss|qlcc|qlac|oracle,
// -budget frac, -seed n, -classifier rf|knn|nn|random, -strata h,
// -interval wald|wilson (Wilson score intervals for the srs proportion
// estimator, per WithInterval), -p parallelism, -shards n (sharded
// execution: hash-partition the population, estimate per shard, merge
// byte-identically; srs, lss, and oracle only). Calibrated mode adds
// -dataset, -rows, -size, -expensive; ad-hoc mode adds -sql, -csv,
// -schema, -param (repeatable), -exact, -aux, and -repeat N (run the query
// N times through a shared reuse catalog, printing each run's reuse path —
// direct, extension, or none — and the cumulative predicate evaluations
// saved); delta replay adds -delta, -delta-format, -delta-batch, -key.
// Run lscount -h for details.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
	"repro/lsample"
)

func main() {
	var (
		ds        = flag.String("dataset", "neighbors", "dataset: sports or neighbors")
		rows      = flag.Int("rows", 8000, "dataset rows (0 = paper scale)")
		sizeStr   = flag.String("size", "S", "result-size regime: XS S M L XL XXL")
		method    = flag.String("method", "lss", "estimator: srs ssp ssn lws lss qlcc qlac oracle")
		budget    = flag.Float64("budget", 0.02, "labeling budget as a fraction of N")
		seed      = flag.Uint64("seed", 1, "random seed")
		clfName   = flag.String("classifier", "rf", "classifier for learned methods: rf knn nn random")
		strata    = flag.Int("strata", 4, "strata for stratified methods")
		interval  = flag.String("interval", "wald", "confidence interval: wald or wilson (srs)")
		expensive = flag.Bool("expensive", false, "use the real O(N)-per-eval predicate instead of cached labels")
		shards    = flag.Int("shards", 0, "run sharded: partition the population into N hash-aligned shards, estimate per shard, and merge (srs/lss/oracle; the answer is byte-identical at any shard count)")
		para      = flag.Int("p", 0, "parallelism for forest training and batch scoring (0 = all cores, 1 = sequential); the estimate is identical at any value")

		sqlQuery  = flag.String("sql", "", "ad-hoc mode: counting query to estimate (requires -csv and -schema)")
		csvPath   = flag.String("csv", "", "ad-hoc mode: CSV file with a header row")
		schemaStr = flag.String("schema", "", "ad-hoc mode: CSV schema, e.g. id:int,x:float,y:float")
		exact     = flag.Bool("exact", false, "ad-hoc mode: also compute the true count (evaluates q on every object)")
		repeat    = flag.Int("repeat", 1, "ad-hoc mode: execute the query N times through a shared reuse catalog, printing each run's reuse path and the cumulative predicate evaluations saved")

		explain = flag.Bool("explain", false, "trace the run and print its span tree (phases, attributes, durations) after the result")

		deltaPath   = flag.String("delta", "", "delta replay mode: change stream to replay against the -csv table (CSV or NDJSON)")
		deltaFormat = flag.String("delta-format", "", "delta format: csv or ndjson (default: by -delta file extension)")
		deltaBatch  = flag.Int("delta-batch", 500, "delta rows applied per refresh step")
		keyCol      = flag.String("key", "", "delta replay mode: unique int key column of the -csv table (default: its first int column)")
	)
	var params paramFlags
	flag.Var(&params, "param", "ad-hoc mode: query parameter as name=value; numeric values bind as numbers, 'quoted' values as strings (repeatable)")
	var aux auxFlags
	flag.Var(&aux, "aux", "ad-hoc mode: additional static table as name=schema=path (repeatable)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	iv, err := lsample.ParseInterval(*interval)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []lsample.Option{
		lsample.WithMethod(*method),
		lsample.WithClassifier(*clfName),
		lsample.WithStrata(*strata),
		lsample.WithBudget(*budget),
		lsample.WithSeed(*seed),
		lsample.WithParallelism(*para),
		lsample.WithInterval(iv),
	}
	if *shards > 0 {
		opts = append(opts, lsample.WithShards(*shards))
	}
	var tracer *lsample.Tracer
	if *explain {
		tracer = lsample.NewTracer(lsample.TracerOptions{SampleRate: 1})
		opts = append(opts, lsample.WithTracer(tracer))
	}

	if *sqlQuery != "" {
		if *deltaPath != "" {
			runDeltaReplay(ctx, *sqlQuery, *csvPath, *schemaStr, *keyCol,
				*deltaPath, *deltaFormat, *deltaBatch, aux, params, opts)
			printTrace(tracer)
			return
		}
		runSQL(ctx, *sqlQuery, *csvPath, *schemaStr, params, *exact, *repeat, opts)
		printTrace(tracer)
		return
	}

	sz, err := workload.ParseSize(*sizeStr)
	if err != nil {
		fatalf("%v", err)
	}
	suite, err := workload.Build(*ds, *rows, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	in := suite.Instances[sz]

	est, err := lsample.NewEstimator(opts...)
	if err != nil {
		fatalf("%v", err)
	}
	pred := in.LabelFunc()
	if *expensive {
		pred = in.ExpensiveFunc()
	}
	res, err := est.Estimate(ctx, in.Features(), pred)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("dataset     %s (N=%d)\n", *ds, in.N())
	fmt.Printf("query       %s\n", describe(in))
	fmt.Printf("regime      %s (target %.0f%%, actual %.1f%%)\n", sz, in.Target*100, in.Selectivity*100)
	fmt.Printf("method      %s\n", res.Method)
	fmt.Printf("budget      %d q-evaluations (%.2f%% of N)\n", res.Budget, 100*float64(res.Budget)/float64(in.N()))
	fmt.Printf("estimate    %.1f\n", res.Count)
	printCI(res)
	fmt.Printf("true count  %d\n", in.TrueCount)
	rel := math.Abs(res.Count-float64(in.TrueCount)) / math.Max(1, float64(in.TrueCount))
	fmt.Printf("rel. error  %.2f%%\n", rel*100)
	fmt.Printf("evals used  %d\n", res.SamplesUsed)
	tm := res.Timings
	fmt.Printf("timing      learn=%v design=%v sample=%v predicate=%v overhead=%v\n",
		tm.Learn.Round(time.Microsecond), tm.Design.Round(time.Microsecond),
		tm.Sample.Round(time.Microsecond), tm.Predicate.Round(time.Microsecond),
		tm.Overhead().Round(time.Microsecond))
	printTrace(tracer)
}

// printTrace pretty-prints the newest recorded trace as an indented span
// tree, one line per span with its duration and attributes.
func printTrace(tr *lsample.Tracer) {
	if tr == nil {
		return
	}
	traces := tr.Traces(1)
	if len(traces) == 0 {
		return
	}
	fmt.Printf("\ntrace       %s\n", traces[0].TraceID)
	printSpan(traces[0], 0)
}

func printSpan(sp *lsample.TraceSpan, depth int) {
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var attrs strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&attrs, " %s=%v", k, sp.Attrs[k])
	}
	fmt.Printf("  %s%s  %.2fms%s\n",
		strings.Repeat("  ", depth), sp.Name,
		float64(sp.Duration)/1e6, attrs.String())
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

func printCI(res *lsample.Estimate) {
	if res.CI != nil {
		fmt.Printf("%.0f%% CI      [%.1f, %.1f]\n", res.CI.Level*100, res.CI.Lo, res.CI.Hi)
	} else {
		fmt.Printf("95%% CI      (none: quantification learning gives no interval)\n")
	}
}

// paramFlags collects repeated -param name=value flags.
type paramFlags map[string]any

func (p *paramFlags) String() string { return fmt.Sprint(map[string]any(*p)) }

func (p *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if *p == nil {
		*p = make(map[string]any)
	}
	switch {
	case len(val) >= 2 && val[0] == '\'' && val[len(val)-1] == '\'':
		// 'quoted' forces a string even when the content looks numeric
		// (e.g. -param "tag='123'" for a string column comparison).
		(*p)[name] = val[1 : len(val)-1]
	default:
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			(*p)[name] = f
		} else {
			(*p)[name] = val
		}
	}
	return nil
}

// runSQL is the ad-hoc mode: estimate a counting query over a CSV file
// entirely through the SDK — load the CSV as the query's first table,
// prepare once, execute once. The -expensive flag has no meaning here: the
// ad-hoc predicate always runs through the engine. With -repeat N > 1 the
// session gets a reuse catalog and the query runs N times, demonstrating
// the catalog's warm-start economics run over run.
func runSQL(ctx context.Context, query, csvPath, schemaStr string, params map[string]any, exact bool, repeat int, opts []lsample.Option) {
	if csvPath == "" || schemaStr == "" {
		fatalf("-sql requires -csv and -schema")
	}
	_, tables, err := lsample.QueryShape(query)
	if err != nil {
		fatalf("%v", err)
	}
	tb, err := lsample.OpenCSV(tables[0], schemaStr, csvPath)
	if err != nil {
		fatalf("%v", err)
	}
	if repeat > 1 {
		opts = append(append([]lsample.Option(nil), opts...), lsample.WithCatalog(lsample.NewCatalog(0)))
	}
	sess, err := lsample.NewSession(lsample.NewMemorySource(tb), opts...)
	if err != nil {
		fatalf("%v", err)
	}
	q, err := sess.Prepare(query)
	if err != nil {
		fatalf("%v", err)
	}
	if q.IsGrouped() {
		if repeat > 1 {
			fatalf("-repeat needs a plain counting query (the reuse catalog does not serve GROUP BY estimates)")
		}
		runGroupedSQL(ctx, q, tb, csvPath, params, exact)
		return
	}
	if repeat > 1 {
		runRepeatSQL(ctx, q, tb, csvPath, params, exact, repeat)
		return
	}
	t0 := time.Now()
	res, err := q.Execute(ctx, params, lsample.WithExact(exact))
	if err != nil {
		fatalf("%v", err)
	}
	dur := time.Since(t0)

	fmt.Printf("dataset     %s (%d rows from %s)\n", tb.Name(), tb.NumRows(), csvPath)
	fmt.Printf("query       %s\n", q.SQL())
	fmt.Printf("fingerprint %s\n", res.Fingerprint)
	fmt.Printf("objects     %d\n", res.Objects)
	fmt.Printf("features    %s (auto-selected from the predicate)\n", strings.Join(res.FeatureColumns, ", "))
	fmt.Printf("method      %s\n", res.Method)
	fmt.Printf("budget      %d q-evaluations\n", res.Budget)
	fmt.Printf("estimate    %.1f\n", res.Count)
	printCI(res)
	if res.TrueCount != nil {
		tc := *res.TrueCount
		rel := math.Abs(res.Count-float64(tc)) / math.Max(1, float64(tc))
		fmt.Printf("true count  %d\n", tc)
		fmt.Printf("rel. error  %.2f%%\n", rel*100)
	}
	fmt.Printf("evals used  %d\n", res.SamplesUsed)
	printLabeling(res.Labeling, res.Timings)
	fmt.Printf("duration    %.1fms\n", float64(dur)/1e6)
}

// runRepeatSQL executes the prepared query repeat times against a session
// with a reuse catalog attached. The first run pays the cold price and
// materializes its sample, labels, and classifier; later identical runs are
// served by direct reuse and should spend (close to) zero fresh predicate
// evaluations. Each line reports the run's reuse path and cost; the final
// line totals the evaluations saved against the cold-every-time bill.
func runRepeatSQL(ctx context.Context, q *lsample.PreparedQuery, tb *lsample.Table, csvPath string, params map[string]any, exact bool, repeat int) {
	fmt.Printf("dataset     %s (%d rows from %s)\n", tb.Name(), tb.NumRows(), csvPath)
	fmt.Printf("query       %s\n", q.SQL())
	fmt.Printf("runs        %d through a shared reuse catalog\n\n", repeat)

	fmt.Printf("%4s  %-10s %12s %8s %10s %12s %10s\n",
		"run", "reuse", "estimate", "evals", "memoized", "cum. saved", "ms")
	var cold, total, saved int64
	t0 := time.Now()
	for i := 1; i <= repeat; i++ {
		tr := time.Now()
		res, err := q.Execute(ctx, params, lsample.WithExact(exact))
		if err != nil {
			fatalf("run %d: %v", i, err)
		}
		evals := int64(res.SamplesUsed)
		if i == 1 {
			cold = evals
		}
		total += evals
		saved += cold - evals
		reuse := res.Reuse
		if reuse == "" {
			reuse = lsample.ReuseNone
		}
		fmt.Printf("%4d  %-10s %12.1f %8d %10d %12d %10.1f\n",
			i, reuse, res.Count, evals, res.ReusedLabels, saved,
			float64(time.Since(tr))/1e6)
	}
	fmt.Println()
	coldBill := cold * int64(repeat)
	pct := 0.0
	if coldBill > 0 {
		pct = 100 * float64(coldBill-total) / float64(coldBill)
	}
	fmt.Printf("evals       %d total vs %d cold-every-time (%.1f%% saved)\n", total, coldBill, pct)
	fmt.Printf("duration    %.1fms\n", float64(time.Since(t0))/1e6)
}

// printLabeling reports the labeling wall-time breakdown: which predicate
// engine ran (compiled vs interpreted fallback, with the reason), how many
// labeling workers were configured, and how the run's wall time splits
// between the expensive predicate and estimation overhead.
func printLabeling(lab lsample.Labeling, tm lsample.PhaseTimings) {
	fmt.Printf("labeling    %s\n", lab)
	fmt.Printf("            predicate=%v overhead=%v\n",
		tm.Predicate.Round(time.Microsecond), tm.Overhead().Round(time.Microsecond))
}

// runGroupedSQL estimates a GROUP BY counting query and prints one row per
// group: all groups share a single sampling/learning plan, so the total
// evaluation cost is that of one estimation, not one per group.
func runGroupedSQL(ctx context.Context, q *lsample.PreparedQuery, tb *lsample.Table, csvPath string, params map[string]any, exact bool) {
	t0 := time.Now()
	res, err := q.ExecuteGroups(ctx, params, lsample.WithExact(exact))
	if err != nil {
		fatalf("%v", err)
	}
	dur := time.Since(t0)

	fmt.Printf("dataset     %s (%d rows from %s)\n", tb.Name(), tb.NumRows(), csvPath)
	fmt.Printf("query       %s\n", q.SQL())
	fmt.Printf("fingerprint %s\n", res.Fingerprint)
	fmt.Printf("objects     %d in %d groups\n", res.Objects, len(res.Groups))
	if len(res.FeatureColumns) > 0 {
		fmt.Printf("features    %s (auto-selected from the predicate)\n", strings.Join(res.FeatureColumns, ", "))
	}
	fmt.Printf("method      %s (shared sample across groups)\n", res.Method)
	fmt.Printf("budget      %d q-evaluations\n", res.Budget)
	fmt.Println()

	header := strings.Join(q.GroupColumns(), ",")
	fmt.Printf("%-20s %8s %10s %22s %8s", header, "objects", "estimate", "CI", "sampled")
	if exact {
		fmt.Printf(" %8s %8s", "true", "err")
	}
	fmt.Println()
	for _, g := range res.Groups {
		ci := "-"
		if g.CI != nil {
			ci = fmt.Sprintf("[%.1f, %.1f]", g.CI.Lo, g.CI.Hi)
		}
		fmt.Printf("%-20s %8d %10.1f %22s %8d", strings.Join(g.Key, ","), g.Objects, g.Count, ci, g.Sampled)
		if g.TrueCount != nil {
			tc := *g.TrueCount
			rel := math.Abs(g.Count-float64(tc)) / math.Max(1, float64(tc))
			fmt.Printf(" %8d %7.1f%%", tc, rel*100)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("total       %.1f estimated positives\n", res.Total)
	fmt.Printf("evals used  %d (shared across all %d groups)\n", res.SamplesUsed, len(res.Groups))
	printLabeling(res.Labeling, res.Timings)
	fmt.Printf("duration    %.1fms\n", float64(dur)/1e6)
}

func describe(in *workload.Instance) string {
	if in.Dataset == "sports" {
		return fmt.Sprintf("k-skyband membership over (strikeouts, wins), k=%d (Example 2)", in.K)
	}
	return fmt.Sprintf("≤%d neighbors within d=%.3f over (f0, f1) (Example 1)", in.K, in.D)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lscount: "+format+"\n", args...)
	os.Exit(1)
}
