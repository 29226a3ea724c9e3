package lsample

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// shardMatrix is the determinism battery's grid: every tested shard count
// crossed with every tested parallelism.
var shardCounts = []int{1, 2, 4, 8}

func parallelisms() []int {
	ps := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		ps = append(ps, n)
	}
	return ps
}

// TestShardDeterminismMatrix pins the tentpole contract for plain
// queries: for every method in the sharded contract, the estimate at
// every (shard count, parallelism) pair is byte-identical to the
// unsharded catalog-path run of the same plan. So is who paid for which
// label: the first run at a shard layout buys the whole population (the
// exact pass) and finds its sample already labeled when that pass asks
// again; every later run at the layout finds all of it in the layout's
// catalog entries. The numbers are the ones recorded when the driver still
// labeled one stratum per call and fetched features in a call of their own:
// labeling the strata together, or the learn sample with its rows, must
// count every request once, as fresh or as reused, exactly as before.
func TestShardDeterminismMatrix(t *testing.T) {
	params := map[string]any{"k": 8}
	type acct struct {
		used   int64
		reused int
	}
	accounting := map[string][2]acct{ // first run at a layout, later runs
		"srs":    {{160, 40}, {0, 200}},
		"lss":    {{160, 40}, {0, 200}},
		"oracle": {{160, 0}, {0, 160}},
	}
	for _, method := range GroupMethods() { // srs, lss, oracle
		t.Run(method, func(t *testing.T) {
			q, _ := catalogSession(t, 160, 7,
				WithMethod(method), WithBudget(0.25), WithSeed(11), WithExact(true))
			ref, err := q.Execute(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Reuse != ReuseNone {
				t.Fatalf("reference run Reuse = %q, want %q", ref.Reuse, ReuseNone)
			}
			if got, want := (acct{ref.SamplesUsed, ref.ReusedLabels}), accounting[method][0]; got != want {
				t.Errorf("reference run SamplesUsed/ReusedLabels = %v, want %v", got, want)
			}
			for _, s := range shardCounts {
				for i, p := range parallelisms() {
					got, err := q.Execute(context.Background(), params,
						WithShards(s), WithParallelism(p))
					if err != nil {
						t.Fatalf("shards=%d p=%d: %v", s, p, err)
					}
					if !sameEstimate(ref, got) {
						t.Errorf("shards=%d p=%d: estimate diverged:\nref %v CI=%v\ngot %v CI=%v",
							s, p, ref.Count, *ref.CI, got.Count, *got.CI)
					}
					if got.Objects != ref.Objects || got.Budget != ref.Budget {
						t.Errorf("shards=%d p=%d: objects/budget %d/%d, want %d/%d",
							s, p, got.Objects, got.Budget, ref.Objects, ref.Budget)
					}
					if *got.TrueCount != *ref.TrueCount {
						t.Errorf("shards=%d p=%d: true count %d, want %d", s, p, *got.TrueCount, *ref.TrueCount)
					}
					want, reuse := accounting[method][min(i, 1)], []string{ReuseNone, ReuseDirect}[min(i, 1)]
					if a := (acct{got.SamplesUsed, got.ReusedLabels}); a != want || got.Reuse != reuse {
						t.Errorf("shards=%d p=%d: SamplesUsed/ReusedLabels = %v reuse %q, want %v %q",
							s, p, a, got.Reuse, want, reuse)
					}
				}
			}
		})
	}
}

// TestShardDeterminismNoCatalog re-checks byte-identity with no catalog
// attached: the sharded executor must not depend on catalog-backed label
// memos for its answer.
func TestShardDeterminismNoCatalog(t *testing.T) {
	params := map[string]any{"k": 8}
	refQ, _ := catalogSession(t, 120, 3, WithMethod("lss"), WithBudget(0.3), WithSeed(29))
	ref, err := refQ.Execute(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(NewMemorySource(testTable(t, 120, 3)),
		WithMethod("lss"), WithBudget(0.3), WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardCounts {
		got, err := q.Execute(context.Background(), params, WithShards(s))
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if !sameEstimate(ref, got) {
			t.Errorf("shards=%d without catalog diverged: got %v, want %v", s, got.Count, ref.Count)
		}
		if got.Reuse != ReuseNone {
			t.Errorf("shards=%d: Reuse = %q without a catalog, want %q", s, got.Reuse, ReuseNone)
		}
		// Two of the 36 sampled keys sit in the learn sample too: asked once
		// of a worker, answered the second time by the driver's memo.
		if got.SamplesUsed != 34 || got.ReusedLabels != 2 {
			t.Errorf("shards=%d: SamplesUsed/ReusedLabels = %d/%d, want 34/2", s, got.SamplesUsed, got.ReusedLabels)
		}
	}
}

// TestShardGroupedDeterminismMatrix pins the grouped contract: the
// sharded grouped answer is byte-identical at every (shard count,
// parallelism) pair, with WithShards(1) as the reference layout.
func TestShardGroupedDeterminismMatrix(t *testing.T) {
	params := map[string]any{"k": 8}
	for _, method := range GroupMethods() {
		t.Run(method, func(t *testing.T) {
			sess := groupedSession(t, 150,
				WithMethod(method), WithBudget(0.3), WithSeed(5), WithStrata(3), WithExact(true))
			q, err := sess.Prepare(groupedSQL)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := q.ExecuteGroups(context.Background(), params, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Groups) == 0 {
				t.Fatal("reference run produced no groups")
			}
			refStr := formatGroups(ref.Groups)
			for _, s := range shardCounts[1:] {
				for _, p := range parallelisms() {
					got, err := q.ExecuteGroups(context.Background(), params,
						WithShards(s), WithParallelism(p))
					if err != nil {
						t.Fatalf("shards=%d p=%d: %v", s, p, err)
					}
					if gs := formatGroups(got.Groups); gs != refStr {
						t.Errorf("shards=%d p=%d: groups diverged:\nref:\n%sgot:\n%s", s, p, refStr, gs)
					}
					if got.Total != ref.Total {
						t.Errorf("shards=%d p=%d: total %v, want %v", s, p, got.Total, ref.Total)
					}
				}
			}
		})
	}
}

// TestShardGroupedMatchesTruth sanity-checks the grouped sharded answer
// against the exact per-group counts: oracle is exact, and estimates sum
// per-group object counts correctly.
func TestShardGroupedMatchesTruth(t *testing.T) {
	params := map[string]any{"k": 8}
	sess := groupedSession(t, 150, WithMethod("oracle"), WithSeed(5), WithExact(true))
	q, err := sess.Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := q.ExecuteGroups(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := q.ExecuteGroups(context.Background(), params, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Groups) != len(classic.Groups) {
		t.Fatalf("group count %d, want %d", len(sharded.Groups), len(classic.Groups))
	}
	for i, g := range sharded.Groups {
		c := classic.Groups[i]
		if strings.Join(g.Key, "|") != strings.Join(c.Key, "|") {
			t.Fatalf("group %d key %v, want %v", i, g.Key, c.Key)
		}
		if g.Objects != c.Objects || g.Count != c.Count || !g.Exact {
			t.Errorf("group %v: objects/count/exact %d/%v/%t, want %d/%v/true",
				g.Key, g.Objects, g.Count, g.Exact, c.Objects, c.Count)
		}
	}
}

// TestShardContractErrors pins the no-silent-fallback rule: methods or
// shapes outside the sharded contract reject the call.
func TestShardContractErrors(t *testing.T) {
	sess, err := NewSession(NewMemorySource(testTable(t, 60, 1)), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(context.Background(), map[string]any{"k": 8},
		WithShards(2), WithMethod("ssp")); err == nil {
		t.Fatal("sharded ssp should be rejected, not silently fall back")
	}
	if _, err := q.Execute(context.Background(), map[string]any{"k": 8},
		WithShards(-1)); err == nil {
		t.Fatal("negative shard count should be rejected")
	}
}

// overOp is the protocol's transport over the executor's one entry point,
// as a serving layer wires it minus the HTTP hop: each op's arguments are
// encoded with the frame codec, run by x.Op under seed, and the reply block
// decoded.
func overOp(x *ShardExec, seed uint64) shard.Transport {
	return func(ctx context.Context, op string, a *shard.Args) (*shard.Reply, error) {
		args, err := shard.AppendArgs(nil, a)
		if err != nil {
			return nil, err
		}
		raw, err := x.Op(ctx, seed, op, args)
		if err != nil {
			return nil, err
		}
		r, err := shard.DecodeReply(raw)
		if err != nil {
			return nil, err
		}
		return &r, nil
	}
}

// TestPrepareShardOps drives the public per-shard executor directly and
// cross-checks its primitives against the in-process run: shard censuses
// sum to the population and every key is owned by exactly one shard.
func TestPrepareShardOps(t *testing.T) {
	const shards = 4
	// Labels outlive an op only in a catalog: the relabel below reads it.
	sess, err := NewSession(NewMemorySource(testTable(t, 100, 9)),
		WithMethod("lss"), WithBudget(0.3), WithSeed(17), WithCatalog(NewCatalog(0)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"k": 8}
	ctx := context.Background()

	total := 0
	seen := make(map[int64]int)
	for i := 0; i < shards; i++ {
		x, err := q.PrepareShard(ctx, i, shards, params)
		if err != nil {
			t.Fatal(err)
		}
		// The protocol's coordinator end over the executor's one entry
		// point: what a serving layer wires up, minus the HTTP hop.
		w := shard.NewRemote(overOp(x, 17))
		noArgs, err := shard.AppendArgs(nil, &shard.Args{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Op(ctx, 17, "no_such_op", noArgs); !errors.Is(err, ErrInvalid) {
			t.Fatalf("unknown op: err = %v, want ErrInvalid", err)
		}
		if _, err := x.Op(ctx, 17, shard.OpMeta, []byte(`{}`)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("a JSON argument block: err = %v, want ErrInvalid", err)
		}
		m, err := w.Meta(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += m.N
		cands, err := w.Cands(ctx, m.N, shard.TagLearn)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != m.N {
			t.Fatalf("shard %d: %d candidates for full k, want %d", i, len(cands), m.N)
		}
		for _, c := range cands {
			seen[c.Key]++
		}
		if idx, cnt := x.Shard(); idx != i || cnt != shards {
			t.Fatalf("Shard() = %d/%d, want %d/%d", idx, cnt, i, shards)
		}
		// Label a couple of owned keys; fresh count must match on first use.
		if m.N >= 2 {
			keys := []int64{cands[0].Key, cands[1].Key}
			labels, rows, fresh, err := w.Label(ctx, keys, keys[:1])
			if err != nil {
				t.Fatal(err)
			}
			if len(labels) != 2 || fresh != 2 || len(rows) != 1 || len(rows[0]) != len(x.FeatureColumns()) {
				t.Fatalf("shard %d: labels=%d fresh=%d rows=%v, want 2/2 and one feature row", i, len(labels), fresh, rows)
			}
			if _, _, fresh2, _ := w.Label(ctx, keys, nil); fresh2 != 0 {
				t.Fatalf("shard %d: relabel spent %d fresh evaluations", i, fresh2)
			}
		}
		// A foreign key must be rejected (test keys are 0..99), to label or
		// to look up.
		if _, _, _, err := w.Label(ctx, []int64{-1}, nil); err == nil {
			t.Fatalf("shard %d: labeling a foreign key should fail", i)
		}
		if _, _, _, err := w.Label(ctx, nil, []int64{-1}); err == nil {
			t.Fatalf("shard %d: a foreign key's feature row should fail", i)
		}
	}
	if total != 100 {
		t.Fatalf("shard censuses sum to %d, want 100", total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d owned by %d shards", k, c)
		}
	}
}

// TestShardCatalogLayoutIsolation: entries materialized under one shard
// layout are keyed by it, and a different layout starts cold (never wrongly
// reused) without evicting the first.
func TestShardCatalogLayoutIsolation(t *testing.T) {
	params := map[string]any{"k": 8}
	q, cat := catalogSession(t, 120, 5, WithMethod("lss"), WithBudget(0.3), WithSeed(13))

	first, err := q.Execute(context.Background(), params, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if first.Reuse != ReuseNone {
		t.Fatalf("first sharded run Reuse = %q, want %q", first.Reuse, ReuseNone)
	}
	entries2 := cat.Stats().Entries

	// Rerun under the same layout: answered from memoized labels.
	again, err := q.Execute(context.Background(), params, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if again.Reuse != ReuseDirect {
		t.Fatalf("same-layout rerun Reuse = %q, want %q", again.Reuse, ReuseDirect)
	}
	if again.SamplesUsed != 0 {
		t.Fatalf("same-layout rerun spent %d fresh evaluations, want 0", again.SamplesUsed)
	}
	if !sameEstimate(first, again) {
		t.Fatal("same-layout rerun diverged")
	}

	// Reshard: 4-shard entries must not reuse 2-shard artifacts.
	resharded, err := q.Execute(context.Background(), params, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if resharded.Reuse != ReuseNone {
		t.Fatalf("resharded run Reuse = %q, want %q (wrong cross-layout reuse)", resharded.Reuse, ReuseNone)
	}
	if !sameEstimate(first, resharded) {
		t.Fatal("reshard changed the estimate")
	}
	if got := cat.Stats().Entries; got <= entries2 {
		t.Fatalf("reshard did not add layout-scoped entries: %d <= %d", got, entries2)
	}

	// A new layout evicts nothing: the first one still serves directly.
	back, err := q.Execute(context.Background(), params, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if back.Reuse != ReuseDirect || back.SamplesUsed != 0 || !sameEstimate(first, back) {
		t.Fatalf("first layout after a reshard: reuse %q, %d evaluations, want a direct reuse of the same estimate", back.Reuse, back.SamplesUsed)
	}
}

// TestEvalBudget pins the exported budget rule against the internal one.
func TestEvalBudget(t *testing.T) {
	cases := []struct {
		frac    float64
		n, want int
	}{
		{0.02, 1000, 20},
		{0.02, 100, 10}, // floor
		{0.5, 8, 8},     // cap at n
		{0, 1000, 20},   // default fraction
		{1, 3, 3},
		{0.25, 160, 40},
	}
	for _, c := range cases {
		if got := EvalBudget(c.frac, c.n); got != c.want {
			t.Errorf("EvalBudget(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

// formatEstimate renders the fields the byte-identity contract covers.
func formatEstimate(e *Estimate) string {
	s := fmt.Sprintf("%v|%v", e.Count, e.Proportion)
	if e.CI != nil {
		s += fmt.Sprintf("|%v,%v", e.CI.Lo, e.CI.Hi)
	}
	return s
}

// TestShardSeedSensitivity guards against a degenerate implementation
// that ignores the seed: different seeds must (for this workload) move
// the sampled estimate.
func TestShardSeedSensitivity(t *testing.T) {
	sess, err := NewSession(NewMemorySource(testTable(t, 200, 21)),
		WithMethod("srs"), WithBudget(0.1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.Execute(context.Background(), map[string]any{"k": 8}, WithShards(3), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Execute(context.Background(), map[string]any{"k": 8}, WithShards(3), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if formatEstimate(a) == formatEstimate(b) {
		t.Fatal("seed change did not move the sharded srs estimate (suspicious)")
	}
}

// spansNamed collects the tree's spans of the given name, depth first.
func spansNamed(t *TraceSpan, name string) []*TraceSpan {
	if t == nil {
		return nil
	}
	var out []*TraceSpan
	if t.Name == name {
		out = append(out, t)
	}
	for _, c := range t.Children {
		out = append(out, spansNamed(c, name)...)
	}
	return out
}

// TestShardsValidateProgramOncePerRun: the predicate — and with it the
// interpreter's cross-check of the compiled program, one full join scan for
// object 0 — depends on nothing a shard owns, so a WithShards run builds it
// once, on the first label store to miss, and every shard labels through
// it. A build that falls back to the interpreter is that one build too.
func TestShardsValidateProgramOncePerRun(t *testing.T) {
	params := map[string]any{"k": 8}
	run := func(opts ...Option) (*Estimate, *TraceSpan) {
		t.Helper()
		tracer := NewTracer(TracerOptions{SampleRate: 1})
		all := append([]Option{WithMethod("lss"), WithBudget(0.25), WithSeed(11), WithShards(4), WithTracer(tracer)}, opts...)
		sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)), all...)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Prepare(skybandQuery)
		if err != nil {
			t.Fatal(err)
		}
		est, err := q.Execute(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		builds := spansNamed(tracer.Traces(1)[0], "predicate.build")
		if len(builds) != 1 {
			t.Fatalf("%d predicate.build spans over 4 shards, want exactly 1", len(builds))
		}
		return est, builds[0]
	}

	est, build := run()
	if build.Attrs["compiled"] != true {
		t.Errorf("predicate.build attrs %v, want a compiled predicate", build.Attrs)
	}
	if !est.Labeling.Compiled || est.Labeling.Fallback != "" {
		t.Errorf("labeling = %+v, want compiled", est.Labeling)
	}

	slow, build := run(interpreted())
	if build.Attrs["compiled"] != false || build.Attrs["fallback"] != "compilation disabled" {
		t.Errorf("predicate.build attrs %v, want the interpreter fallback", build.Attrs)
	}
	if slow.Labeling.Compiled || slow.Labeling.Fallback != "compilation disabled" {
		t.Errorf("labeling = %+v, want the interpreter fallback", slow.Labeling)
	}
	if !sameEstimate(est, slow) {
		t.Errorf("fallback run diverged: %v vs %v", slow.Count, est.Count)
	}
}

// driveSeed runs one count of the given seed through a shard executor the
// way a coordinator does — the op protocol's remote end over Op, under
// shard.Drive — and returns the merged result with the predicate.build
// spans the count opened.
func driveSeed(t *testing.T, q *PreparedQuery, x *ShardExec, seed uint64, opts ...Option) (*shard.Result, []*TraceSpan) {
	t.Helper()
	cfg, err := newConfig(q.cfg, append(opts, WithSeed(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, span := obs.NewTracer(obs.TracerConfig{Sample: 1}).StartRequest(context.Background(), "count", true)
	w := shard.NewRemote(overOp(x, seed))
	res, err := shard.Drive(ctx, cfg.shardPlan(false), []shard.Worker{w})
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	return res, spansNamed(spanFromObs(span.Data()), "predicate.build")
}

// TestShardExecChecksProgramOnce: a ShardExec is the shard, not one seed's
// run of it. Every seed driven through it answers exactly as a fresh
// in-process WithShards(1) run of that seed does, and the executor builds
// its predicate — the interpreter's cross-check of the compiled program
// included — once for all of them. A planted disagreement — a program that
// labels object 0 the other way — fails that one check, and every seed
// labels through the interpreter with the reason recorded; the answers do
// not move.
func TestShardExecChecksProgramOnce(t *testing.T) {
	params := map[string]any{"k": 8}
	plan := []Option{WithMethod("lss"), WithBudget(0.15)}
	sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := q.PrepareShard(ctx, 0, 1, params, WithMethod("lss"), WithSeed(9)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("PrepareShard with a seed: err = %v, want ErrInvalid (the seed rides in with each Op)", err)
	}
	fresh := func(seed uint64) *Estimate {
		t.Helper()
		est, err := q.Execute(ctx, params, append(plan, WithSeed(seed), WithShards(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	same := func(what string, seed uint64, res *shard.Result) {
		t.Helper()
		ref := fresh(seed)
		if res.Count != ref.Count || res.CILo != ref.CI.Lo || res.CIHi != ref.CI.Hi || res.Budget != ref.Budget {
			t.Errorf("%s, seed %d: %v [%v,%v], a fresh run %v [%v,%v]", what, seed, res.Count, res.CILo, res.CIHi, ref.Count, ref.CI.Lo, ref.CI.Hi)
		}
		if int64(res.SamplesUsed) > ref.SamplesUsed {
			t.Errorf("%s, seed %d: %d evaluations, a fresh run %d", what, seed, res.SamplesUsed, ref.SamplesUsed)
		}
	}

	x, err := q.PrepareShard(ctx, 0, 1, params, WithMethod("lss"))
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	for seed := uint64(1); seed <= 4; seed++ {
		res, builds := driveSeed(t, q, x, seed, plan...)
		same("one executor", seed, res)
		for _, b := range builds {
			built++
			if b.Attrs["compiled"] != true {
				t.Errorf("seed %d: predicate.build attrs %v, want compiled", seed, b.Attrs)
			}
		}
	}
	if built != 1 {
		t.Errorf("4 seeds on one executor built %d predicates, want exactly 1", built)
	}

	bad, err := plantDisagreement(t, sess).PrepareShard(ctx, 0, 1, params, WithMethod("lss"))
	if err != nil {
		t.Fatal(err)
	}
	fellBack := 0
	for seed := uint64(1); seed <= 4; seed++ {
		res, builds := driveSeed(t, q, bad, seed, plan...)
		same("planted disagreement", seed, res)
		for _, b := range builds {
			fellBack++
			if b.Attrs["compiled"] != false || b.Attrs["fallback"] != "first-object cross-check failed" {
				t.Errorf("seed %d: predicate.build attrs %v after a failed cross-check, want the interpreter fallback with its reason", seed, b.Attrs)
			}
		}
	}
	if fellBack != 1 {
		t.Errorf("4 seeds on the disagreeing executor built %d predicates, want exactly 1", fellBack)
	}
}

// plantDisagreement prepares the skyband query carrying the program compiled
// from its negation, so the closures and the interpreter differ on every
// object that has a dominator — object 0 among them — and the first-object
// cross-check must fail.
func plantDisagreement(t *testing.T, sess *Session) *PreparedQuery {
	t.Helper()
	planted, err := sess.Prepare(skybandQuery)
	if err != nil {
		t.Fatal(err)
	}
	negated, err := sess.Prepare(strings.Replace(skybandQuery, "COUNT(*) < k", "COUNT(*) >= k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if negated.prog == nil || negated.prog == planted.prog {
		t.Fatal("the negated query did not compile to a program of its own")
	}
	planted.prog = negated.prog
	return planted
}

// TestShardExecConcurrentOps: counts of different seeds share one executor
// at the same time (run under -race) — over the worker's own label memo and
// over a per-shard catalog entry, the two places its labels can live — and
// each still answers as a fresh run of its seed does. Afterwards the
// catalog holds the one seed-free entry.
func TestShardExecConcurrentOps(t *testing.T) {
	params := map[string]any{"k": 8}
	plan := []Option{WithMethod("lss"), WithBudget(0.2)}
	for _, withCatalog := range []bool{false, true} {
		var cat *Catalog
		if withCatalog {
			cat = NewCatalog(0)
		}
		sess, err := NewSession(NewMemorySource(testTable(t, 200, 7)), WithCatalog(cat))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Prepare(skybandQuery)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const seeds = 8
		refs := make([]*Estimate, seeds)
		for i := range refs {
			opts := append(plan, WithSeed(uint64(i+1)), WithShards(1), WithCatalog(nil))
			if refs[i], err = q.Execute(ctx, params, opts...); err != nil {
				t.Fatal(err)
			}
		}
		x, err := q.PrepareShard(ctx, 0, 1, params, WithMethod("lss"))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i, ref := range refs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seed := uint64(i + 1)
				cfg, err := newConfig(q.cfg, append(plan, WithSeed(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				w := shard.NewRemote(overOp(x, seed))
				res, err := shard.Drive(ctx, cfg.shardPlan(false), []shard.Worker{w})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Count != ref.Count || res.CILo != ref.CI.Lo || res.CIHi != ref.CI.Hi || int64(res.SamplesUsed) > ref.SamplesUsed {
					t.Errorf("catalog %t, seed %d: %v [%v,%v] evals %d, a fresh run %v [%v,%v] evals %d", withCatalog, seed,
						res.Count, res.CILo, res.CIHi, res.SamplesUsed, ref.Count, ref.CI.Lo, ref.CI.Hi, ref.SamplesUsed)
				}
			}()
		}
		wg.Wait()
		if withCatalog {
			if st := cat.Stats(); st.Entries != 1 || st.Bytes == 0 {
				t.Errorf("%d seeds left %d catalog entries (%d B), want the shard's one", seeds, st.Entries, st.Bytes)
			}
		}
	}
}
