// Package lsample is the public, embeddable SDK for learned approximate
// counting — the one true API over this repository's reproduction of
// "Learning to Sample: Counting with Complex Queries" (PVLDB 2019). It
// estimates C(O, q), the number of objects satisfying an expensive
// predicate, by spending a small labeling budget on a learned sampling
// design instead of evaluating q everywhere. Everything else in the module
// (the CLIs, the HTTP service, the examples) is built on this package.
//
// # Quick start
//
// Counting over your own objects takes an Estimator, a feature vector per
// object, and the predicate as a callback:
//
//	est, err := lsample.NewEstimator(
//		lsample.WithMethod("lss"),
//		lsample.WithBudget(0.02),
//		lsample.WithSeed(42),
//	)
//	if err != nil { ... }
//	res, err := est.Estimate(ctx, features, func(i int) bool {
//		return expensiveCheck(i) // e.g. a correlated subquery or UDF
//	})
//	fmt.Printf("count ≈ %.0f, 95%% CI [%.0f, %.0f], %d evaluations\n",
//		res.Count, res.CI.Lo, res.CI.Hi, res.SamplesUsed)
//
// Counting over SQL goes through a Session bound to a DataSource, and a
// PreparedQuery that reads the query once ("How a SQL count runs" below),
// then executes many times with bound parameters:
//
//	src := lsample.NewMemorySource(table)
//	sess, _ := lsample.NewSession(src, lsample.WithMethod("lss"))
//	q, err := sess.Prepare(`SELECT o1.id FROM D o1, D o2
//		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
//		GROUP BY o1.id HAVING COUNT(*) < k`)
//	for _, k := range []int{10, 25, 50} {
//		res, err := q.Execute(ctx, map[string]any{"k": k})
//		...
//	}
//
// # GROUP BY counting
//
// The grouped form SELECT g, COUNT(*) FROM (Q1) GROUP BY g — single or
// multi-column — estimates every group from one shared plan: the inner
// Q1's GROUP BY carries the object key plus the grouping columns, one
// stream of samples is drawn, each sampled object is labeled once with the
// expensive predicate, and per-group counts, CIs, and proportions are read
// out of the shared draw (with a dedicated fallback draw for rare groups).
// Prepare detects the shape (IsGrouped); ExecuteGroups — or the
// Session.CountGroups one-shot — returns a GroupedEstimate whose Groups
// are ordered by key:
//
//	q, err := sess.Prepare(`SELECT region, COUNT(*) FROM (
//		SELECT o1.id, o1.region FROM D o1, D o2
//		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
//		GROUP BY o1.id, o1.region HAVING COUNT(*) < k
//	) GROUP BY region`)
//	res, err := q.ExecuteGroups(ctx, map[string]any{"k": 25})
//	for _, g := range res.Groups { ... g.Key, g.Count, g.CI ... }
//
// Grouped estimation supports methods srs, lss (the default), and oracle
// (see GroupMethods); for a fixed seed the per-group results are
// byte-identical across runs and parallelism settings, like everything
// else.
//
// # Options
//
// Every entry point (NewSession, Prepare, NewEstimator, Execute, Estimate)
// accepts functional options; later layers override earlier ones.
//
//	WithMethod(name)      estimation method: srs ssp ssn lws lss qlcc qlac
//	                      oracle (default lss; grouped queries accept
//	                      srs, lss, oracle)
//	WithClassifier(name)  classifier for learned methods: rf knn nn random
//	                      (default rf, a 100-tree random forest)
//	WithStrata(h)         strata for ssp/ssn/lss, plain and grouped
//	                      (default 4)
//	WithBudget(frac)      labeling budget as a fraction of |O| in (0, 1]
//	                      (default 0.02; at least 10 evaluations; grouped
//	                      runs may add a small rare-group top-up)
//	WithParallelism(p)    classifier and batched-labeling workers: 0 all
//	                      cores, 1 sequential; estimates are byte-identical
//	                      at any value
//	WithSeed(s)           random seed; fixed seed ⇒ byte-identical runs
//	WithInterval(iv)      Wald (default) or Wilson proportion intervals —
//	                      applies to srs, grouped per-group SRS estimates,
//	                      and the grouped rare-group fallback
//	WithExact(true)       also compute the exact count (slow; for tests)
//	WithShards(n)         run SQL executions as n hash-aligned in-process
//	                      shards (srs, lss, oracle; 0, the default,
//	                      disables); byte-identical at any n — see
//	                      "Sharded execution" below
//	WithCatalog(c)        attach a cross-query reuse catalog to SQL
//	                      executions (nil detaches); see "Cross-query reuse
//	                      catalog" below
//	WithTracer(t)         record a head-sampled span tree per execution
//	                      (phase granularity — enumerate, predicate build,
//	                      estimate, ... — never per evaluation; nil
//	                      detaches, and a disabled or unsampled tracer
//	                      keeps labeling zero-alloc and estimates
//	                      byte-identical)
//
// Every interval is a 95 % interval (ConfidenceInterval.Level is 0.95), the
// paper's §5 set-up.
//
// # Predicate compilation
//
// Prepare compiles the decomposed per-object predicate (Q3) once per
// prepared query: comparison/arithmetic/boolean nodes lower to typed
// closures over columnar data, equality-correlated EXISTS probes use
// prebuilt hash indexes, and EXISTS short-circuits where the query shape
// allows. Queries outside the compilable subset transparently fall back to
// the interpreted engine, which remains the semantics oracle; a
// first-object cross-check guards every compiled execution. The labeling
// path taken (and the fallback reason, if any) is reported in
// Estimate.Labeling / GroupedEstimate.Labeling. Estimates are
// byte-identical on either path — compilation (with batched, optionally
// parallel labeling) changes only wall-clock cost. There is no knob that
// selects an evaluator: the closures are the one compiled path and the
// interpreter is their fallback and their test reference.
//
// A predicate can also fail on the data: a division whose divisor is zero,
// or SQRT of a negative, on an object past the first (the one object both
// evaluators check up front). Execute, ExecuteGroups, Refresh and
// ShardExec.Op return such a fault as an error wrapping ErrInvalid, naming
// the fault — on every path, at any parallelism or shard count.
//
// # DataSource contract
//
// A DataSource resolves table names to immutable *Table snapshots:
//
//	type DataSource interface {
//		Table(name string) (*Table, error)
//		Names() []string
//	}
//
// A *Table returned once must never change — PreparedQuery binds the
// snapshot at Prepare time and relies on it staying frozen; serve new data
// by returning a new *Table and let callers re-Prepare. Shipped
// implementations: NewMemorySource (in-memory tables — built with NewTable,
// OpenCSV or SyntheticTable) and NewLiveSource (live tables resolved to
// their current pinned snapshot).
//
// # Live data and refresh
//
// A LiveTable accepts append/update/delete batches (Apply, or streaming
// CSV/NDJSON via ApplyDelta) while publishing immutable MVCC snapshots:
// every batch bumps the version, Snapshot pins the current state forever,
// and appends publish in O(columns) by sharing columnar storage. Register
// live tables in a LiveSource and use Session.PrepareLive/LiveQuery.Refresh
// to maintain an estimate across data changes at a labeling price
// proportional to the delta:
//
//	lq, _ := sess.PrepareLive(`SELECT i.id FROM items i, events e
//		WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > 4`)
//	r, _ := lq.Refresh(ctx, nil) // cold: labels ≈ budget, trains classifier
//	// ...batches arrive...
//	r, _ = lq.Refresh(ctx, nil)  // warm: labels ≈ O(delta), memo answers the rest
//
// Refresh samples by per-key hashing (not an RNG stream), so sample
// membership is a pure function of (snapshot, seed) and changes only where
// the data changed; memoized labels fill everything the delta provably
// left alone. The label-reuse contract, in decreasing reuse:
//
//   - Appends to tables whose every Q3 alias is equality-pinned
//     (transitively) to the object key — e.g. the injected GL = o.key
//     correlation, or equi-joins on it — invalidate only the objects the
//     new rows name: the refresh labels the delta's objects and nothing
//     else, and compiled hash indexes and feature matrices are patched in
//     place rather than rebuilt.
//   - Appends touching an alias that is not key-pinned (e.g. the second
//     alias of a self-join) may flip any label: the memo is discarded and
//     that refresh is priced like a cold estimate (InvalidatedAll).
//   - Updates and deletes compact row storage into a new epoch: likewise a
//     cold-priced refresh.
//   - Changing bound parameter values changes the predicate itself: all
//     maintained state resets.
//
// The classifier and strata are retrained only when more than 10 % of the
// learn sample is new or invalidated since the last training (so refreshed
// estimates between retrains are byte-identical to a cold run over the same
// state, whose bill is the refresh's SamplesUsed + ReusedLabels: every label
// it read, fresh or memoized); Refresh reports Retrained, InvalidatedAll,
// SamplesUsed (the fresh labels), and ReusedLabels so the delta pricing is
// always visible.
// Refresh supports methods srs, lss, and oracle — the oracle variant is a
// delta-priced exact count. It neither shards nor consults a reuse
// catalog: PrepareLive and Refresh reject WithShards and WithCatalog with
// ErrInvalid.
//
// # How a SQL count runs
//
// Every SQL count has one front half, the paper's §2, stated once in this
// package. The query's text becomes an analysis — Q1 decomposed into the
// object query Q2 and the per-object predicate Q3, the tables it names,
// its object key — when Prepare or PrepareLive reads it (QueryShape reads
// only its shape and tables). Each count then evaluates the analysis into a
// population: Q2's rows over the pinned tables with the parameters bound,
// plus, where the method reads them, each object's feature row. Three back
// halves take a population from there. Execute without a catalog or
// shards, and ExecuteGroups without shards, run the paper's RNG-driven
// methods (internal/core) through one classic body, plain and grouped
// alike, which the Estimator's callback counts share — a grouped count with
// only a catalog attached included. Execute with WithCatalog or WithShards,
// and ExecuteGroups with WithShards, run the hash plan: every sampling
// decision is a hash of the object key, so results are pure functions of
// (snapshots, plan) and can be memoized, extended, partitioned, and
// refreshed byte-identically; it has one implementation,
// internal/shard's Drive over N >= 1 in-process workers — one worker when
// only a catalog asked for it, s under WithShards(s) — and serves methods
// srs, lss, and oracle over queries with a unique integer object key.
// Everything of a hash-plan count that no seed or budget can change — the
// population, its partition, the feature rows and the one predicate every
// count shares, cross-checked once — stays resident on the PreparedQuery
// (up to 8 parameter bindings × layouts), so repeating a count re-derives
// none of it. Labels outlive a count only in a catalog: without one, every
// count buys its own.
// LiveQuery.Refresh runs the hash plan's recipe steps over the labels,
// classifier and strata it maintains. The classic body and the hash plan
// give different (each deterministic) estimates for the same seed, so an
// Execute with neither a catalog nor shards answers differently from one
// with either — compare like with like.
//
// # Cross-query reuse catalog
//
// A Catalog (NewCatalog, attached via WithCatalog) stores what the hash
// plan buys — labels, one space per predicate without its count threshold
// — and hands them to later
// executions, sessions, and queries that share table snapshots. An entry
// is a label memo and nothing else: it never holds a sample, scores, a
// classifier or a stratification design, because all of those are
// arithmetic over (keys, seed, labels) that an execution redoes in a
// fraction of a millisecond. Entries are keyed by what a label depends
// on besides its predicate — (snapshots, shard, object-enumeration shape,
// feature columns) — so no seed, budget, method, classifier or stratum
// count splits them: every count over one snapshot of one query shape
// shares one entry (one per shard under WithShards), which grows with the
// labels bought and stops at one per object and label space — about 10 KB
// for a fully labeled 300-object population, at most 16 spaces kept.
//
// A compiled predicate whose HAVING is COUNT(*) <op> p, with p a parameter
// the query reads nowhere else and bound to a finite number, keeps a count
// space keyed by the predicate without p: per object, what its evaluations
// learned of the group's row count — exactly, when a walk completed
// (0 when the object joins no row), or at least n, when a walk stopped at
// the n-th row because n settled its comparison. A count at threshold t is
// answered from the space for every object whose walks went as far as the
// evaluation at t would, and evaluates only the rest: after k = 30, a
// HAVING COUNT(*) < k count at k = 25 evaluates nothing the k = 30 count
// labeled, and a count at k = 35 only the objects k = 30 found at least 30
// rows for. Every other predicate — the interpreter fallback, a literal,
// computed, NaN or non-numeric threshold, any other HAVING — keeps a one-bit
// space per predicate fingerprint. The catalog's byte budget bounds live bytes (Stats().Bytes is
// within 25 % of the heap the entries hold); under Go's default GOGC the
// process's resident share is about twice that. On Execute, a method or
// query shape outside the hash plan's contract transparently takes the
// classic branch; inside it there is one execution path, and Estimate.Reuse
// names what the memo did for it:
//
//   - ReuseDirect: the memo answered every label — a rerun of a request,
//     an srs request at a smaller budget (a prefix of the sample), or any
//     request once the population is labeled. Zero predicate evaluations;
//     no predicate is even built, so the interpreter's first-object
//     cross-check is not paid either.
//   - ReuseExtension: the memo answered some labels and the rest were
//     bought — a larger budget under the same seed (bottom-k at a larger k
//     is a strict superset, so only new keys pay), a seed or method nobody
//     ran before, or a predicate that differs in Q3-bound parameters
//     (which shares the entry; another count threshold shares its count
//     space too and buys only the labels the stored counts do not settle,
//     any other parameter has a label space of its own and buys all of its
//     labels).
//   - ReuseNone: nobody had asked the entry for a label before.
//
// Eviction is size-weighted LFU over whole entries under the catalog's
// byte budget, with automatic invalidation when a snapshot is superseded
// (EvictStale; the HTTP service wires this to ingest and re-registration).
//
// The determinism contract extends to the catalog: for a fixed
// (snapshots, query, params, method, budget, seed) the estimate is
// byte-identical to a catalog-free run (WithShards(1)) no matter what the
// catalog holds, because reused state is only labels — pure functions of
// snapshot, key, and predicate; a label a count space settles is the one
// an evaluation at that threshold returns. The execution selects its
// samples, fits its classifier and cuts its strata exactly as the cold run
// does; only what it pays for labels differs, which Estimate reports in
// SamplesUsed and ReusedLabels.
//
// # Sharded execution
//
// WithShards(s) runs the hash plan over s hash-aligned shards: each object
// is owned by exactly one shard (a pure hash of its key), every round of
// the recipe scatters over the shards, and the partials merge exactly. The
// contract:
//
//   - Byte-identity: for a fixed (snapshots, query, params, method,
//     budget, seed), the estimate is byte-identical at every shard count —
//     WithShards(1), WithShards(8), and a one-worker catalog run all
//     agree, at every WithParallelism value. Sharding is a deployment
//     knob, never a semantics knob.
//   - Scope: methods srs, lss, and oracle, over queries with a unique
//     integer object key, plain and GROUP BY. Anything else is a request
//     error (the sharded path never silently falls back). WithShards(0)
//     disables sharding (the default).
//   - Catalog composition: with a catalog attached, each shard's labels
//     live in an entry of the one kind, its key's shard component naming
//     the exact layout (empty for a one-worker run), so layouts fill
//     independently, a layout is never served another layout's labels, and
//     running one layout evicts none of another's. On every layout a run of a seed the catalog has never seen
//     can report Reuse == ReuseExtension or ReuseDirect and spend fewer
//     evaluations than its budget (its estimate is unchanged:
//     byte-identical to a catalog-free run). A sharded run reports
//     ReuseNone if any entry it asked had never been asked before.
//
// PrepareShard(ctx, index, count, params) returns a handle on a single
// shard (ShardExec) for out-of-process deployments. The shard itself — its
// slice of the population, its feature rows and its cross-checked predicate
// — is not one seed's run of it: the prepared query keeps it resident and
// hands it to every PrepareShard of the same (parameters, shard, method's
// need for features, labeling knobs), so a worker process asks once per op
// and pays enumeration and the cross-check once per shard. The handle is
// per call: it carries that call's options, the catalog among them, takes
// no seed, and no budget matters to it. Its one entry point, Op(ctx, seed, op, args), runs one named operation of the
// shard-op protocol under the given plan seed; the JSON argument and reply
// blocks are opaque to the SDK's caller, so a worker passes them through
// untouched and a coordinator (cmd/lsserve -role=coordinator, or
// internal/service.NewCoordinator in Go) scatters the ops over a roster and
// merges with the identical driver, preserving the same byte-identity. See
// ShardExec and ShardExec.Op for what is kept between ops.
//
// # Durability
//
// Live tables are memory-only by default. OpenLiveTable (or OpenLiveDir,
// which reads the identity stored in the directory) roots a LiveTable in a
// data directory backed by a checksummed write-ahead log: every Apply and
// ApplyDelta batch is logged and fsynced BEFORE it mutates the table, so a
// nil error is a durability acknowledgment — the batch survives any crash
// — and a failure to persist (ErrUnavailable) applies nothing at all.
// Periodic checkpoints (automatic past a log-size threshold, explicit via
// Checkpoint, and on Close) bound recovery time by snapshotting the full
// columnar state and pruning the log behind it.
//
// The recovery contract: reopening a directory restores the newest valid
// checkpoint and replays every durable batch after it, yielding exactly
// the state whose batches were acknowledged. A torn tail from a crash
// mid-write is truncated (it was never acknowledged); corruption anywhere
// else — a failed record checksum in a sealed segment, an invalid
// checkpoint — fails the open rather than loading garbage. Because
// estimates are a pure function of (snapshot, seed), an estimate prepared
// over a recovered table is byte-identical to one prepared before the
// crash at the same version, at any parallelism.
//
// # Cancellation and determinism
//
// Every estimation takes a context.Context and observes cancellation
// cooperatively at labeling-loop granularity: a canceled context aborts the
// run before its next predicate evaluation and returns an error wrapping
// context.Canceled or context.DeadlineExceeded (on the hash plan and on
// Refresh: "lsample: labeling canceled: ..."). The checks consume no randomness, so for a fixed seed
// an uncanceled run is byte-identical at any parallelism — which is what
// makes result caches lossless and concurrent replicas verifiable.
//
// The repository's ARCHITECTURE.md describes how this package sits on the
// internal layers and which mechanisms keep the contracts stated here;
// README.md has the quick starts.
package lsample
