// Package service is the serving layer over the public lsample SDK: a
// thread-safe dataset registry, result / prepared-query / query-shape
// caches, and admission control for concurrent requests. The HTTP front
// end lives in http.go and is exposed by cmd/lsserve.
//
// The estimation pipeline itself — parsing, the §2 decomposition, automatic
// feature selection, and the paper's methods — lives in repro/lsample; the
// service's job is multi-tenant concerns, and it states each of them once:
// one resolver turns a request into a plan (plan.go: normalized knobs,
// query shape, pinned snapshots, the key every cache uses), one versioned
// store type holds everything cached (store.go), one metrics registry is
// rendered as both /metrics and /v1/stats (meters.go), and the shard-op
// protocol lives whole in internal/shard. Results are deterministic in
// (dataset versions, query fingerprint, knobs, seed), which makes the
// result cache semantically lossless and lets concurrent clients verify
// bit-identical answers.
//
// Concurrency model: registered tables are immutable, each request executes
// against an immutable prepared snapshot, and admission runs at most
// MaxInFlight estimations at once, first come first served — a request that
// cannot start within QueueTimeout fails fast with ErrBusy instead of piling
// up, a dataset whose queue is already hopeless sheds new arrivals
// immediately, and a request that opts in (Degrade) gets
// a budget-degraded answer with a wider interval at the deadline instead of
// a 503. A request whose context is canceled mid-estimation aborts at the
// next predicate evaluation and returns the wrapped cancellation error.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/lsample"
)

// ErrBadRequest marks client errors (unparseable SQL, unknown datasets,
// invalid knobs); the HTTP layer maps it to 400.
var ErrBadRequest = errors.New("service: bad request")

// ErrBusy is returned when admission control cannot start the estimation
// within the queue timeout; the HTTP layer maps it to 503.
var ErrBusy = errors.New("service: too many estimations in flight")

// Options configures a Service. Zero values select the documented defaults.
type Options struct {
	MaxInFlight    int           // concurrent estimations admitted (default 4); a dataset queues at most 8× that
	QueueTimeout   time.Duration // max wait for admission (default 2s)
	CacheSize      int           // result-cache entries; 0 default 256, <0 disables
	CacheTTL       time.Duration // result max age; 0 default 10m, <0 no expiry
	DefaultMethod  string        // method when the request omits one (default "lss")
	DefaultBudget  float64       // budget fraction when omitted (default 0.02)
	Parallelism    int           // per-request classifier parallelism (0 default 1, <0 all cores)
	MaxUploadBytes int64         // CSV upload limit (0 default 64 MiB)
	DataDir        string        // root for durable live datasets ("" = memory-only)
	CatalogBytes   int64         // reuse-catalog budget; 0 default 64 MiB, <0 disables

	// TraceSample is the head-sampling probability for request traces in
	// [0, 1]; 0 records nothing unless a request forces it (explain, a
	// sampled inbound traceparent, or a slow-query threshold).
	TraceSample float64
	// SlowQuery, when > 0, logs the full span tree of any request slower
	// than the threshold (this forces recording on every request, so the
	// offending trace exists when the threshold trips).
	SlowQuery time.Duration
	// Logger receives structured JSON logs (slow queries, panics, the
	// shutdown summary). Nil defaults to a JSON logger on stderr.
	Logger *obs.Logger
	// DisableMetrics leaves GET /metrics off the HTTP handler.
	DisableMetrics bool
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	switch {
	case o.CacheSize == 0:
		o.CacheSize = 256
	case o.CacheSize < 0:
		o.CacheSize = 0
	}
	switch {
	case o.CacheTTL == 0:
		o.CacheTTL = 10 * time.Minute
	case o.CacheTTL < 0:
		o.CacheTTL = 0
	}
	if o.DefaultMethod == "" {
		o.DefaultMethod = "lss"
	}
	if o.DefaultBudget <= 0 {
		o.DefaultBudget = 0.02
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.Logger == nil {
		o.Logger = obs.NewLogger(os.Stderr)
	}
	return o
}

// Service wires the registry, caches, metrics, and admission control around
// the SDK's estimation pipeline.
type Service struct {
	Registry *Registry
	opts     Options
	admit    *admitter
	degSem   chan struct{} // dedicated slot(s) for budget-degraded answers

	// Three stores, one type (store.go). Two are keyed by plan.key and
	// tagged with the versions they were built against: counted results
	// (LRU + TTL); and prepared queries, which hold the parsed AST and the
	// §2 decomposition, after their first feature-using execution the O(N)
	// key index and feature matrix, and the resident hash-plan executors
	// every standalone count and every /v1/shard op runs over (at most
	// maxPrepared × 8 of them, each O(population)). The third, shapes, is
	// keyed by SQL text and untagged: a query's shape and tables are a
	// function of its text alone, so no data version can make an entry stale
	// (Service.shapeOf).
	results *store[*CountResult]
	preps   *store[*lsample.PreparedQuery]
	shapes  *store[queryShape]

	// flights coalesces concurrent identical requests onto one estimation.
	flightMu sync.Mutex
	flights  map[string]*flight

	// catalog is the shared cross-query reuse catalog every prepared
	// session executes through; nil when Options.CatalogBytes < 0.
	catalog *lsample.Catalog

	// tracer records request traces (see internal/obs); logger emits
	// structured JSON lines; metrics is the one registry behind /metrics
	// and /v1/stats, m the handles into it. started anchors the shutdown
	// uptime summary.
	tracer  *obs.Tracer
	logger  *obs.Logger
	metrics *obs.Registry
	m       *meters
	started time.Time

	// ingestApply overrides how Ingest applies a delta to a live table; nil
	// means lt.ApplyDelta. Tests inject durability faults through it.
	ingestApply func(lt *lsample.LiveTable, format string, r io.Reader) (lsample.DeltaSummary, error)
}

// flight is one in-progress estimation that concurrent identical requests
// wait on instead of re-running it (results are deterministic in the cache
// key, so sharing is always correct).
type flight struct {
	done chan struct{}
	res  *CountResult
	err  error
}

// Capacities that are not options: prepared queries are per (data version,
// query shape); a parsed shape is a fingerprint and a few table names.
const (
	maxPrepared = 64
	maxShapes   = 256
)

// New returns a Service over reg with the given options.
func New(reg *Registry, opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		Registry: reg,
		opts:     o,
		admit:    newAdmitter(o.MaxInFlight, 8*o.MaxInFlight),
		degSem:   make(chan struct{}, 1),
		results:  newStore[*CountResult](o.CacheSize, o.CacheTTL),
		preps:    newStore[*lsample.PreparedQuery](maxPrepared, 0),
		shapes:   newStore[queryShape](maxShapes, 0),
		flights:  make(map[string]*flight),
		logger:   o.Logger,
		metrics:  obs.NewRegistry(),
		started:  time.Now(),
	}
	if o.CatalogBytes >= 0 {
		s.catalog = lsample.NewCatalog(o.CatalogBytes)
	}
	s.tracer = obs.NewTracer(obs.TracerConfig{
		Sample:    o.TraceSample,
		SlowQuery: o.SlowQuery,
		Logger:    o.Logger,
	})
	s.m = newMeters(s.metrics)
	s.registerGauges(s.metrics)
	return s
}

// Tracer exposes the service's request tracer (tests and embedding
// binaries read the completed-trace ring through it).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// CatalogStats returns the reuse catalog's accounting (zero when the
// catalog is disabled).
func (s *Service) CatalogStats() lsample.CatalogStats {
	if s.catalog == nil {
		return lsample.CatalogStats{}
	}
	return s.catalog.Stats()
}

// CountRequest is one estimation request.
type CountRequest struct {
	SQL        string         `json:"sql"`
	Params     map[string]any `json:"params,omitempty"`     // free identifiers: numbers or strings
	Method     string         `json:"method,omitempty"`     // srs ssp ssn lws lss qlcc qlac oracle
	Budget     float64        `json:"budget,omitempty"`     // fraction of |O| to label, (0,1]
	Classifier string         `json:"classifier,omitempty"` // rf knn nn random (default rf)
	Strata     int            `json:"strata,omitempty"`     // strata for stratified methods (default 4)
	Interval   string         `json:"interval,omitempty"`   // wald (default) or wilson
	Seed       uint64         `json:"seed,omitempty"`
	Shards     int            `json:"shards,omitempty"` // >0: sharded in-process execution (srs/lss/oracle)
	Exact      bool           `json:"exact,omitempty"`  // also compute the true count (slow)
	// NoCache bypasses the result cache and the shared reuse catalog: the
	// count runs on an empty label memo of its own, so it pays a cold run's
	// evaluations and keeps nothing, and answers what the cached request
	// answers.
	NoCache bool `json:"no_cache,omitempty"`
	// Degrade opts into a budget-degraded answer when admission control
	// would otherwise 503: a tiny simple-random-sample estimate (wider
	// confidence interval, no exact pass, never cached) computed under a
	// dedicated slot, marked Degraded in the result.
	Degrade bool `json:"degrade,omitempty"`
	// Explain forces this request's trace to be recorded and returns the
	// completed span tree inline in the result (never cached).
	Explain bool `json:"explain,omitempty"`
}

// CountResult is the outcome of one estimation request. A GROUP BY request
// additionally carries one GroupRow per group (ordered by key) with
// Estimate holding the sum of the per-group estimates.
type CountResult struct {
	Fingerprint string     `json:"fingerprint"`
	Method      string     `json:"method"`
	Interval    string     `json:"interval"`
	Objects     int        `json:"objects"` // |O| enumerated by Q2
	Budget      int        `json:"budget"`  // predicate evaluations allowed
	Estimate    float64    `json:"estimate"`
	CILo        float64    `json:"ci_lo"` // meaningful only when has_ci (no omitempty: 0 is a valid bound)
	CIHi        float64    `json:"ci_hi"`
	HasCI       bool       `json:"has_ci"`
	Evals       int64      `json:"evals"` // predicate evaluations spent
	TrueCount   *int       `json:"true_count,omitempty"`
	FeatureCols []string   `json:"feature_cols,omitempty"`
	GroupCols   []string   `json:"group_cols,omitempty"` // GROUP BY requests only
	Groups      []GroupRow `json:"groups,omitempty"`     // GROUP BY requests only, ordered by key
	Seed        uint64     `json:"seed"`
	DurationMS  float64    `json:"duration_ms"`
	PredicateMS float64    `json:"predicate_ms"`          // wall time inside the expensive predicate
	Compiled    bool       `json:"compiled"`              // labeling ran through the compiled predicate engine
	Reuse       string     `json:"reuse"`                 // catalog reuse path: "direct", "extension", or "none"
	Shards      int        `json:"shards,omitempty"`      // >0 when the answer was computed sharded
	Degraded    bool       `json:"degraded,omitempty"`    // lost shards absorbed into the interval, or a budget-degraded under-load answer (Degrade)
	LostShards  []int      `json:"lost_shards,omitempty"` // shard indices lost mid-query (degraded answers)
	Cached      bool       `json:"cached"`
	// Trace is the request's completed span tree, present only when the
	// request set Explain. It is attached to a per-request copy after the
	// estimation finishes, so cached results never carry a stale trace.
	Trace *obs.SpanData `json:"trace,omitempty"`
}

// GroupRow is one group's estimate within a GROUP BY count response.
type GroupRow struct {
	Key       []string `json:"key"` // group column values, aligned with group_cols
	Objects   int      `json:"objects"`
	Estimate  float64  `json:"estimate"`
	CILo      float64  `json:"ci_lo"`
	CIHi      float64  `json:"ci_hi"`
	HasCI     bool     `json:"has_ci"`
	Sampled   int      `json:"sampled"`
	Exact     bool     `json:"exact"`
	TrueCount *int     `json:"true_count,omitempty"`
}

// badf wraps a client error.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// mapSDKErr converts lsample errors into the service's error vocabulary so
// the HTTP layer's status mapping has a single set of sentinels: client
// errors become ErrBadRequest (400), durability failures ErrDurability
// (503 + Retry-After).
func mapSDKErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, lsample.ErrUnavailable) {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	if errors.Is(err, lsample.ErrInvalid) {
		// Double-wrap: callers branch on ErrBadRequest, but the underlying
		// chain (e.g. an http.MaxBytesError) must stay reachable so the
		// HTTP layer can map size violations to 413 rather than 400.
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return err
}

// Count runs one estimation request end to end.
func (s *Service) Count(req *CountRequest) (*CountResult, error) {
	return s.CountCtx(context.Background(), req)
}

// CountCtx is Count with cancellation: ctx aborts waiting — for admission
// or for a coalesced in-flight estimation — and, since the SDK observes
// cancellation at labeling-loop granularity, also aborts an estimation that
// has already been admitted. A canceled leader's partial work is discarded;
// coalesced waiters retry on their own admission budget.
func (s *Service) CountCtx(ctx context.Context, req *CountRequest) (*CountResult, error) {
	s.m.requests.Inc()
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0)) }()
	ctx, span := s.tracer.StartRequest(ctx, "count", req.Explain)
	res, err := func() (r *CountResult, e error) {
		// A predicate fault (a later object's division by zero) comes back
		// from the SDK as an ErrInvalid error and is a 400. Any other panic
		// deep inside an estimation is a bug: it becomes a logged 500
		// instead of killing the request goroutine.
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error(ctx, "panic serving count request",
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				r, e = nil, fmt.Errorf("service: internal error: %v", p)
			}
		}()
		return s.count(ctx, req)
	}()
	if err != nil {
		if errors.Is(err, ErrBusy) {
			s.m.rejected.Inc()
		} else {
			s.m.errors.Inc()
		}
		span.Set("error", err.Error())
	} else if res != nil {
		span.Set("method", res.Method)
		span.Set("objects", res.Objects)
		span.Set("evals", res.Evals)
		span.Set("cached", res.Cached)
	}
	span.End()
	if err == nil && res != nil && req.Explain && span.Recording() {
		// Attach the trace to a per-request copy: the flight/cache paths
		// above may share res with concurrent requests, and a cached result
		// must never carry another request's span tree.
		out := *res
		out.Trace = span.Data()
		return &out, nil
	}
	return res, err
}

func (s *Service) count(ctx context.Context, req *CountRequest) (*CountResult, error) {
	p, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	if err := p.encodeParams(); err != nil {
		return nil, err
	}
	key := p.key(p.resultScope())
	// Every admission attempt this request makes — as leader now or after
	// retrying a failed leader — draws from one QueueTimeout budget, so
	// coalescing can neither reject a request before its own window ends
	// nor let retries stack into multiples of it.
	admitDeadline := time.Now().Add(s.opts.QueueTimeout)

	hit := func(v *CountResult) (*CountResult, error) {
		s.m.cacheHits.Inc()
		out := *v // shallow copy; cached fields are read-only
		out.Cached = true
		return &out, nil
	}
	var fl *flight
	if !p.NoCache {
		if v, ok := s.results.get(key); ok {
			return hit(v)
		}
		// Coalesce concurrent identical requests onto one estimation: a
		// cold cache plus many clients must not run the same work
		// MaxInFlight times and 503 the rest.
		for fl == nil {
			s.flightMu.Lock()
			if other, ok := s.flights[key]; ok {
				s.flightMu.Unlock()
				select {
				case <-other.done:
				case <-ctx.Done():
					return nil, fmt.Errorf("service: %w", ctx.Err())
				}
				if other.err != nil {
					// The leader's failure to start — its client went
					// away, or its admission window (which began before
					// ours) expired — says nothing about this request:
					// take our own turn, bounded by admitDeadline.
					if errors.Is(other.err, ErrBusy) ||
						errors.Is(other.err, context.Canceled) ||
						errors.Is(other.err, context.DeadlineExceeded) {
						continue
					}
					return nil, other.err
				}
				return hit(other.res)
			}
			// Re-check the cache before becoming leader: a flight that
			// finished between our miss and here puts its result before
			// deregistering, so a miss under flightMu is authoritative.
			if v, ok := s.results.get(key); ok {
				s.flightMu.Unlock()
				return hit(v)
			}
			fl = &flight{done: make(chan struct{})}
			s.flights[key] = fl
			s.flightMu.Unlock()
		}
		s.m.cacheMisses.Inc()
		defer func() {
			if fl.res == nil && fl.err == nil {
				// Reached only if the estimation panicked; don't strand
				// the waiters with a nil result.
				fl.err = fmt.Errorf("service: internal error during shared estimation")
			}
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(fl.done)
		}()
	}

	res, err := func() (*CountResult, error) {
		// Admission: at most MaxInFlight estimations run concurrently.
		release, aerr := s.admitted(ctx, p.Versions, admitDeadline)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
		res, err := s.estimate(ctx, p)
		if err == nil && !p.NoCache {
			s.results.put(key, p.Vector, res)
		}
		return res, err
	}()
	if fl != nil {
		fl.res, fl.err = res, err
	}
	// Deadline-aware degradation: the flight above has already published
	// ErrBusy (coalesced waiters retry on their own budgets), but this
	// client asked for a degraded answer over a 503.
	if err != nil && errors.Is(err, ErrBusy) && req.Degrade {
		if dres, derr := s.degraded(ctx, p, req.Budget); derr == nil {
			s.m.degraded.Inc()
			return dres, nil
		}
	}
	return res, err
}

// admitted waits for an admission slot on the dataset queue named by
// versions — until deadline when it is set, until ctx ends otherwise — and
// returns the function that gives the slot back.
func (s *Service) admitted(ctx context.Context, versions string, deadline time.Time) (release func(), err error) {
	_, wsp := obs.StartSpan(ctx, "admission.wait")
	wsp.Set("dataset", versions)
	if err = s.admit.acquire(ctx, versions, deadline); err != nil {
		wsp.Set("error", err.Error())
	}
	wsp.End()
	if err != nil {
		return nil, err
	}
	return s.admit.release, nil
}

// degradedBudget caps the labeling budget of a budget-degraded answer.
const degradedBudget = 0.005

// degradedWait bounds how long a shed request waits for the dedicated
// degraded-answer slot before giving up and returning the original 503.
const degradedWait = 100 * time.Millisecond

// degraded computes the budget-degraded answer for a request that admission
// shed: a tiny simple-random-sample estimate (so the client gets an
// unbiased count with a wider confidence interval at its deadline instead
// of a 503) under a dedicated single-slot semaphore that keeps degraded
// service available while the main admission queues are saturated. The
// answer skips the exact pass, is marked Degraded, and is never cached.
func (s *Service) degraded(ctx context.Context, p *plan, asked float64) (*CountResult, error) {
	select {
	case s.degSem <- struct{}{}:
		defer func() { <-s.degSem }()
	case <-time.After(degradedWait):
		return nil, ErrBusy
	case <-ctx.Done():
		return nil, fmt.Errorf("service: %w", ctx.Err())
	}
	// The request's own plan, cut down: same query, data, interval and
	// seed; a tiny srs sample, one core, no exact pass, no in-process
	// sharding, and always through the reuse catalog.
	d := *p
	d.Method, d.Budget = "srs", degradedBudget
	if asked > 0 && asked < d.Budget {
		d.Budget = asked
	}
	d.parallelism, d.Exact, d.Shards, d.NoCache = 1, false, 0, false
	res, err := s.estimate(ctx, &d)
	if err != nil {
		return nil, err
	}
	res.Degraded = true
	return res, nil
}

// estimate runs the uncached path: reuse (or prepare) the query against the
// plan's snapshot and execute it through the SDK.
func (s *Service) estimate(ctx context.Context, p *plan) (*CountResult, error) {
	t0 := time.Now()
	out, err := s.execute(ctx, p)
	if err != nil {
		return nil, mapSDKErr(err)
	}
	took := time.Since(t0)
	out.Interval, out.Shards = p.Interval, p.Shards
	out.DurationMS = float64(took) / 1e6
	s.m.estimatesRun.Inc()
	s.m.estimateBusy.Add(took)
	s.m.predicateEvals.Add(out.Evals)
	s.m.predicateBusy.Add(time.Duration(out.PredicateMS * 1e6))
	return out, nil
}

// execute runs the plan through the SDK and writes the reply from its plain
// or grouped estimate.
func (s *Service) execute(ctx context.Context, p *plan) (*CountResult, error) {
	_, psp := obs.StartSpan(ctx, "prepare")
	prep, err := s.prepared(p)
	psp.End()
	if err != nil {
		return nil, err
	}
	opts := p.options()
	if p.NoCache && s.catalog != nil {
		// NoCache promises a full recomputation, so the run reads and keeps
		// none of the shared catalog's labels: it gets an empty memo of its
		// own. An answer is the same whatever the memo holds, so the run
		// still takes the cached request's branch and replies the cached
		// answer, at a cold run's evaluation bill. (Without a shared catalog
		// the cached request runs the classic body, and so does this one.)
		opts = append(opts, lsample.WithCatalog(lsample.NewCatalog(0)))
	}
	if prep.IsGrouped() {
		ge, err := prep.ExecuteGroups(ctx, p.Params, opts...)
		if err != nil {
			return nil, err
		}
		res := &shard.Result{N: ge.Objects, Budget: ge.Budget, Count: ge.Total, SamplesUsed: int(ge.SamplesUsed),
			Groups: make([]shard.Group, len(ge.Groups))}
		for i, g := range ge.Groups {
			sg := shard.Group{Parts: g.Key, N: g.Objects, Count: g.Count, Sampled: g.Sampled, Exact: g.Exact}
			if g.CI != nil {
				sg.HasCI, sg.CILo, sg.CIHi = true, g.CI.Lo, g.CI.Hi
			}
			if g.TrueCount != nil {
				sg.HasTrue, sg.TrueCount = true, *g.TrueCount
			}
			res.Groups[i] = sg
		}
		return countReply(CountResult{
			Fingerprint: ge.Fingerprint,
			Method:      ge.Method,
			FeatureCols: ge.FeatureColumns,
			GroupCols:   ge.GroupColumns,
			Seed:        ge.Seed,
			PredicateMS: float64(ge.Timings.Predicate) / 1e6,
			Compiled:    ge.Labeling.Compiled,
			Reuse:       lsample.ReuseNone, // grouped plans are outside the catalog's contract
		}, res, p.Exact), nil
	}
	est, err := prep.Execute(ctx, p.Params, opts...)
	if err != nil {
		return nil, err
	}
	res := &shard.Result{N: est.Objects, Budget: est.Budget, Count: est.Count, SamplesUsed: int(est.SamplesUsed)}
	if est.CI != nil {
		res.HasCI, res.CILo, res.CIHi = true, est.CI.Lo, est.CI.Hi
	}
	if est.TrueCount != nil {
		res.HasTrue, res.TrueCount = true, *est.TrueCount
	}
	return countReply(CountResult{
		Fingerprint: est.Fingerprint,
		Method:      est.Method,
		FeatureCols: est.FeatureColumns,
		Seed:        est.Seed,
		PredicateMS: float64(est.Timings.Predicate) / 1e6,
		Compiled:    est.Labeling.Compiled,
		Reuse:       cmp.Or(est.Reuse, lsample.ReuseNone), // classic path: no catalog in play
	}, res, p.Exact), nil
}

// countReply writes the one reply every serving path returns. head carries
// what only its caller knows (the query's identity, the knobs, how the
// labels were bought); res is the answer in the merge driver's form, which
// a coordinator holds already and Service.execute puts the SDK's estimates
// into. A GROUP BY answer's intervals are its rows': the total carries none
// (the sum of the per-group bounds is not a 1−α interval for the sum), and
// under exact its true count is the sum of the rows', so grouped and plain
// replies expose the same field.
func countReply(head CountResult, res *shard.Result, exact bool) *CountResult {
	out := head
	out.Objects, out.Budget, out.Estimate, out.Evals = res.N, res.Budget, res.Count, int64(res.SamplesUsed)
	out.Shards, out.Degraded, out.LostShards = res.Shards, res.Degraded, res.Lost
	if len(head.GroupCols) == 0 {
		if out.HasCI = res.HasCI; res.HasCI {
			out.CILo, out.CIHi = res.CILo, res.CIHi
		}
		if res.HasTrue {
			tc := res.TrueCount
			out.TrueCount = &tc
		}
		return &out
	}
	trueTotal := 0
	for _, g := range res.Groups {
		row := GroupRow{Key: g.Parts, Objects: g.N, Estimate: g.Count, HasCI: g.HasCI, Sampled: g.Sampled, Exact: g.Exact}
		if g.HasCI {
			row.CILo, row.CIHi = g.CILo, g.CIHi
		}
		if g.HasTrue {
			tc := g.TrueCount
			row.TrueCount = &tc
			trueTotal += tc
		}
		out.Groups = append(out.Groups, row)
	}
	if exact && len(res.Groups) > 0 && !res.Degraded {
		out.TrueCount = &trueTotal
	}
	return &out
}

// prepared returns the cached PreparedQuery for the plan's (dataset
// versions, query shape), preparing it against the pinned snapshot on first
// use, so repeated requests over the same data skip parsing, decomposition
// and feature building.
func (s *Service) prepared(p *plan) (*lsample.PreparedQuery, error) {
	key := p.key("")
	if prep, ok := s.preps.get(key); ok {
		return prep, nil
	}
	tables := make([]*lsample.Table, 0, len(p.Tables))
	for _, t := range p.Tables {
		tables = append(tables, t)
	}
	sess, err := lsample.NewSession(lsample.NewMemorySource(tables...),
		lsample.WithCatalog(s.catalog))
	if err != nil {
		return nil, err
	}
	prep, err := sess.Prepare(p.SQL)
	if err != nil {
		return nil, err
	}
	// Make room by dropping what can never be requested again before the
	// LRU has to evict something live. A concurrent request that prepared
	// the same key first wins; share its feature memoization.
	s.preps.dropStale(s.Registry.Serves)
	return s.preps.put(key, p.Vector, prep), nil
}

// dropStale evicts, from every store and the reuse catalog, what was built
// against dataset versions the registry no longer serves. It runs on every
// registration and ingest (not just lazily inside prepared), so superseded
// snapshots are released as soon as they are superseded — the service's
// memory footprint stays proportional to the live version set, not the
// update history — and a live Repin or re-registration can never leave a
// stale catalog entry serving an old data version.
func (s *Service) dropStale() {
	s.results.dropStale(s.Registry.Serves)
	s.preps.dropStale(s.Registry.Serves)
	if s.catalog != nil {
		s.catalog.EvictStale(s.Registry.Current())
	}
}
