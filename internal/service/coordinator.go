package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/lsample"
)

// ErrDataChanged marks a query that observed two different dataset
// versions across its shard operations: an ingest or re-registration
// landed mid-query. Nothing partial is merged; the identical request is
// safe to retry against the new version.
var ErrDataChanged = errors.New("service: dataset changed mid-query")

// ErrNoWorkers is returned when a coordinator query finds every transport
// candidate for some shard unreachable and degraded answers are off.
var ErrNoWorkers = errors.New("service: no reachable workers")

// WorkerInfo names one worker process serving POST /v1/shard.
type WorkerInfo struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// CoordinatorOptions configures scatter/gather routing.
type CoordinatorOptions struct {
	// Shards is the shard count per query (default: the worker count).
	// Every worker holds the full registered datasets, so the count is a
	// parallelism knob, not a placement constraint; any worker can serve
	// any shard, which is what makes hedging and failover sound.
	Shards int
	// WorkerDeadline bounds each shard operation on one worker (default
	// 15s); a worker that misses it is treated as failed for that attempt.
	WorkerDeadline time.Duration
	// HedgeAfter starts a backup request to the shard's next worker in
	// name order when the current one has not answered within this
	// duration (default 500ms); the first successful answer wins.
	// Operations are pure functions of (snapshot, arguments), so duplicated
	// execution is harmless.
	HedgeAfter time.Duration
	// AllowDegraded answers with a scaled estimate and a widened interval
	// when every candidate for some shard fails after the census, instead
	// of failing the query.
	AllowDegraded bool
	// Client is the HTTP client for worker calls (default: a client of the
	// coordinator's own that keeps workerIdleConns connections per worker).
	Client *http.Client

	// TraceSample, SlowQuery, and Logger mirror the service's tracing knobs
	// (Options): head-sampling probability, slow-query threshold, and the
	// structured JSON logger.
	TraceSample float64
	SlowQuery   time.Duration
	Logger      *obs.Logger
}

// workerIdleConns is how many idle connections the coordinator's own client
// keeps per worker. Every round of every query in flight puts
// ceil(shards/workers) calls on a worker at once, and a call that finds no
// idle connection dials: http.DefaultTransport keeps 2, which -shards above
// twice the worker count or three concurrent queries already exceed.
const workerIdleConns = 64

// censusEntries caps the coordinator's census store. An entry is one plan
// and a population count (plus the group census of a GROUP BY) per shard.
const censusEntries = 256

// Coordinator scatters counting queries over worker processes: each query
// is split into hash-aligned shards, shard i gets the (i mod W)-th worker of
// the roster sorted by name as its primary (place: S shards over W workers
// put at most ceil(S/W) primaries on any one), its operations go there with
// per-op deadlines and hedged retries to the next workers in name order on
// stragglers, and the per-shard partials merge through the same
// driver the in-process sharded path uses — so the answer is byte-identical
// to a single-process run over the same data, at any worker count.
type Coordinator struct {
	workers map[string]WorkerInfo
	roster  []string // the worker names, sorted; read-only after NewCoordinator
	opts    CoordinatorOptions
	client  *http.Client

	// censuses keeps each request shape's census (census), so a repeat
	// count skips the pre-flight round; capped at censusEntries.
	censuses *store[*census]

	// tracer records coordinator traces; a sampled root injects its
	// traceparent into every worker call, and each worker's completed
	// subtree comes back on the shard response to be grafted under the
	// coordinator's attempt span — one query, one stitched tree.
	tracer  *obs.Tracer
	logger  *obs.Logger
	metrics *obs.Registry

	queries      *obs.Counter
	hedges       *obs.Counter
	workerErrors *obs.Counter
	degradedN    *obs.Counter
	shardOps     *obs.CounterVec // shard calls launched, by worker
}

// NewCoordinator builds a coordinator over the given workers.
func NewCoordinator(workers []WorkerInfo, opts CoordinatorOptions) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("%w: coordinator needs at least one worker", ErrBadRequest)
	}
	if opts.Shards <= 0 {
		opts.Shards = len(workers)
	}
	if opts.WorkerDeadline <= 0 {
		opts.WorkerDeadline = 15 * time.Second
	}
	if opts.HedgeAfter <= 0 {
		opts.HedgeAfter = 500 * time.Millisecond
	}
	c := &Coordinator{
		workers:  make(map[string]WorkerInfo, len(workers)),
		opts:     opts,
		client:   opts.Client,
		logger:   opts.Logger,
		censuses: newStore[*census](censusEntries, 0),
	}
	if c.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = workerIdleConns
		tr.MaxIdleConns = workerIdleConns * len(workers)
		c.client = &http.Client{Transport: tr}
	}
	c.tracer = obs.NewTracer(obs.TracerConfig{
		Sample:    opts.TraceSample,
		SlowQuery: opts.SlowQuery,
		Logger:    opts.Logger,
	})
	c.metrics = obs.NewRegistry()
	c.queries = c.metrics.NewCounter("lsample_coordinator_queries_total",
		"Scatter/gather queries served by the coordinator.")
	c.hedges = c.metrics.NewCounter("lsample_coordinator_hedges_total",
		"Backup shard requests launched on straggling workers.")
	c.workerErrors = c.metrics.NewCounter("lsample_coordinator_worker_errors_total",
		"Failed worker shard calls (before any successful retry).")
	c.degradedN = c.metrics.NewCounter("lsample_coordinator_degraded_total",
		"Queries answered degraded after losing every candidate for a shard.")
	c.tracer.Register(c.metrics)
	for _, w := range workers {
		if w.Name == "" || w.BaseURL == "" {
			return nil, fmt.Errorf("%w: worker needs a name and a base URL", ErrBadRequest)
		}
		if _, dup := c.workers[w.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate worker name %q", ErrBadRequest, w.Name)
		}
		c.workers[w.Name] = w
		c.roster = append(c.roster, w.Name)
	}
	slices.Sort(c.roster)
	c.shardOps = c.metrics.NewCounterVec("lsample_coordinator_shard_ops_total",
		"Shard calls launched (primaries, hedges and failovers), by worker: a placement imbalance reads off this family.",
		"worker", c.roster...)
	return c, nil
}

// Count scatters one estimation request across the workers and merges the
// per-shard partials. The request's root span injects its traceparent into
// every worker call and grafts each worker's returned subtree, so an
// Explain (or sampled) query yields one stitched trace spanning the
// coordinator, every worker, and any hedged retries.
func (c *Coordinator) Count(ctx context.Context, req *CountRequest) (*CountResult, error) {
	c.queries.Inc()
	t0 := time.Now()
	ctx, span := c.tracer.StartRequest(ctx, "coordinator.count", req.Explain)
	res, run, err := c.count(ctx, req)
	if err != nil {
		span.Set("error", err.Error())
	} else {
		span.Set("method", res.Method)
		span.Set("objects", res.Objects)
		span.Set("shards", res.Shards)
		span.Set("degraded", res.Degraded)
		c.logger.Info(ctx, "query",
			"role", "coordinator",
			"fingerprint", res.Fingerprint,
			"method", res.Method,
			"shards", res.Shards,
			"objects", res.Objects,
			"estimate", res.Estimate,
			"degraded", res.Degraded,
			"memo", run.memo,
			"retried", run.retried,
			"duration_ms", float64(time.Since(t0))/1e6)
	}
	span.End()
	if err == nil && req.Explain && span.Recording() {
		out := *res
		out.Trace = span.Data()
		return &out, nil
	}
	return res, err
}

// count runs one request and returns the run that answered it. A request
// shape counted before opens from its stored census; when that run finds
// the data moved (ErrDataChanged: a version pin or a census check failed
// on some worker), the entry goes and the count runs once more from a
// fresh pre-flight, whose own ErrDataChanged reaches the caller.
func (c *Coordinator) count(ctx context.Context, req *CountRequest) (*CountResult, *coordRun, error) {
	shards := req.Shards
	if shards <= 0 {
		shards = c.opts.Shards
	}
	key, err := censusKey(req, shards)
	if err != nil {
		return nil, nil, err
	}
	known, _ := c.censuses.get(key)
	for retried := false; ; retried = true {
		// Workers get the request verbatim and resolve it themselves; the
		// coordinator normalizes nothing.
		run := &coordRun{c: c, req: *req, shards: shards, cands: place(c.roster, shards), key: key, retried: retried}
		res, err := run.count(ctx, known)
		if known == nil || !errors.Is(err, ErrDataChanged) {
			return res, run, err
		}
		known = nil
	}
}

// census is what a pre-flight learns about a request shape, the same for
// every seed: the plan shard 0's worker resolved (method, budget, interval,
// the query's fingerprint and shape), every shard's population and group
// census, and the dataset versions they were taken at.
type census struct {
	plan     PlanInfo
	metas    []shard.Meta
	versions string
}

// censusKey names a request shape: the request as it arrived with its seed
// and explain flag cleared — the two fields a pre-flight's answer does not
// depend on — and the effective shard count.
func censusKey(req *CountRequest, shards int) (string, error) {
	shape := *req
	shape.Seed, shape.Explain = 0, false
	b, err := json.Marshal(&shape)
	if err != nil {
		return "", badf("request is not encodable: %v", err)
	}
	return strconv.Itoa(shards) + "|" + string(b), nil
}

// count opens the run at its census and scatters the plan over the shards.
func (r *coordRun) count(ctx context.Context, known *census) (*CountResult, error) {
	cs, err := r.census(ctx, known)
	if err != nil {
		return nil, err
	}
	// From here on every worker is sent the resolved request, so a roster
	// with mixed defaults still scatters one plan; the seed and explain flag
	// are this request's own, whichever count the census came from.
	arrived := r.req
	pl, knobs := cs.plan, cs.plan.Request
	knobs.Seed, knobs.Explain = arrived.Seed, arrived.Explain
	r.req = knobs
	if r.query, err = encodeQuery(knobs); err != nil {
		return nil, err
	}

	workers := make([]shard.Worker, r.shards)
	for i := range workers {
		workers[i] = shard.NewRemote(func(ctx context.Context, op string, args *shard.Args) (*shard.Reply, error) {
			if op == shard.OpMeta {
				return &shard.Reply{Meta: &cs.metas[i]}, nil // the census is known
			}
			a, err := r.do(ctx, i, op, args)
			if err != nil {
				return nil, err
			}
			return &a.reply, nil
		})
	}
	plan := shard.Plan{
		Method:        knobs.Method,
		Grouped:       len(pl.GroupCols) > 0,
		BudgetOf:      func(n int) int { return lsample.EvalBudget(knobs.Budget, n) },
		Strata:        knobs.Strata,
		Seed:          arrived.Seed,
		Wilson:        knobs.Interval == lsample.Wilson.String(),
		Exact:         arrived.Exact,
		AllowDegraded: r.c.opts.AllowDegraded,
	}
	t0 := time.Now()
	res, err := shard.Drive(ctx, plan, workers)
	if err != nil {
		if errors.Is(err, ErrDataChanged) {
			r.c.censuses.drop(r.key)
			return nil, err
		}
		if errors.Is(err, ErrBadRequest) {
			return nil, err
		}
		if errors.Is(err, shard.ErrShardLost) {
			return nil, fmt.Errorf("%w: %w", ErrNoWorkers, err)
		}
		return nil, err
	}
	if res.Degraded {
		r.c.degradedN.Inc()
	}

	return countReply(CountResult{
		Fingerprint: pl.Fingerprint,
		Method:      knobs.Method,
		Interval:    knobs.Interval,
		FeatureCols: pl.FeatureCols,
		GroupCols:   pl.GroupCols,
		Seed:        arrived.Seed,
		DurationMS:  float64(time.Since(t0)) / 1e6,
		Reuse:       lsample.ReuseNone,
	}, res, arrived.Exact), nil
}

// Handler exposes the coordinator over HTTP, on the scaffold the service's
// handler is built from (http.go):
//
//	POST /v1/count  JSON CountRequest -> CountResult (scatter/gathered);
//	                honors an inbound traceparent header
//	GET  /v1/traces completed coordinator traces, newest first (?limit=N)
//	GET  /metrics   Prometheus text-format metrics exposition
//	GET  /healthz   liveness + worker roster
//
// Errors use the service envelope and its status table, which carries the
// coordinator's two codes: data_changed (409) means an ingest landed on the
// workers mid-query and the request should be retried, workers_unavailable
// (503) that every candidate for some shard failed.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/count", handleCount(c.Count))
	mux.HandleFunc("GET /metrics", handleMetrics(c.metrics))
	mux.HandleFunc("GET /v1/traces", handleTraces(c.tracer))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		roster := make([]WorkerInfo, 0, len(c.workers))
		for _, name := range c.roster {
			roster = append(roster, c.workers[name])
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "coordinator", "workers": roster})
	})
	return mux
}

// place returns every shard's workers in the order to try them: shard i
// gets the roster sorted by name and rotated to start at position i mod W,
// its primary first and then every other worker once, the hedge and
// failover order. So S = kW shards put exactly k primaries on every
// worker and none gets more than ceil(S/W), and the result depends only on
// the worker set and S, not on the order the roster lists them in. No
// answer depends on it: every shard op is a pure function of (snapshot,
// seed, arguments), and placement only picks which worker runs it.
func place(roster []string, shards int) [][]string {
	names := slices.Sorted(slices.Values(roster))
	out := make([][]string, shards)
	for i := range out {
		r := i % len(names)
		out[i] = append(slices.Clone(names[r:]), names[:r]...)
	}
	return out
}

// coordRun is one count's scatter state: the request every op carries,
// each shard's workers in the order to try them (place), the dataset
// versions pinned at the census, and — when the census came from the store
// — the census each op asks its worker to confirm.
type coordRun struct {
	c        *Coordinator
	req      CountRequest
	query    []byte // req as every op's frame carries it (encodeQuery)
	shards   int
	cands    [][]string
	key      string // the request shape's census key
	versions string
	assumed  []shard.Meta // per shard; nil after a fresh pre-flight

	memo    bool // the census came from the store
	retried bool // a count from the store found the data moved; this run took a fresh census
}

// census opens the run: known, when the store had the request shape, with
// its versions pinned and its census carried on every op, so a worker whose
// own census differs refuses as it does a stale pin (a restarted worker can
// reuse a versions string); otherwise a fresh pre-flight, stored for the
// counts after this one. Either way a shard lost later is lost after the
// census.
func (r *coordRun) census(ctx context.Context, known *census) (*census, error) {
	ctx, sp := obs.StartSpan(ctx, "shard.census")
	defer sp.End()
	r.memo = known != nil
	sp.Set("memo", r.memo)
	sp.Set("retried", r.retried)
	if r.memo {
		r.versions, r.assumed = known.versions, known.metas
		return known, nil
	}
	cs, err := r.preflight(ctx)
	if err != nil {
		return nil, err
	}
	r.c.censuses.put(r.key, nil, cs)
	return cs, nil
}

// preflight scatters the meta op to every shard with the request as it
// arrived and no version pin. One round does two jobs: shard 0's answer
// names the resolved plan, and the answers together are the census Drive
// opens with, which the run serves from here instead of asking again (a
// shard's population and group census depend on the snapshot and the query,
// not on which worker's defaults resolved the sampling knobs). Answers that
// disagree on the dataset versions are ErrDataChanged; the agreed versions
// are pinned for every later op. A shard whose every candidate fails here
// is lost before the census, which no degraded answer can absorb.
func (r *coordRun) preflight(ctx context.Context) (*census, error) {
	var err error
	if r.query, err = encodeQuery(r.req); err != nil {
		return nil, err
	}
	answers := make([]*answer, r.shards)
	errs := make([]error, r.shards)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = r.do(ctx, i, shard.OpMeta, &shard.Args{})
		}()
	}
	wg.Wait()
	var lost error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, shard.ErrShardLost):
			return nil, err // both are fatal here, and a request error says more than a loss beside it
		case lost == nil:
			lost = err
		}
	}
	if lost != nil {
		return nil, fmt.Errorf("%w: lost before census, population unknown: %w", ErrNoWorkers, lost)
	}
	if answers[0].plan == nil {
		return nil, fmt.Errorf("service: worker meta answer carries no plan")
	}
	cs := &census{plan: *answers[0].plan, metas: make([]shard.Meta, r.shards), versions: answers[0].versions}
	for i, a := range answers {
		if a.versions != cs.versions {
			return nil, fmt.Errorf("%w: expected %q, worker has %q", ErrDataChanged, cs.versions, a.versions)
		}
		if a.reply.Meta == nil {
			return nil, fmt.Errorf("shard: %s reply empty", shard.OpMeta)
		}
		cs.metas[i] = *a.reply.Meta
	}
	r.versions = cs.versions
	return cs, nil
}

// encodeQuery is a count request as a request frame carries it: JSON,
// without the seed the frame carries beside it. A run encodes the request
// its ops carry once, and every op and hedge of the run reuses the bytes.
func encodeQuery(req CountRequest) ([]byte, error) {
	req.Seed = 0
	b, err := json.Marshal(&req)
	if err != nil {
		return nil, badf("request is not encodable: %v", err)
	}
	return b, nil
}

// answer is a worker's 200 reply frame, decoded: its dataset versions, the
// resolved plan (meta only), the op's reply block, and its span tree (a
// traced op only).
type answer struct {
	versions string
	plan     *PlanInfo
	reply    shard.Reply
	trace    *obs.SpanData
}

// readAnswer decodes a 200 reply frame: the frame's head and reply block
// through the codec, the plan and span-tree sub-blocks as JSON.
func readAnswer(payload []byte) (*answer, error) {
	head, block, err := shard.ReadAnswer(payload)
	if err != nil {
		return nil, err
	}
	a := &answer{versions: head.Versions}
	if a.reply, err = shard.DecodeReply(block); err != nil {
		return nil, err
	}
	if len(head.Plan) > 0 {
		a.plan = new(PlanInfo)
		if err := json.Unmarshal(head.Plan, a.plan); err != nil {
			return nil, fmt.Errorf("%w: plan sub-block: %v", shard.ErrFrame, err)
		}
	}
	if len(head.Trace) > 0 {
		a.trace = new(obs.SpanData)
		if err := json.Unmarshal(head.Trace, a.trace); err != nil {
			return nil, fmt.Errorf("%w: trace sub-block: %v", shard.ErrFrame, err)
		}
	}
	return a, nil
}

// permanentError marks a worker answer that retrying elsewhere cannot
// change (bad request, version conflict); the hedger stops immediately.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// do executes one shard op with routing, deadlines, and hedged retries:
// candidates are the shard's placement, primary first; the primary gets
// HedgeAfter of quiet time before a backup launches; the first success
// wins. When every candidate fails the op resolves to a LostShardError,
// which Drive absorbs (degraded mode) or surfaces.
func (r *coordRun) do(ctx context.Context, shardIdx int, op string, args *shard.Args) (*answer, error) {
	call := shard.Call{
		Query:    r.query,
		Seed:     r.req.Seed,
		Op:       op,
		Shard:    shard.Spec{Index: shardIdx, Count: r.shards},
		Versions: r.versions,
	}
	if r.assumed != nil {
		call.Census = &r.assumed[shardIdx]
	}
	body, err := shard.AppendArgs(shard.AppendCall(nil, &call), args)
	if err != nil {
		return nil, badf("encoding shard request: %v", err)
	}

	cands := r.cands[shardIdx]
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp *answer
		err  error
	}
	ch := make(chan outcome, len(cands))
	launched := 0
	launch := func(hedged bool) {
		name := cands[launched]
		attempt := launched
		launched++
		r.c.shardOps.With(name).Inc()
		// One span per attempt: a hedged or failed-over call shows up as a
		// sibling of the primary, each carrying the worker it targeted. The
		// worker's own subtree (shipped back on the response when the
		// injected traceparent was sampled) is grafted underneath.
		_, asp := obs.StartSpan(ctx, "shard.rpc")
		asp.Set("op", op)
		asp.Set("shard", shardIdx)
		asp.Set("worker", name)
		asp.Set("attempt", attempt)
		if hedged {
			asp.Set("hedged", true)
		}
		go func() {
			resp, perr := r.c.post(ctx, r.c.workers[name].BaseURL, body, asp.Traceparent())
			if perr != nil {
				asp.Set("error", perr.Error())
			} else if resp.trace != nil {
				asp.Graft(resp.trace)
			}
			asp.End()
			ch <- outcome{resp, perr}
		}()
	}
	launch(false)
	hedge := time.NewTimer(r.c.opts.HedgeAfter)
	defer hedge.Stop()

	var lastErr error
	for done := 0; done < launched || launched < len(cands); {
		select {
		case out := <-ch:
			done++
			if out.err == nil {
				if r.versions != "" && out.resp.versions != r.versions {
					// A worker with newer data answered without tripping the
					// fence (it never saw our pinned versions — e.g. a raced
					// hedge); refuse to merge it.
					return nil, fmt.Errorf("%w: expected %q, worker has %q",
						ErrDataChanged, r.versions, out.resp.versions)
				}
				return out.resp, nil
			}
			var perm *permanentError
			if errors.As(out.err, &perm) {
				return nil, perm.err
			}
			r.c.workerErrors.Inc()
			lastErr = out.err
			if launched < len(cands) {
				launch(true)
			}
		case <-hedge.C:
			if launched < len(cands) {
				r.c.hedges.Inc()
				launch(true)
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("service: %w", ctx.Err())
		}
	}
	return nil, &shard.LostShardError{Shard: shardIdx, Err: lastErr}
}

// post performs one worker call under the per-op deadline, injecting the
// attempt span's traceparent (when recording) so the worker joins the
// coordinator's trace. A 200 body that opens as a frame but does not read —
// another frame version, or bytes this build's codec cannot decode — is
// what every worker of the roster would answer, so it is permanent; one
// that is no frame at all (a proxy's page, a corrupted body) is this
// worker's failure, and the op moves on to the next.
func (c *Coordinator) post(ctx context.Context, baseURL string, body []byte, traceparent string) (*answer, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.WorkerDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", shard.FrameContentType)
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		msg := string(payload)
		if json.Unmarshal(payload, &env) == nil && env.Error.Code != "" {
			msg = env.Error.Message
			switch env.Error.Code {
			case "version_mismatch":
				return nil, &permanentError{err: fmt.Errorf("%w: %s", ErrDataChanged, msg)}
			case "bad_request":
				return nil, &permanentError{err: badf("worker rejected shard op: %s", msg)}
			}
		}
		return nil, fmt.Errorf("service: worker answered %d: %s", resp.StatusCode, msg)
	}
	a, err := readAnswer(payload)
	switch {
	case errors.Is(err, shard.ErrNotFrame):
		return nil, fmt.Errorf("service: worker answer unreadable: %w", err)
	case err != nil:
		return nil, &permanentError{err: fmt.Errorf("service: worker answer unreadable: %w", err)}
	}
	return a, nil
}
