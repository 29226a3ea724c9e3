package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
)

// serveMix is what a served user pays: a real lsserve child with default
// settings (result cache 256, catalog 64 MiB, -max-inflight 4) and nproc
// keep-alive HTTP clients on POST /v1/count over the sdk_cold tables.
//
//	hit   60 %  exact repeats from a hot set of 32 requests → result cache
//	reuse 25 %  a hot plan with another budget, k or interval, drawn from
//	            512 combinations — more than the result cache holds, inside
//	            the catalog → direct reuse, extension or relabel
//	cold  15 %  a fresh seed → the whole pipeline through the catalog-cold path
//
// The four caches, admission and encode do most of the work in the first
// two classes and the pipeline in the third, so a cache consolidation that
// helps hits but hurts reuse or cold shows in one table.
type serveMix struct {
	cfg   runConfig
	fix   *sqlFixture
	fleet fleet
	base  string
	hcs   []*http.Client

	hot   []hotReq
	plans []int // indices into hot of the plans the reuse class varies

	mu     sync.Mutex // guards hotReq.refill
	before serverStats
}

// hotReq is one request of the hot set with the reply that filled the
// result cache during warm-up.
type hotReq struct {
	v      variant
	seed   uint64
	fill   *countResp
	sig    string // the fill's deterministic content (count, interval, group rows)
	refill bool   // answered uncached again later: the fill is no longer the cache's
}

func (w *serveMix) classes() [numClasses]string { return [numClasses]string{"hit", "reuse", "cold"} }
func (w *serveMix) clients() int                { return runtime.NumCPU() }
func (w *serveMix) quality() int                { return w.cfg.sz.qualityMix }
func (w *serveMix) served() int64               { return w.fleet.counts.Load() }

var (
	reuseBudgets   = [8]float64{0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}
	reuseIntervals = [2]string{"wald", "wilson"}
)

func (w *serveMix) setup(ctx context.Context) error {
	var err error
	if w.fix, err = newSQLFixture(w.cfg.seed, w.cfg.sz.sqlRows); err != nil {
		return err
	}
	w.fleet.counts.Store(0)
	w.hot, w.plans = nil, nil
	for j := 0; j < w.cfg.sz.hotSet; j++ {
		kind := [4]queryKind{kindSkyband, kindSkyband, kindExists, kindGrouped}[j%4]
		w.hot = append(w.hot, hotReq{v: variant{kind: kind, v: (j / 4) % numVariants}, seed: 100 + uint64(j)})
		if kind != kindGrouped && len(w.plans) < 8 {
			w.plans = append(w.plans, j)
		}
	}
	w.hcs = make([]*http.Client, w.clients())
	for i := range w.hcs {
		w.hcs[i] = newHTTPClient()
	}
	c, err := startChild(ctx, "serve_mix-server", w.cfg.outDir)
	if err != nil {
		return err
	}
	w.fleet.children = []*child{c}
	w.base = c.base
	if err := uploadTables(ctx, w.hcs[0], w.base, w.fix); err != nil {
		return err
	}
	return crossCheckHTTP(ctx, w.hcs[0], w.base, w.fix, func() { w.fleet.counts.Add(1) })
}

func (w *serveMix) hotRequest(h *hotReq) *countReq {
	return &countReq{SQL: kindSQL[h.v.kind], Params: w.fix.params(h.v), Method: "lss", Budget: sqlBudget, Interval: "wald", Seed: h.seed}
}

// warm fills the result cache (and with it the catalog's plans) with the
// hot set, one request at a time, and remembers each reply.
func (w *serveMix) warm(ctx context.Context) error {
	for j := range w.hot {
		r, err := w.post(ctx, 0, w.hotRequest(&w.hot[j]))
		if err != nil {
			return err
		}
		if r.Cached {
			return fmt.Errorf("hot request %d was already cached during warm-up", j)
		}
		truth, byRegion := w.fix.truth(w.hot[j].v)
		a, err := answerFromHTTP(r, truth, byRegion, w.fix.n, true)
		if err != nil {
			return err
		}
		w.hot[j].fill, w.hot[j].sig = r, a.sig
	}
	return getJSON(ctx, w.hcs[0], w.base+"/v1/stats", &w.before)
}

func (w *serveMix) post(ctx context.Context, client int, req *countReq) (*countResp, error) {
	r, err := postCount(ctx, w.hcs[client], w.base, req)
	if err != nil {
		return nil, err
	}
	w.fleet.counts.Add(1)
	return r, nil
}

// request builds the op's request and names the query variant it counts.
func (w *serveMix) request(o op) (req *countReq, v variant, hot *hotReq) {
	switch o.class {
	case classPrimary:
		hot = &w.hot[o.pick%uint64(len(w.hot))]
		return w.hotRequest(hot), hot.v, hot
	case classMinor25:
		p := &w.hot[w.plans[o.pick%uint64(len(w.plans))]]
		v = variant{kind: p.v.kind, v: int(o.pick>>16) % numVariants}
		req = &countReq{
			SQL:      kindSQL[v.kind],
			Params:   w.fix.params(v),
			Method:   "lss",
			Budget:   reuseBudgets[(o.pick>>8)%uint64(len(reuseBudgets))],
			Interval: reuseIntervals[(o.pick>>24)%2],
			Seed:     p.seed,
		}
		return req, v, nil
	}
	v = variant{kind: kindSkyband}
	req = &countReq{SQL: skybandSQL, Params: w.fix.params(v), Method: "lss", Budget: sqlBudget, Interval: "wald", Seed: o.seed}
	return req, v, nil
}

func (w *serveMix) do(ctx context.Context, client int, o op, traced bool) (*answer, *span, error) {
	req, v, hot := w.request(o)
	req.Explain = traced
	r, err := w.post(ctx, client, req)
	if err != nil {
		return nil, nil, err
	}
	truth, byRegion := w.fix.truth(v)
	ans, err := answerFromHTTP(r, truth, byRegion, w.fix.n, hot != nil)
	if err != nil {
		return nil, nil, err
	}
	// A result-cache hit equals the response that filled the cache, field
	// for field. (Only hits are held to their first answer: a reuse request
	// may legitimately be answered differently later, because a plan that
	// another k materialized first keeps that k's classifier as its
	// stratification — the program's documented, still unbiased exception
	// to "same request, same answer".)
	if hot != nil {
		w.mu.Lock()
		if !r.Cached {
			hot.refill = true
		}
		check := r.Cached && !hot.refill
		w.mu.Unlock()
		if f := hot.fill; check && (ans.sig != hot.sig || r.DurationMS != f.DurationMS || r.PredicateMS != f.PredicateMS || r.Reuse != f.Reuse) {
			return nil, nil, fmt.Errorf("cached reply differs from the reply that filled the cache")
		}
	}
	return ans, r.Trace, nil
}

// reissue: a hit or reuse op is sent again as it was; a cold op is sent
// twice with no_cache, which bypasses the result cache and the catalog, so
// the two recomputations are compared with each other (the cached path and
// the no_cache path sample differently by design).
func (w *serveMix) reissue(ctx context.Context, client int, o op, first *answer) error {
	req, v, _ := w.request(o)
	truth, byRegion := w.fix.truth(v)
	if o.class != classMinor15 {
		r, err := w.post(ctx, client, req)
		if err != nil {
			return err
		}
		again, err := answerFromHTTP(r, truth, byRegion, w.fix.n, o.class == classPrimary)
		return matchFirst(first, again, err)
	}
	req.NoCache = true
	var sigs [2]string
	for k := range sigs {
		r, err := w.post(ctx, client, req)
		if err != nil {
			return err
		}
		again, err := answerFromHTTP(r, truth, byRegion, w.fix.n, true)
		if err != nil {
			return err
		}
		sigs[k] = again.sig
	}
	if sigs[0] != sigs[1] {
		return errMismatch
	}
	return nil
}

// serverStats is the part of GET /v1/stats the harness reads.
type serverStats struct {
	Metrics struct {
		Requests    int64 `json:"requests"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Rejected    int64 `json:"rejected"`
		Degraded    int64 `json:"degraded"`
	} `json:"metrics"`
	Catalog struct {
		Bytes      int64 `json:"bytes"`
		Hits       int64 `json:"hits"`
		Extensions int64 `json:"extensions"`
		Misses     int64 `json:"misses"`
		Evictions  int64 `json:"evictions"`
	} `json:"catalog"`
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (w *serveMix) finish(ctx context.Context) (map[string]float64, error) {
	var after serverStats
	if err := getJSON(ctx, w.hcs[0], w.base+"/v1/stats", &after); err != nil {
		return nil, err
	}
	m, b := after.Metrics, w.before.Metrics
	c, cb := after.Catalog, w.before.Catalog
	lookups := (m.CacheHits - b.CacheHits) + (m.CacheMisses - b.CacheMisses)
	execs := (c.Hits - cb.Hits) + (c.Extensions - cb.Extensions) + (c.Misses - cb.Misses)
	return map[string]float64{
		"service.cache.hit_rate": ratio(m.CacheHits-b.CacheHits, lookups),
		"service.shed_rate":      ratio(m.Rejected-b.Rejected, m.Requests-b.Requests),
		"service.degraded_rate":  ratio(m.Degraded-b.Degraded, m.Requests-b.Requests),
		"catalog.direct_rate":    ratio(c.Hits-cb.Hits, execs),
		"catalog.extension_rate": ratio(c.Extensions-cb.Extensions, execs),
		"catalog.miss_rate":      ratio(c.Misses-cb.Misses, execs),
		"catalog.evictions":      float64(c.Evictions - cb.Evictions),
		"catalog.bytes":          float64(c.Bytes),
	}, nil
}

func (w *serveMix) teardown() (float64, float64) {
	for _, hc := range w.hcs {
		hc.CloseIdleConnections()
	}
	return w.fleet.stopAll()
}
