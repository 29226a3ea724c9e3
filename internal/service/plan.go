package service

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/lsample"
)

// plan is one request resolved: every knob normalized, the query
// identified, its data pinned. Every serving path — Service.count, its
// budget-degraded fallback, the worker's ShardOp, and (through the meta
// reply's PlanInfo) the coordinator — reads its decisions from here, so a
// default, a validation rule or a key component is written once, in
// resolve.
type plan struct {
	CountRequest // the request, with every knob that has a default filled in

	interval    lsample.Interval // Interval, parsed
	parallelism int

	shape      string // canonical parameter-free query fingerprint
	paramsJSON []byte // the bound parameters for an answer's key (encodeParams)
	Pin               // snapshots, version vector, versions string
}

// resolve is the one normalizer: defaults for the knobs that have them (so
// a request spelling them out shares a cache entry with one that omits
// them), validation of all of them before any per-object work or admission
// slot, the query's shape, and the versioned snapshot of every table it
// references — subquery-only ones included.
func (s *Service) resolve(req *CountRequest) (*plan, error) {
	if req.SQL == "" {
		return nil, badf("missing sql")
	}
	p := &plan{CountRequest: *req, parallelism: s.opts.Parallelism}
	if p.Method == "" {
		p.Method = s.opts.DefaultMethod
	}
	if p.Budget == 0 {
		p.Budget = s.opts.DefaultBudget
	}
	if !(p.Budget > 0 && p.Budget <= 1) { // NaN fails both comparisons
		return nil, badf("budget %v outside (0, 1]", p.Budget)
	}
	if p.Shards < 0 {
		return nil, badf("shards %d < 0", p.Shards)
	}
	if p.Classifier == "" {
		p.Classifier = "rf"
	}
	if p.Strata <= 0 {
		p.Strata = 4
	}
	var err error
	if p.interval, err = lsample.ParseInterval(p.Interval); err != nil {
		return nil, mapSDKErr(err)
	}
	p.Interval = p.interval.String()
	// Applying the options to a throwaway estimator surfaces unknown
	// method/classifier names now.
	if _, err := lsample.NewEstimator(p.options()...); err != nil {
		return nil, mapSDKErr(err)
	}

	sh, err := s.shapeOf(p.SQL)
	if err != nil {
		return nil, mapSDKErr(err)
	}
	p.shape = sh.shape
	if p.Pin, err = s.Registry.Resolve(sh.tables); err != nil {
		return nil, err
	}
	return p, nil
}

// queryShape is lsample.QueryShape's answer for one SQL text.
type queryShape struct {
	shape  string
	tables []string // shared by every plan of the text: read, never modify
}

// shapeOf is lsample.QueryShape memoized by SQL text, so a worker parses a
// query once, not once per shard op. The shape is a pure function of the
// text, so an entry carries no versions — no ingest can make it stale — and
// only successes are kept, so a bad text fails with the same error each time.
func (s *Service) shapeOf(text string) (queryShape, error) {
	if sh, ok := s.shapes.get(text); ok {
		return sh, nil
	}
	shape, tables, err := lsample.QueryShape(text)
	if err != nil {
		return queryShape{}, err
	}
	return s.shapes.put(text, nil, queryShape{shape, tables}), nil
}

// encodeParams encodes the bound parameters deterministically for an
// answer's key. Only an answer's key reads them, so a shard op, which
// reads only the prepared query's, never pays for the encoding.
func (p *plan) encodeParams() error {
	var err error
	if p.paramsJSON, err = json.Marshal(p.Params); err != nil { // encoding/json sorts map keys
		return badf("parameters are not encodable: %v", err)
	}
	return nil
}

// key is the one builder of store keys. Everything the service caches is a
// function of some prefix of one fingerprint — (versions, shape) names a
// prepared query; adding the parameters (encodeParams) and sampling knobs
// names an answer — and scope says which store's view of it this is: "" for the
// prepared query, the result scope (exactness and in-process shard count)
// for an answer.
func (p *plan) key(scope string) string {
	if scope == "" {
		return p.Versions + "|" + p.shape
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%s|%g|%d|%s",
		p.Versions, p.shape, p.paramsJSON, p.Method, p.Classifier, p.Strata, p.Interval, p.Budget, p.Seed, scope)
}

// resultScope scopes a key to a whole-query answer.
func (p *plan) resultScope() string {
	return strconv.FormatBool(p.Exact) + "|s" + strconv.Itoa(p.Shards)
}

// execOptions is the part of the plan a shard op reads: the method decides
// whether feature rows exist, the classifier is what score_all fits, and
// the parallelism is the labeling's. The seed rides in with each op, the
// budget arrives as the k of a cands op, and strata and interval never
// leave the merging process.
func (p *plan) execOptions() []lsample.Option {
	return []lsample.Option{
		lsample.WithMethod(p.Method),
		lsample.WithClassifier(p.Classifier),
		lsample.WithParallelism(p.parallelism),
	}
}

// options is the plan as the SDK's option list.
func (p *plan) options() []lsample.Option {
	opts := append(p.execOptions(),
		lsample.WithStrata(p.Strata),
		lsample.WithInterval(p.interval),
		lsample.WithBudget(p.Budget),
		lsample.WithSeed(p.Seed),
		lsample.WithExact(p.Exact),
	)
	if p.Shards > 0 {
		opts = append(opts, lsample.WithShards(p.Shards))
	}
	return opts
}

// PlanInfo is a resolved plan as a worker reports it on the meta reply:
// the request with its knobs normalized, and the query's identity. A
// coordinator reads its whole plan from here — it normalizes nothing
// itself, so a scattered count gets the workers' defaults exactly as a
// standalone count does.
type PlanInfo struct {
	Request     CountRequest `json:"request"`
	Fingerprint string       `json:"fingerprint"`
	GroupCols   []string     `json:"group_cols,omitempty"`
	FeatureCols []string     `json:"feature_cols,omitempty"`
}
