package lsample

import (
	"errors"
	"slices"

	"repro/internal/obs"
)

// ErrInvalid marks caller errors: unknown method or classifier names,
// malformed SQL, unknown datasets or parameters, out-of-range knobs, and a
// query whose predicate fails on the data (a division by zero or SQRT of a
// negative on some object). The HTTP layer maps errors wrapping it to 400.
var ErrInvalid = errors.New("lsample: invalid request")

// Interval selects the confidence-interval construction for proportion
// estimates.
type Interval int

// Interval values.
const (
	// Wald is the normal-approximation interval with finite-population
	// correction — the paper's default.
	Wald Interval = iota
	// Wilson is the Wilson score interval, recommended at extreme
	// selectivities where the Wald interval degenerates. It applies to the
	// single-proportion estimator (method "srs"); stratified and PPS methods
	// use t-intervals on their own variance estimates regardless.
	Wilson
)

// String returns the interval's wire name, "wald" or "wilson".
func (iv Interval) String() string {
	if iv == Wilson {
		return "wilson"
	}
	return "wald"
}

// ParseInterval converts "wald"/"wilson" (or "") to an Interval.
func ParseInterval(s string) (Interval, error) {
	switch s {
	case "", "wald":
		return Wald, nil
	case "wilson":
		return Wilson, nil
	}
	return Wald, badf("unknown interval %q (want wald or wilson)", s)
}

// config is the resolved option set. The zero knobs select the documented
// defaults at build time, so a config built with no options reproduces the
// paper's defaults exactly.
type config struct {
	method      string  // default "lss"
	classifier  string  // default "rf"
	strata      int     // default 4
	budget      float64 // fraction of |O|, default 0.02
	parallelism int     // 0 = all cores, 1 = sequential, n = n workers
	seed        uint64
	interval    Interval
	exact       bool
	noCompile   bool        // keep the interpreter; only the in-package differential tests set it
	relabel     bool        // refresh only: bypass the label memo (cold baseline)
	catalog     *Catalog    // cross-query reuse catalog; nil disables reuse
	shards      int         // sharded execution; 0 disables (the default)
	tracer      *obs.Tracer // span tracer; nil disables (see WithTracer)
}

func defaultConfig() config {
	return config{
		method:     "lss",
		classifier: "rf",
		strata:     4,
		budget:     0.02,
	}
}

// Option configures a Session, Estimator, PreparedQuery, or a single
// Execute call. Options are applied in order; later options win.
type Option func(*config) error

func newConfig(base config, opts []Option) (config, error) {
	cfg := base
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// WithMethod selects the estimation method: srs, ssp, ssn, lws, lss, qlcc,
// qlac, or oracle. The default is lss, the paper's headline method.
func WithMethod(name string) Option {
	return func(c *config) error {
		if !slices.Contains(Methods(), name) {
			return badf("unknown method %q (want one of %v)", name, Methods())
		}
		c.method = name
		return nil
	}
}

// WithClassifier selects the classifier learned methods train: rf (random
// forest, the paper's default), knn, nn, or random.
func WithClassifier(name string) Option {
	return func(c *config) error {
		if !slices.Contains(Classifiers(), name) {
			return badf("unknown classifier %q (want one of %v)", name, Classifiers())
		}
		c.classifier = name
		return nil
	}
}

// WithStrata sets the number of strata for stratified methods (ssp, ssn,
// lss). The default is the paper's 4.
func WithStrata(h int) Option {
	return func(c *config) error {
		if h < 2 {
			return badf("strata %d < 2", h)
		}
		c.strata = h
		return nil
	}
}

// WithBudget sets the labeling budget as a fraction of the object count, in
// (0, 1]. At least 10 evaluations are always spent (capped by |O|). The
// default is 0.02.
func WithBudget(frac float64) Option {
	return func(c *config) error {
		if !(frac > 0 && frac <= 1) { // NaN fails both comparisons
			return badf("budget %v outside (0, 1]", frac)
		}
		c.budget = frac
		return nil
	}
}

// WithParallelism bounds classifier training/scoring workers and — for
// compiled SQL predicates — batched labeling workers: 0 means all cores
// (the default), 1 forces sequential execution. Estimates are
// byte-identical at any parallelism.
func WithParallelism(p int) Option {
	return func(c *config) error {
		c.parallelism = p
		return nil
	}
}

// WithSeed sets the random seed. A fixed seed makes the whole estimation
// deterministic: repeated runs return byte-identical results.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithInterval selects the confidence-interval construction (Wald or
// Wilson). See Interval for where the choice applies.
func WithInterval(iv Interval) Option {
	return func(c *config) error {
		if iv != Wald && iv != Wilson {
			return badf("unknown interval %d", int(iv))
		}
		c.interval = iv
		return nil
	}
}

// WithRelabel makes a Refresh call bypass the label memo: every sampled
// object is labeled by a fresh predicate evaluation (memo entries are
// overwritten with the — identical — results). The estimate is
// byte-identical to the memoized refresh over the same state; the cost is
// the full cold labeling bill, which makes WithRelabel(true) the baseline
// refresh savings are measured against. Only Refresh reads this knob.
func WithRelabel(relabel bool) Option {
	return func(c *config) error {
		c.relabel = relabel
		return nil
	}
}

// WithCatalog attaches a cross-query reuse catalog: SQL executions of the
// srs, lss, and oracle methods run the deterministic hash plan and memoize
// every label they buy, and later executions over the same (snapshot, Q1
// shape, feature set) — of any seed, budget or method — find those labels
// instead of evaluating the predicate again. Only the cost moves: an
// estimate is byte-identical to the catalog-free run of the same request
// (WithShards(1)), whatever the catalog holds; see the package
// documentation ("Cross-query reuse catalog") for the exact contract.
// A catalog is safe for concurrent use and may be shared across sessions
// serving the same snapshots. WithCatalog(nil) detaches it.
func WithCatalog(c *Catalog) Option {
	return func(cfg *config) error {
		cfg.catalog = c
		return nil
	}
}

// WithShards partitions the estimation across s hash-aligned shards:
// objects are split by a hash of their key, and one driver runs the hash
// plan over all of them — one hash bottom-k sample across the shards, one
// classifier trained on its learn sample, one set of strata — so every
// merge of the shards' replies is a set union or an integer sum. The
// contract: for a fixed (data, query, parameters, method, budget, seed)
// the estimate is byte-identical at every shard count — WithShards(1),
// WithShards(8), and the unsharded catalog path all agree — and at every
// parallelism setting.
//
// Sharded execution supports the srs, lss, and oracle methods over
// queries with a unique integer object key (the same contract as the
// reuse catalog); other methods or shapes reject the call rather than
// silently falling back. WithShards(0) disables sharding (the default).
func WithShards(s int) Option {
	return func(c *config) error {
		if s < 0 {
			return badf("shards %d < 0", s)
		}
		c.shards = s
		return nil
	}
}

// WithExact additionally computes the true count by evaluating the
// predicate on every object — the expensive path the estimators exist to
// avoid; use it for calibration and tests only.
func WithExact(exact bool) Option {
	return func(c *config) error {
		c.exact = exact
		return nil
	}
}
