package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the one place a process declares its metrics. Every family
// is registered exactly once — name, help and the handle the serving path
// updates — and the registry renders all of them two ways: Expose writes
// the Prometheus text exposition format (version 0.0.4) and Stats returns
// the JSON view behind /v1/stats. It is zero-dependency by design:
// counters and timers are atomics, the histogram is a fixed-size HDR
// array, and the *Func variants read state owned elsewhere (the reuse
// catalog, the admission queues, the tracer) at scrape time.
//
// Every registration requires a non-empty help string — registration
// panics without one, and tools/obscheck enforces the same rule (and that
// no family name is registered from two call sites) statically so the
// panic never ships.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*family
	ordered []*family
}

type family struct {
	name, help, typ, key string
	expose               func(w *bufio.Writer, name string)
	stat                 func() any
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// StatsKey is the key a family appears under in Stats unless it names its
// own: the Prometheus name without the lsample_ prefix and the counter
// suffix _total (lsample_cache_hits_total is "cache_hits").
func StatsKey(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, "lsample_"), "_total")
}

// register validates and stores one metric family.
func (r *Registry) register(name, help, typ, key string, expose func(w *bufio.Writer, name string), stat func() any) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %q registered without a help string", name))
	}
	if key == "" {
		key = StatsKey(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, key: key, expose: expose, stat: stat}
	r.byName[name] = f
	r.ordered = append(r.ordered, f)
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].name < r.ordered[j].name })
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return len(name) > 0
}

func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.ordered...)
}

// Expose renders every registered family, sorted by name, in the text
// exposition format. It is safe to call concurrently with metric updates;
// each sample is an atomic read.
func (r *Registry) Expose(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.expose(bw, f.name)
	}
	return bw.Flush()
}

// Stats renders the same families as one JSON-encodable object keyed by
// StatsKey: counters and gauges as integers, timers as cumulative
// milliseconds, histograms as a HistSummary.
func (r *Registry) Stats() map[string]any {
	fams := r.families()
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		out[f.key] = f.stat()
	}
	return out
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// seconds renders a nanosecond quantity in Prometheus's base unit.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// NewCounter registers and returns an owned counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Value)
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts owned elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, "counter", "",
		func(w *bufio.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, fn()) },
		func() any { return fn() })
}

// CounterVec is a counter family split by one label. The label's values
// are declared at registration — a closed set, so the family's cardinality
// is fixed where it is declared, and a value outside it is a bug that
// panics rather than minting a series.
type CounterVec struct {
	name   string
	values []string // sorted
	by     map[string]*Counter
}

// With returns the counter for one declared label value.
func (v *CounterVec) With(value string) *Counter {
	c, ok := v.by[value]
	if !ok {
		panic(fmt.Sprintf("obs: metric %q has no label value %q", v.name, value))
	}
	return c
}

// NewCounterVec registers and returns a counter family with one series per
// given value of label: Prometheus reads name{label="value"} samples, Stats
// an object keyed by value.
func (r *Registry) NewCounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{name: name, values: append([]string(nil), values...), by: make(map[string]*Counter, len(values))}
	sort.Strings(v.values)
	for _, val := range v.values {
		v.by[val] = &Counter{}
	}
	r.register(name, help, "counter", "",
		func(w *bufio.Writer, name string) {
			for _, val := range v.values {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, val, v.by[val].Value())
			}
		},
		func() any {
			out := make(map[string]int64, len(v.values))
			for _, val := range v.values {
				out[val] = v.by[val].Value()
			}
			return out
		})
	return v
}

// GaugeFunc registers a gauge — a population or a size — whose value is
// read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int) {
	r.register(name, help, "gauge", "",
		func(w *bufio.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, fn()) },
		func() any { return fn() })
}

// Timer accumulates wall time. Durations carry a unit, so a timer names
// both renderings: Prometheus reads it in seconds under name, Stats in
// milliseconds under key.
type Timer struct {
	ns atomic.Int64
}

// Add accumulates d.
func (t *Timer) Add(d time.Duration) { t.ns.Add(int64(d)) }

// NewTimer registers and returns an owned timer.
func (r *Registry) NewTimer(name, help, key string) *Timer {
	t := &Timer{}
	r.register(name, help, "gauge", key,
		func(w *bufio.Writer, name string) { fmt.Fprintf(w, "%s %s\n", name, seconds(t.ns.Load())) },
		func() any { return float64(t.ns.Load()) / 1e6 })
	return t
}

// histBuckets covers the full int64 nanosecond range: durations below 4ns
// occupy one bucket each, and every power-of-two octave above splits into
// 4 linear sub-buckets, so any recorded value lands in a bucket whose width
// is at most 25% of its value (HDR-histogram style, fixed size, lock-free).
const histBuckets = 248

// Histogram is a fixed-size high-dynamic-range duration histogram — the
// registry's only histogram type. Observe and the renderings may run
// concurrently.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	maxNS  atomic.Int64
	sumNS  atomic.Int64
}

// NewHistogram registers and returns an owned histogram: Prometheus reads
// cumulative buckets in seconds under name (only non-empty buckets plus
// +Inf, which keeps the 248-bucket layout from bloating every scrape),
// Stats a HistSummary in milliseconds under key.
func (r *Registry) NewHistogram(name, help, key string) *Histogram {
	h := &Histogram{}
	r.register(name, help, "histogram", key,
		func(w *bufio.Writer, name string) {
			var total uint64
			h.cumulative(func(upperNS int64, cum uint64) {
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, seconds(upperNS), cum)
				total = cum
			})
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
			fmt.Fprintf(w, "%s_sum %s\n", name, seconds(h.sumNS.Load()))
			fmt.Fprintf(w, "%s_count %d\n", name, total)
		},
		func() any { return h.Summary() })
	return h
}

// histIndex maps a duration in nanoseconds to its bucket. It is monotone
// non-decreasing in ns, and every int64 maps inside [0, histBuckets).
func histIndex(ns int64) int {
	if ns < 4 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	k := bits.Len64(uint64(ns)) - 1 // ns in [2^k, 2^(k+1)), k >= 2
	sub := int(ns>>(k-2)) & 3       // top two bits below the leading one
	return (k-1)*4 + sub
}

// histUpper is the exclusive upper bound (in ns) of bucket idx — the value
// quantiles report, so they never understate an observed latency by more
// than the bucket's ≤25% width.
func histUpper(idx int) int64 {
	if idx < 4 {
		return int64(idx) + 1
	}
	k := idx/4 + 1
	upper := uint64(1)<<k + uint64(idx%4+1)<<(k-2)
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe adds one observation.
func (h *Histogram) Observe(d time.Duration) {
	ns := max(int64(d), 0)
	h.counts[histIndex(ns)].Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// cumulative visits the non-empty buckets in ascending order with their
// upper bound and cumulative count.
func (h *Histogram) cumulative(visit func(upperNS int64, cum uint64)) {
	var cum uint64
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			cum += n
			visit(histUpper(i), cum)
		}
	}
}

// HistSummary is the JSON form of a Histogram: observation count, tail
// quantiles, the maximum, and the raw cumulative bucket counts — the
// quantile fields are conveniences; the buckets let external scrapers
// compute arbitrary quantiles themselves.
type HistSummary struct {
	Count  int64   `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Buckets are the histogram's non-empty buckets as cumulative counts:
	// Buckets[i].Count observations took at most Buckets[i].LeMS
	// milliseconds. Only buckets whose cumulative count changed are
	// listed, so the list stays short at any traffic volume.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one cumulative histogram bucket of a HistSummary.
type HistBucket struct {
	LeMS  float64 `json:"le_ms"` // inclusive upper bound, milliseconds
	Count uint64  `json:"count"` // observations at or under LeMS
}

// Summary computes the quantiles from a single pass over the counters.
// Quantiles are bucket upper bounds clamped to the observed max.
func (h *Histogram) Summary() HistSummary {
	var out HistSummary
	var uppers []int64
	h.cumulative(func(upperNS int64, cum uint64) {
		uppers = append(uppers, upperNS)
		out.Buckets = append(out.Buckets, HistBucket{LeMS: float64(upperNS) / 1e6, Count: cum})
	})
	if len(uppers) == 0 {
		return out
	}
	total := out.Buckets[len(uppers)-1].Count
	maxNS := h.maxNS.Load()
	out.Count, out.MaxMS = int64(total), float64(maxNS)/1e6
	q := func(p float64) float64 {
		target := max(uint64(math.Ceil(p*float64(total))), 1)
		i := sort.Search(len(uppers), func(i int) bool { return out.Buckets[i].Count >= target })
		if i == len(uppers) {
			return out.MaxMS
		}
		return float64(min(uppers[i], maxNS)) / 1e6
	}
	out.P50MS, out.P90MS, out.P99MS, out.P999MS = q(0.50), q(0.90), q(0.99), q(0.999)
	return out
}
