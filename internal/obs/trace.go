// Package obs is the zero-dependency observability layer: a
// context-propagated span tracer with head-based sampling and a lock-free
// completed-trace ring, a Prometheus text-format metrics registry, and a
// structured JSON logger over log/slog with a slow-query log.
//
// The tracer is built around a nil-is-disabled contract: every method on
// *Tracer, *Span, and *Logger is safe on a nil receiver and does nothing,
// and StartSpan returns the original context untouched when the parent is
// not recording. Code therefore instruments unconditionally — the cost of
// a disabled span is one nil check, no allocation — which is what keeps
// the labeling hot path at zero allocations when tracing is off or the
// request was not sampled. Spans wrap phases (a labeling pass, a learn
// step, an admission wait), never per-evaluation work.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Sample is the head-based sampling probability in [0, 1]: each root
	// span flips a coin once and the whole tree inherits the decision.
	// 0 disables sampling (explicit forces and adopted remote decisions
	// still trace).
	Sample float64
	// SlowQuery, when > 0, logs the full span tree of any root span whose
	// duration reaches the threshold. A slow-query threshold also forces
	// span recording so the offending tree exists to be logged.
	SlowQuery time.Duration
	// Logger receives slow-query records; nil disables the slow-query log
	// even when SlowQuery is set.
	Logger *Logger
}

// Tracer makes sampling decisions, owns the completed-trace ring, and
// emits the slow-query log. A nil *Tracer is valid and never records.
type Tracer struct {
	sample float64
	slow   time.Duration
	logger *Logger
	ring   traceRing

	rng     atomic.Uint64
	sampled atomic.Int64 // root spans recorded (ring inserts + forced)
	started atomic.Int64 // root spans considered (sampled or not)
}

// NewTracer builds a Tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{sample: cfg.Sample, slow: cfg.SlowQuery, logger: cfg.Logger}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// Started returns the number of root spans considered by this tracer.
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Sampled returns the number of root spans recorded by this tracer.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Register declares the tracer's two counters in r — the one call site
// every role (service, coordinator) registers them through.
func (t *Tracer) Register(r *Registry) {
	r.CounterFunc("lsample_traces_started_total",
		"Root spans considered by the tracer (sampled or not).", t.Started)
	r.CounterFunc("lsample_traces_sampled_total",
		"Root spans recorded by the tracer.", t.Sampled)
}

// next is a splitmix64 step over the tracer's atomic state: cheap,
// lock-free, and unrelated to any deterministic estimation stream.
func (t *Tracer) next() uint64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StartRequest opens a root span. The sampling decision is made here:
// forced requests (explain), adopted remote decisions (a sampled
// traceparent placed in ctx by WithRemoteParent), a configured slow-query
// threshold, and the head-sampling coin all turn recording on. When the
// decision is "not recording" the returned span is nil and ctx is
// returned untouched — the whole request then costs nothing.
func (t *Tracer) StartRequest(ctx context.Context, name string, force bool) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Add(1)
	remote, hasRemote := remoteParent(ctx)
	record := force ||
		(hasRemote && remote.Sampled) ||
		(t.slow > 0 && t.logger != nil) ||
		(t.sample > 0 && float64(t.next()>>11)/(1<<53) < t.sample)
	if !record {
		return ctx, nil
	}
	t.sampled.Add(1)
	sp := &Span{tracer: t, name: name, start: time.Now()}
	sp.root = sp
	if hasRemote {
		copy(sp.traceID[:], remote.traceID())
		copy(sp.parent[:], remote.spanID())
	} else {
		id := t.next()
		id2 := t.next()
		binary.BigEndian.PutUint64(sp.traceID[0:8], id)
		binary.BigEndian.PutUint64(sp.traceID[8:16], id2)
	}
	binary.BigEndian.PutUint64(sp.id[:], t.next())
	return ContextWithSpan(ctx, sp), sp
}

// EnsureSpan opens a child of the span already carried by ctx, or — when
// ctx is untraced — a new root from t (which may be nil). It is the entry
// point for layers that serve both instrumented callers (the service,
// which owns the request root) and direct SDK users (whose tracer makes
// its own sampling decision).
func EnsureSpan(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	if sp := FromContext(ctx); sp != nil {
		c := sp.Child(name)
		return ContextWithSpan(ctx, c), c
	}
	return t.StartRequest(ctx, name, false)
}

// StartSpan opens a child of the span carried by ctx. When ctx carries no
// recording span the original ctx and a nil span are returned — the call
// allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return ContextWithSpan(ctx, sp), sp
}

type spanKey struct{}
type remoteKey struct{}

// ContextWithSpan returns ctx carrying sp. A nil sp returns ctx as-is.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// WithRemoteParent returns ctx carrying an inbound traceparent for the
// next StartRequest to adopt: the root joins the remote trace instead of
// opening a new one, and a sampled remote decision forces recording.
func WithRemoteParent(ctx context.Context, tp Traceparent) context.Context {
	return context.WithValue(ctx, remoteKey{}, tp)
}

func remoteParent(ctx context.Context) (Traceparent, bool) {
	if ctx == nil {
		return Traceparent{}, false
	}
	tp, ok := ctx.Value(remoteKey{}).(Traceparent)
	return tp, ok
}

// attr is one typed span attribute; values are kept as-is and marshaled
// by the JSON encoder on export.
type attr struct {
	key string
	val any
}

// Span is one timed phase of a request. Spans are recording by
// construction — a phase that was not sampled is represented by a nil
// *Span, on which every method is a no-op. Attribute and child mutation
// is mutex-guarded: shard fan-out legitimately appends children from
// several goroutines.
type Span struct {
	tracer  *Tracer
	root    *Span
	traceID [16]byte
	id      [8]byte
	parent  [8]byte
	name    string
	start   time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []attr
	children []*Span
	grafts   []*SpanData
}

// Recording reports whether the span records (false for nil).
func (s *Span) Recording() bool { return s != nil }

// TraceID returns the 32-hex-digit trace id, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hex.EncodeToString(s.traceID[:])
}

// SpanID returns the 16-hex-digit span id, or "" for a nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return hex.EncodeToString(s.id[:])
}

// Set records a key/value attribute on the span; on a nil span it
// allocates nothing, since it stores a copy of val (attrValue).
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key, attrValue(val)})
	s.mu.Unlock()
}

// attrValue boxes a copy of val, so val itself never escapes: a string,
// bool, int, int64 or float64 as itself, any other value as its type name.
func attrValue(val any) any {
	switch v := val.(type) {
	case nil:
		return nil
	case string:
		return v
	case bool:
		return v
	case int:
		return v
	case int64:
		return v
	case float64:
		return v
	}
	return reflect.TypeOf(val).String()
}

// Child opens a sub-span starting now. The child shares the trace id and
// the root's ring/slow-query plumbing.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, root: s.root, traceID: s.traceID, parent: s.id, name: name, start: time.Now()}
	binary.BigEndian.PutUint64(c.id[:], s.tracer.next())
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildSpan records an already-completed child covering [start,
// start+dur) — used to synthesize phase spans from timings measured by
// code that is not tracer-aware (the core estimator's learn/design/
// sample breakdown).
func (s *Span) ChildSpan(name string, start time.Time, dur time.Duration, kv ...any) {
	if s == nil {
		return
	}
	c := s.Child(name)
	c.start = start
	for i := 0; i+1 < len(kv); i += 2 {
		if k, ok := kv[i].(string); ok {
			c.attrs = append(c.attrs, attr{k, kv[i+1]})
		}
	}
	c.end = start.Add(dur)
}

// Graft attaches a completed remote subtree (a worker's span tree carried
// back in a shard response) as a child of this span. The subtree keeps
// its own ids; stitching is by position in the tree.
func (s *Span) Graft(sub *SpanData) {
	if s == nil || sub == nil {
		return
	}
	s.mu.Lock()
	s.grafts = append(s.grafts, sub)
	s.mu.Unlock()
}

// End closes the span. Ending the root publishes the trace to the ring
// and, when it crossed the tracer's slow-query threshold, logs the full
// tree.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
	if s != s.root {
		return
	}
	t := s.tracer
	data := s.Data()
	t.ring.put(data)
	if t.slow > 0 && t.logger != nil && now.Sub(s.start) >= t.slow {
		t.logger.Warn(context.TODO(), "slow query",
			"trace_id", data.TraceID,
			"duration_ms", data.DurationMS,
			"threshold_ms", float64(t.slow)/float64(time.Millisecond),
			"trace", data)
	}
}

// Traceparent renders the span as a W3C traceparent header value for
// injection on outbound hops, or "" for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return Traceparent{TraceID: s.TraceID(), SpanID: s.SpanID(), Sampled: true}.String()
}

// SpanData is the exported, JSON-ready form of a completed span tree.
type SpanData struct {
	TraceID    string         `json:"trace_id,omitempty"`
	SpanID     string         `json:"span_id,omitempty"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Data exports the span and its subtree. Unfinished descendants are
// exported as ending now.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	d := &SpanData{
		TraceID:    hex.EncodeToString(s.traceID[:]),
		SpanID:     hex.EncodeToString(s.id[:]),
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(end.Sub(s.start)) / float64(time.Millisecond),
	}
	if s.parent != ([8]byte{}) {
		d.ParentID = hex.EncodeToString(s.parent[:])
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.key] = a.val
		}
	}
	children := append([]*Span(nil), s.children...)
	grafts := append([]*SpanData(nil), s.grafts...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	d.Children = append(d.Children, grafts...)
	return d
}

// Traces returns up to limit completed traces, newest first. limit <= 0
// returns everything in the ring.
func (t *Tracer) Traces(limit int) []*SpanData {
	if t == nil {
		return nil
	}
	return t.ring.snapshot(limit)
}

// ringSize is how many completed traces a Tracer keeps.
const ringSize = 256

// traceRing is a lock-free ring of the last ringSize completed traces:
// writers claim a slot with one atomic add and publish with one atomic
// pointer store; readers snapshot without blocking writers.
type traceRing struct {
	slots [ringSize]atomic.Pointer[SpanData]
	pos   atomic.Uint64
}

func (r *traceRing) put(d *SpanData) {
	i := r.pos.Add(1) - 1
	r.slots[i%ringSize].Store(d)
}

func (r *traceRing) snapshot(limit int) []*SpanData {
	if limit <= 0 || limit > ringSize {
		limit = ringSize
	}
	pos := r.pos.Load()
	out := make([]*SpanData, 0, limit)
	for k := uint64(1); k <= min(pos, ringSize) && len(out) < limit; k++ {
		if d := r.slots[(pos-k)%ringSize].Load(); d != nil {
			out = append(out, d)
		}
	}
	return out
}
