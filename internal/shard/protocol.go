package shard

import (
	"context"
	"errors"
	"fmt"
)

// This file is the whole shard-op protocol: the five op names, their
// argument and reply blocks, the dispatch of a named op onto a Worker
// (Serve, the worker end of a wire), and the Worker that performs each op
// by calling a transport (NewRemote, the coordinator end). A serving layer
// declares no op and converts no type. Each block is encoded once and
// decoded once, by frame.go's codec: the coordinator end encodes the Args
// block straight into its request frame and decodes the Reply block
// straight out of the reply frame; the worker end hands the Args block to
// Serve undecoded and writes Serve's Reply block into its frame as it is.
//
// Every op a driver sends is one blocking round, so an lss count costs the
// five rounds its data dependencies require (driver.go):
//
//	round  op               depends on                          bytes ∝
//	1      meta             nothing: the census (and a          groups
//	                        coordinator's pre-flight; a
//	                        coordinator that kept the census
//	                        of the query's shape skips it)
//	2      cands            the population (it sizes budgets)   learn sample, per shard
//	3      label + rows_of  the merged learn selection          learn sample × (1 + features)
//	4      score_all        the learn sample's labels and rows  shards × learn sample × features
//	                                                            out, the population back
//	5      label            the cuts: every stratum's           estimation sample
//	                        selection at once
//
// srs is rounds 1, 2 and 5 (its one selection); a grouped plan adds at most
// one label round, for all its under-served groups' top-ups together, and
// lists its population with a score_all that carries no learn sample where
// it needs no scores; Exact adds one count_all, which is also all an oracle
// plan sends after the census.
//
// Each round's request and 200 reply is one binary frame (frame.go); a
// non-200 answer is the serving layer's JSON error envelope. int is a
// zigzag varint, uvarint an unsigned one, f64 8 little-endian IEEE bytes,
// bytes and str a uvarint length and the bytes, list(T) a uvarint count and
// the elements, bools a uvarint count and the bits packed eight to a byte
// (element i in bit i%8 of byte i/8, padding bits zero), rows a uvarint row
// count and, if non-zero, a uvarint width ≥ 1 and row-major f64s:
//
//	request frame  "LSq" FrameVersion  query bytes (the count request as
//	               JSON, seed cleared)  seed uvarint  op str  shard int int
//	               versions str  census 0 | 1 meta  ·  args block
//	reply frame    "LSa" FrameVersion  versions str  plan bytes (meta: the
//	               resolved plan as JSON, else empty)  trace bytes (a
//	               traced op's span tree as JSON, else empty)  ·  reply block
//	args block     k int  tag uvarint  keys list(int)  rows_of list(int)
//	               x rows  y bools  clf_seed uvarint
//	reply block    flags byte (1 meta, 2 tally)  [meta]  cands list(hash as 8
//	               little-endian bytes, key int)  labels bools  fresh int
//	               features rows  scored list(key int, score f64, group str)
//	               [tally: n sampled positives fresh int, groups]
//	meta           n int  groups
//	groups         list(key str, parts list(str), n int, pos int)
//
// The args and reply blocks run to the end of their frame, and no decoder
// leaves a byte unread or reads past the end.

// The five shard ops, one per Worker method.
const (
	OpMeta     = "meta"
	OpCands    = "cands"
	OpLabel    = "label"
	OpScoreAll = "score_all"
	OpCountAll = "count_all"
)

// ErrBadOp marks an op name outside the protocol or an unreadable argument
// block — a request error, not a worker failure.
var ErrBadOp = errors.New("shard: bad op")

// Heavy reports whether op evaluates the expensive predicate or trains the
// classifier. A serving worker runs those under its admission control; the
// rest are lookups over already-materialized state.
func Heavy(op string) bool {
	return op == OpLabel || op == OpScoreAll || op == OpCountAll
}

// Args is the argument block of one op; each op reads only its own fields.
// The JSON names are a readable rendering; the wire is the frame.
type Args struct {
	K       int         `json:"k,omitempty"`        // cands
	Tag     uint64      `json:"tag,omitempty"`      // cands
	Keys    []int64     `json:"keys,omitempty"`     // label
	RowsOf  []int64     `json:"rows_of,omitempty"`  // label: keys whose feature rows to return
	X       [][]float64 `json:"x,omitempty"`        // score_all: learn-sample features (none: list unscored)
	Y       []bool      `json:"y,omitempty"`        // score_all: learn-sample labels
	ClfSeed uint64      `json:"clf_seed,omitempty"` // score_all
}

// Reply is the reply block of one op; exactly the requested op's fields
// are set. The JSON names are a readable rendering; the wire is the frame.
type Reply struct {
	Meta     *Meta       `json:"meta,omitempty"`
	Cands    []Cand      `json:"cands,omitempty"`
	Labels   []bool      `json:"labels,omitempty"`   // label
	Fresh    int         `json:"fresh,omitempty"`    // label
	Features [][]float64 `json:"features,omitempty"` // label: the rows of rows_of
	Scored   []Scored    `json:"scored,omitempty"`   // score_all
	Tally    *Tally      `json:"tally,omitempty"`    // count_all
}

// dispatch runs the named op on w.
func dispatch(ctx context.Context, w Worker, op string, a *Args) (r Reply, err error) {
	switch op {
	case OpMeta:
		var m Meta
		m, err = w.Meta(ctx)
		r.Meta = &m
	case OpCands:
		r.Cands, err = w.Cands(ctx, a.K, a.Tag)
	case OpLabel:
		r.Labels, r.Features, r.Fresh, err = w.Label(ctx, a.Keys, a.RowsOf)
	case OpScoreAll:
		r.Scored, err = w.ScoreAll(ctx, a.X, a.Y, a.ClfSeed)
	case OpCountAll:
		var t Tally
		t, err = w.CountAll(ctx)
		r.Tally = &t
	default:
		err = fmt.Errorf("%w: unknown shard op %q", ErrBadOp, op)
	}
	return r, err
}

// Serve is the worker end of a wire: it decodes the op's argument block
// (AppendArgs), runs the op on w, and encodes the reply block
// (AppendReply). An unreadable block is ErrBadOp.
func Serve(ctx context.Context, w Worker, op string, args []byte) ([]byte, error) {
	a, err := DecodeArgs(args)
	if err != nil {
		return nil, fmt.Errorf("%w: %s arguments unreadable: %w", ErrBadOp, op, err)
	}
	r, err := dispatch(ctx, w, op, &a)
	if err != nil {
		return nil, err
	}
	return AppendReply(nil, &r)
}

// Transport carries one op's arguments to wherever the shard lives and
// returns its reply — one HTTP POST of a request frame with routing,
// deadlines and hedging in the coordinator, which decodes the reply frame
// it gets back; the codec's round trip through Serve in tests. A nil error
// comes with a non-nil reply.
type Transport func(ctx context.Context, op string, args *Args) (*Reply, error)

// NewRemote returns the Worker that performs every op through t: the
// coordinator end of a wire. Replies whose shape cannot belong to the
// request (a missing block, a label vector of the wrong length) are errors
// here, so Drive never merges a malformed partial.
func NewRemote(t Transport) Worker { return remote(t) }

type remote Transport

func (t remote) call(ctx context.Context, op string, a Args) (*Reply, error) {
	r, err := t(ctx, op, &a)
	if err != nil {
		return &Reply{}, err
	}
	return r, nil
}

func (t remote) Meta(ctx context.Context) (Meta, error) {
	r, err := t.call(ctx, OpMeta, Args{})
	if err != nil {
		return Meta{}, err
	}
	if r.Meta == nil {
		return Meta{}, fmt.Errorf("shard: %s reply empty", OpMeta)
	}
	return *r.Meta, nil
}

func (t remote) Cands(ctx context.Context, k int, tag uint64) ([]Cand, error) {
	r, err := t.call(ctx, OpCands, Args{K: k, Tag: tag})
	return r.Cands, err
}

func (t remote) Label(ctx context.Context, keys, rowsOf []int64) ([]bool, [][]float64, int, error) {
	r, err := t.call(ctx, OpLabel, Args{Keys: keys, RowsOf: rowsOf})
	switch {
	case err != nil:
	case len(r.Labels) != len(keys):
		err = fmt.Errorf("shard: worker labeled %d of %d keys", len(r.Labels), len(keys))
	case len(r.Features) != len(rowsOf):
		err = fmt.Errorf("shard: worker returned %d of %d feature rows", len(r.Features), len(rowsOf))
	}
	return r.Labels, r.Features, r.Fresh, err
}

func (t remote) ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	r, err := t.call(ctx, OpScoreAll, Args{X: x, Y: y, ClfSeed: clfSeed})
	return r.Scored, err
}

func (t remote) CountAll(ctx context.Context) (Tally, error) {
	r, err := t.call(ctx, OpCountAll, Args{})
	if err != nil {
		return Tally{}, err
	}
	if r.Tally == nil {
		return Tally{}, fmt.Errorf("shard: %s reply empty", OpCountAll)
	}
	return *r.Tally, nil
}
