package shard

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// gen draws values from fuzz bytes, so the fuzzer steers the shapes:
// lengths from 0 (a nil list, as the codec decodes it) up, floats that are
// NaN, ±Inf, ±0 or any bit pattern, ints of every magnitude. Past the end
// of its bytes every draw is zero.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *gen) u64() uint64 {
	v := uint64(0)
	for range 8 {
		v = v<<8 | uint64(g.byte())
	}
	return v >> (g.byte() % 64)
}

func (g *gen) int() int { return int(int64(g.u64()) - int64(g.u64())) }

func (g *gen) len(max int) int { return int(g.byte()) % (max + 1) }

func (g *gen) float() float64 {
	switch g.byte() % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	default:
		v := uint64(0)
		for range 8 {
			v = v<<8 | uint64(g.byte())
		}
		return math.Float64frombits(v)
	}
}

func (g *gen) str() string {
	b := make([]byte, g.len(5))
	for i := range b {
		b[i] = g.byte()
	}
	return string(b)
}

func (g *gen) bytes() []byte {
	if s := g.str(); s != "" {
		return []byte(s)
	}
	return nil
}

func (g *gen) int64s() []int64 {
	n := g.len(6)
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(g.int())
	}
	return v
}

func (g *gen) bools() []bool {
	n := g.len(19)
	if n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = g.byte()&1 == 1
	}
	return v
}

func (g *gen) rows() [][]float64 {
	n, w := g.len(4), 1+g.len(3)
	if n == 0 {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for j := range rows[i] {
			rows[i][j] = g.float()
		}
	}
	return rows
}

func (g *gen) groups() []GroupCount {
	gs := make([]GroupCount, g.len(3))
	for i := range gs {
		gs[i] = GroupCount{Key: g.str(), N: g.int(), Pos: g.int()}
		for range g.len(2) {
			gs[i].Parts = append(gs[i].Parts, g.str())
		}
	}
	if len(gs) == 0 {
		return nil
	}
	return gs
}

func (g *gen) meta() *Meta {
	if g.byte()%2 == 0 {
		return nil
	}
	return &Meta{N: g.int(), Groups: g.groups()}
}

func (g *gen) args() Args {
	return Args{K: g.int(), Tag: g.u64(), Keys: g.int64s(), RowsOf: g.int64s(), X: g.rows(), Y: g.bools(), ClfSeed: g.u64()}
}

func (g *gen) reply() Reply {
	r := Reply{Meta: g.meta(), Labels: g.bools(), Fresh: g.int(), Features: g.rows()}
	for range g.len(4) {
		r.Cands = append(r.Cands, Cand{Hash: g.u64(), Key: int64(g.int())})
	}
	for range g.len(4) {
		r.Scored = append(r.Scored, Scored{Key: int64(g.int()), Score: g.float(), Group: g.str()})
	}
	if g.byte()%2 == 1 {
		r.Tally = &Tally{Partial: Partial{N: g.int(), Sampled: g.int(), Positives: g.int()}, Fresh: g.int(), Groups: g.groups()}
	}
	return r
}

func (g *gen) call() Call {
	return Call{Query: g.bytes(), Seed: g.u64(), Op: g.str(), Shard: Spec{Index: g.int(), Count: g.int()},
		Versions: g.str(), Census: g.meta()}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself and -0 does not equal 0.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

func same(a, b any) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// decodeCall reads a whole request frame: head and argument block.
func decodeCall(b []byte) (Call, Args, error) {
	c, block, err := ReadCall(b)
	if err != nil {
		return Call{}, Args{}, err
	}
	a, err := DecodeArgs(block)
	return c, a, err
}

// decodeAnswer reads a whole reply frame: head and reply block.
func decodeAnswer(b []byte) (Answer, Reply, error) {
	h, block, err := ReadAnswer(b)
	if err != nil {
		return Answer{}, Reply{}, err
	}
	r, err := DecodeReply(block)
	return h, r, err
}

// FuzzShardFrame: arbitrary bytes never panic a decoder; generated
// argument blocks, reply blocks, request frames and reply frames — NaN,
// ±Inf, -0, empty lists and absent blocks among them — decode to what was
// encoded, float bits and nil lists included; and every one of them with a
// spare byte after it or its last byte cut is an error.
func FuzzShardFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"sql":"SELECT 1","op":"meta"}`))
	f.Add([]byte("LSq\x01"))
	f.Add([]byte("LSa\x02\x00\x00\x00\x00"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30})
	f.Add(slices.Repeat([]byte{0xff, 0x07, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Whatever the bytes, the decoders return.
		decodeCall(data)   //nolint:errcheck
		decodeAnswer(data) //nolint:errcheck
		DecodeArgs(data)   //nolint:errcheck
		DecodeReply(data)  //nolint:errcheck

		g := &gen{data}
		args, reply, call := g.args(), g.reply(), g.call()
		head := Answer{Versions: g.str(), Plan: g.bytes(), Trace: g.bytes()}

		argsBlock, err := AppendArgs(nil, &args)
		if err != nil {
			t.Fatal(err)
		}
		replyBlock, err := AppendReply(nil, &reply)
		if err != nil {
			t.Fatal(err)
		}
		request := append(AppendCall(nil, &call), argsBlock...)
		answer := append(AppendAnswer(nil, &head), replyBlock...)

		if got, err := DecodeArgs(argsBlock); err != nil || !same(got, args) {
			t.Fatalf("args %+v decoded as %+v, %v", args, got, err)
		}
		if got, err := DecodeReply(replyBlock); err != nil || !same(got, reply) {
			t.Fatalf("reply %+v decoded as %+v, %v", reply, got, err)
		}
		if c, a, err := decodeCall(request); err != nil || !same(c, call) || !same(a, args) {
			t.Fatalf("request frame %+v %+v decoded as %+v %+v, %v", call, args, c, a, err)
		}
		if h, r, err := decodeAnswer(answer); err != nil || !same(h, head) || !same(r, reply) {
			t.Fatalf("reply frame %+v %+v decoded as %+v %+v, %v", head, reply, h, r, err)
		}

		for _, tc := range []struct {
			what   string
			enc    []byte
			decode func([]byte) error
		}{
			{"args block", argsBlock, func(b []byte) error { _, err := DecodeArgs(b); return err }},
			{"reply block", replyBlock, func(b []byte) error { _, err := DecodeReply(b); return err }},
			{"request frame", request, func(b []byte) error { _, _, err := decodeCall(b); return err }},
			{"reply frame", answer, func(b []byte) error { _, _, err := decodeAnswer(b); return err }},
		} {
			if err := tc.decode(append(slices.Clone(tc.enc), g.byte())); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s with a spare byte: err = %v", tc.what, err)
			}
			if err := tc.decode(tc.enc[:len(tc.enc)-1]); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s a byte short: err = %v", tc.what, err)
			}
		}
	})
}

// TestFrameRefusesOtherVersions: a body that is no frame, a frame of
// another version, and a request frame where a reply frame belongs are
// refused with the version the codec reads named; only the first is
// ErrNotFrame.
func TestFrameRefusesOtherVersions(t *testing.T) {
	request := AppendCall(nil, &Call{Op: OpMeta, Shard: Spec{Count: 1}})
	answer := AppendAnswer(nil, &Answer{Versions: "D@1"})
	bumped := slices.Clone(answer)
	bumped[len(answerMagic)]++
	for _, tc := range []struct {
		what     string
		err      error
		notFrame bool
	}{
		{"JSON request", func() error { _, _, err := ReadCall([]byte(`{"sql":"SELECT 1"}`)); return err }(), true},
		{"empty request", func() error { _, _, err := ReadCall(nil); return err }(), true},
		{"reply frame as a request", func() error { _, _, err := ReadCall(answer); return err }(), true},
		{"request frame as a reply", func() error { _, _, err := ReadAnswer(request); return err }(), true},
		{"reply frame of version 2", func() error { _, _, err := ReadAnswer(bumped); return err }(), false},
		{"magic alone", func() error { _, _, err := ReadAnswer([]byte(answerMagic)); return err }(), false},
	} {
		if !errors.Is(tc.err, ErrFrame) || errors.Is(tc.err, ErrNotFrame) != tc.notFrame {
			t.Errorf("%s: err = %v", tc.what, tc.err)
		}
		if tc.err != nil && !strings.Contains(tc.err.Error(), "version-1") {
			t.Errorf("%s: %q names no frame version", tc.what, tc.err)
		}
	}
}
