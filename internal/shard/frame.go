package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The shard-op wire's one codec: a request frame (Call head, then the op's
// Args block) and a 200 reply frame (Answer head, then the op's Reply
// block), laid out in protocol.go's header. Values encode by type: ints as
// zigzag varints, uint64 seeds and tags as varints, candidate hashes as 8
// bytes, floats as 8-byte IEEE bits (NaN, ±Inf and -0 round-trip exactly),
// bools packed eight to a byte, strings, byte blocks and lists behind their
// length, and a row list's width once. Decoders are strict: a spare or a
// missing byte, a flag or padding bit that is not zero, or a length the rest
// of the frame cannot hold is an error, never a guess.

// FrameVersion is the version byte every frame carries after its magic. A
// body of any other version, or one that is no frame at all, is refused
// whole.
const FrameVersion = 1

// FrameContentType is the media type of a /v1/shard request body and of
// its 200 reply.
const FrameContentType = "application/x-lsample-shard-frame"

// The two frames' magics: a request frame is not a reply frame.
const (
	callMagic   = "LSq"
	answerMagic = "LSa"
)

var (
	// ErrFrame marks bytes that are not a well-formed frame or block of
	// FrameVersion.
	ErrFrame = errors.New("shard: bad frame")
	// ErrNotFrame marks bytes that do not open with a frame's magic at all
	// (a JSON body, a proxy's page), as opposed to a frame of another
	// version or one that does not decode. It always comes wrapped with
	// ErrFrame.
	ErrNotFrame = errors.New("not a shard frame")
)

// Call is a request frame's head: everything a shard op's request carries
// but the op's Args block, which follows it to the end of the frame.
type Call struct {
	Query    []byte // the count request: a JSON sub-block, its seed cleared
	Seed     uint64 // the seed the op runs under
	Op       string
	Shard    Spec
	Versions string // expected dataset versions ("" skips the fence)
	Census   *Meta  // the shard's census the coordinator assumed, if it kept one
}

// AppendCall appends c to dst as a request frame's head. A request frame
// is that head followed by the op's Args block (AppendArgs).
func AppendCall(dst []byte, c *Call) []byte {
	dst = append(dst, callMagic...)
	dst = append(dst, FrameVersion)
	dst = appendBytes(dst, c.Query)
	dst = binary.AppendUvarint(dst, c.Seed)
	dst = appendString(dst, c.Op)
	dst = appendInt(dst, c.Shard.Index)
	dst = appendInt(dst, c.Shard.Count)
	dst = appendString(dst, c.Versions)
	dst = appendBool(dst, c.Census != nil)
	if c.Census != nil {
		dst = appendMeta(dst, c.Census)
	}
	return dst
}

// ReadCall reads a request frame's head and returns it with the rest of
// the frame, the op's Args block, still encoded (Serve decodes it). Query
// and the block alias b.
func ReadCall(b []byte) (Call, []byte, error) {
	d := decoder{b: b}
	d.header(callMagic, "request")
	var c Call
	c.Query = d.bytes()
	c.Seed = d.uvarint()
	c.Op = d.str()
	c.Shard.Index = d.int()
	c.Shard.Count = d.int()
	c.Versions = d.str()
	if d.bool() {
		m := d.meta()
		c.Census = &m
	}
	if d.err != nil {
		return Call{}, nil, d.err
	}
	return c, d.b, nil
}

// Answer is a 200 reply frame's head: everything a worker answers but the
// op's Reply block, which follows it to the end of the frame.
type Answer struct {
	Versions string // the worker's dataset versions
	Plan     []byte // the meta op's resolved plan: a JSON sub-block, else empty
	Trace    []byte // a traced op's span tree: a JSON sub-block, else empty
}

// AppendAnswer appends a to dst as a reply frame's head. A reply frame is
// that head followed by the op's Reply block (Serve's result).
func AppendAnswer(dst []byte, a *Answer) []byte {
	dst = append(dst, answerMagic...)
	dst = append(dst, FrameVersion)
	dst = appendString(dst, a.Versions)
	dst = appendBytes(dst, a.Plan)
	return appendBytes(dst, a.Trace)
}

// ReadAnswer reads a reply frame's head and returns it with the rest of
// the frame, the op's Reply block, still encoded (DecodeReply). Plan,
// Trace and the block alias b.
func ReadAnswer(b []byte) (Answer, []byte, error) {
	d := decoder{b: b}
	d.header(answerMagic, "reply")
	var a Answer
	a.Versions = d.str()
	a.Plan = d.bytes()
	a.Trace = d.bytes()
	if d.err != nil {
		return Answer{}, nil, d.err
	}
	return a, d.b, nil
}

// AppendArgs appends a's argument block to dst. It fails only on a ragged
// or zero-width row list.
func AppendArgs(dst []byte, a *Args) ([]byte, error) {
	dst = appendInt(dst, a.K)
	dst = binary.AppendUvarint(dst, a.Tag)
	dst = appendInt64s(dst, a.Keys)
	dst = appendInt64s(dst, a.RowsOf)
	dst, err := appendRows(dst, a.X)
	if err != nil {
		return nil, err
	}
	dst = appendBools(dst, a.Y)
	return binary.AppendUvarint(dst, a.ClfSeed), nil
}

// DecodeArgs is AppendArgs' strict inverse.
func DecodeArgs(b []byte) (Args, error) {
	d := decoder{b: b}
	var a Args
	a.K = d.int()
	a.Tag = d.uvarint()
	a.Keys = d.int64s()
	a.RowsOf = d.int64s()
	a.X = d.rows()
	a.Y = d.bools()
	a.ClfSeed = d.uvarint()
	return a, d.end("argument block")
}

// Reply block flags: which optional blocks follow.
const (
	hasMeta = 1 << iota
	hasTally
)

// AppendReply appends r's reply block to dst. It fails only on a ragged or
// zero-width row list.
func AppendReply(dst []byte, r *Reply) ([]byte, error) {
	var flags byte
	if r.Meta != nil {
		flags |= hasMeta
	}
	if r.Tally != nil {
		flags |= hasTally
	}
	dst = append(dst, flags)
	if r.Meta != nil {
		dst = appendMeta(dst, r.Meta)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Cands)))
	for _, c := range r.Cands {
		dst = binary.LittleEndian.AppendUint64(dst, c.Hash)
		dst = binary.AppendVarint(dst, c.Key)
	}
	dst = appendBools(dst, r.Labels)
	dst = appendInt(dst, r.Fresh)
	dst, err := appendRows(dst, r.Features)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Scored)))
	for _, s := range r.Scored {
		dst = binary.AppendVarint(dst, s.Key)
		dst = appendFloat(dst, s.Score)
		dst = appendString(dst, s.Group)
	}
	if t := r.Tally; t != nil {
		dst = appendInt(dst, t.N)
		dst = appendInt(dst, t.Sampled)
		dst = appendInt(dst, t.Positives)
		dst = appendInt(dst, t.Fresh)
		dst = appendGroups(dst, t.Groups)
	}
	return dst, nil
}

// DecodeReply is AppendReply's strict inverse. Empty lists decode as nil.
func DecodeReply(b []byte) (Reply, error) {
	d := decoder{b: b}
	var r Reply
	flags := d.byte()
	if flags&^(hasMeta|hasTally) != 0 {
		d.fail("reply flags %#x", flags)
	}
	if flags&hasMeta != 0 {
		m := d.meta()
		r.Meta = &m
	}
	if n := d.count(9); n > 0 {
		r.Cands = make([]Cand, n)
		for i := range r.Cands {
			r.Cands[i] = Cand{Hash: d.fixed64(), Key: d.varint()}
		}
	}
	r.Labels = d.bools()
	r.Fresh = d.int()
	r.Features = d.rows()
	if n := d.count(10); n > 0 {
		r.Scored = make([]Scored, n)
		for i := range r.Scored {
			r.Scored[i] = Scored{Key: d.varint(), Score: d.float(), Group: d.str()}
		}
	}
	if flags&hasTally != 0 {
		t := &Tally{}
		t.N = d.int()
		t.Sampled = d.int()
		t.Positives = d.int()
		t.Fresh = d.int()
		t.Groups = d.groups()
		r.Tally = t
	}
	return r, d.end("reply block")
}

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func appendString(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func appendInt64s(dst []byte, v []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendVarint(dst, x)
	}
	return dst
}

// appendBools packs v eight to a byte, element i in bit i%8 of byte i/8.
func appendBools(dst []byte, v []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for i := 0; i < len(v); i += 8 {
		var packed byte
		for j, x := range v[i:min(i+8, len(v))] {
			if x {
				packed |= 1 << j
			}
		}
		dst = append(dst, packed)
	}
	return dst
}

// appendRows writes the row count, the width once, then every value.
func appendRows(dst []byte, rows [][]float64) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	if len(rows) == 0 {
		return dst, nil
	}
	w := len(rows[0])
	if w == 0 {
		return nil, fmt.Errorf("%w: rows of width 0", ErrFrame)
	}
	dst = binary.AppendUvarint(dst, uint64(w))
	for i, row := range rows {
		if len(row) != w {
			return nil, fmt.Errorf("%w: row %d has %d values, row 0 has %d", ErrFrame, i, len(row), w)
		}
		for _, v := range row {
			dst = appendFloat(dst, v)
		}
	}
	return dst, nil
}

func appendMeta(dst []byte, m *Meta) []byte {
	dst = appendInt(dst, m.N)
	return appendGroups(dst, m.Groups)
}

func appendGroups(dst []byte, gs []GroupCount) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(gs)))
	for _, g := range gs {
		dst = appendString(dst, g.Key)
		dst = binary.AppendUvarint(dst, uint64(len(g.Parts)))
		for _, p := range g.Parts {
			dst = appendString(dst, p)
		}
		dst = appendInt(dst, g.N)
		dst = appendInt(dst, g.Pos)
	}
	return dst
}

// decoder reads a frame front to back. The first failure sticks: every
// read after it returns zero values, so a decode runs straight through and
// checks err once.
type decoder struct {
	b   []byte // the bytes not read yet
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// header checks a frame's magic and version byte.
func (d *decoder) header(magic, what string) {
	n := len(magic)
	switch {
	case len(d.b) < n || string(d.b[:n]) != magic:
		d.err = fmt.Errorf("%w: %w: want a version-%d shard %s frame, body opens %q",
			ErrFrame, ErrNotFrame, FrameVersion, what, d.b[:min(len(d.b), 8)])
		d.b = nil
	case len(d.b) == n || d.b[n] != FrameVersion:
		got := "no version byte"
		if len(d.b) > n {
			got = fmt.Sprintf("version %d", d.b[n])
		}
		d.fail("want a version-%d shard %s frame, got %s", FrameVersion, what, got)
	default:
		d.b = d.b[n+1:]
	}
}

// end closes a block: any byte left is spare.
func (d *decoder) end(what string) error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%s has %d spare bytes", what, len(d.b))
	}
	return d.err
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool {
	switch v := d.byte(); v {
	case 0, 1:
		return v == 1
	default:
		d.fail("bool byte %d", v)
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) fixed64() uint64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) float() float64 { return math.Float64frombits(d.fixed64()) }

// count reads a list's length, each of whose elements takes at least size
// bytes, so a length the rest of the frame cannot hold fails before
// anything is allocated.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("a list of %d needs more than the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) int64s() []int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.varint()
	}
	return v
}

func (d *decoder) bools() []bool {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))*8 {
		d.fail("%d bools need more than the %d bytes left", n, len(d.b))
		return nil
	}
	packed := d.b[:(n+7)/8]
	d.b = d.b[len(packed):]
	if tail := n % 8; tail != 0 && packed[len(packed)-1]>>tail != 0 {
		d.fail("bool padding bits set")
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = packed[i/8]>>(i%8)&1 == 1
	}
	return v
}

// rows reads a row list into one backing array, each row capped at its
// width.
func (d *decoder) rows() [][]float64 {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	w := d.uvarint()
	if d.err != nil {
		return nil
	}
	if w == 0 || n > uint64(len(d.b))/8/w {
		d.fail("%d rows of width %d in %d bytes", n, w, len(d.b))
		return nil
	}
	flat := make([]float64, n*w)
	for i := range flat {
		flat[i] = d.float()
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[uint64(i)*w : uint64(i+1)*w : uint64(i+1)*w]
	}
	return rows
}

func (d *decoder) meta() Meta {
	return Meta{N: d.int(), Groups: d.groups()}
}

func (d *decoder) groups() []GroupCount {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	gs := make([]GroupCount, n)
	for i := range gs {
		gs[i].Key = d.str()
		if parts := d.count(1); parts > 0 {
			gs[i].Parts = make([]string, parts)
			for j := range gs[i].Parts {
				gs[i].Parts[j] = d.str()
			}
		}
		gs[i].N = d.int()
		gs[i].Pos = d.int()
	}
	return gs
}
