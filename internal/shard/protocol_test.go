package shard

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

// wired returns the protocol's two ends joined without a network: the
// remote Worker whose transport encodes each op's arguments with the
// frame codec, hands the block to Serve on w and decodes the reply block —
// the round trip a coordinator's frames make, minus the HTTP hop. ops
// records every op name that crossed the wire.
func wired(w Worker, ops map[string]int) Worker {
	return NewRemote(func(ctx context.Context, op string, a *Args) (*Reply, error) {
		if ops != nil {
			ops[op]++
		}
		args, err := AppendArgs(nil, a)
		if err != nil {
			return nil, err
		}
		raw, err := Serve(ctx, w, op, args)
		if err != nil {
			return nil, err
		}
		r, err := DecodeReply(raw)
		if err != nil {
			return nil, err
		}
		return &r, nil
	})
}

// TestProtocolRoundTripEveryOp: each of the five ops — label both bare and
// with feature rows asked for, of all its keys and of one it is not asked
// to label; score_all with a learn sample and without one — sent through the
// remote adapter → the frame codec → Serve → a Local, returns exactly what
// calling the Local directly returns.
func TestProtocolRoundTripEveryOp(t *testing.T) {
	ctx := context.Background()
	for _, grouped := range []bool{false, true} {
		local := testWorkers(200, 2, grouped)[1]
		ops := map[string]int{}
		remote := wired(local, ops)

		same := func(op string, got, want any, gerr, werr error) {
			t.Helper()
			if gerr != nil || werr != nil {
				t.Fatalf("grouped=%t %s: errors %v / %v", grouped, op, gerr, werr)
			}
			// The codec decodes empty lists as nil, and no consumer tells
			// the two apart; their JSON renderings do not either.
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Errorf("grouped=%t %s over the wire:\n got %s\nwant %s", grouped, op, gb, wb)
			}
		}
		wm, werr := local.Meta(ctx)
		gm, gerr := remote.Meta(ctx)
		same(OpMeta, gm, wm, gerr, werr)
		if !reflect.DeepEqual(gm, wm) {
			t.Errorf("meta not deeply equal: %+v vs %+v", gm, wm)
		}

		wc, werr := local.Cands(ctx, 25, TagLearn)
		gc, gerr := remote.Cands(ctx, 25, TagLearn)
		same(OpCands, gc, wc, gerr, werr)
		keys := make([]int64, len(wc))
		for i, c := range wc {
			keys[i] = c.Key
		}

		var wl []bool
		var wf [][]float64
		for _, ask := range []struct{ keys, rowsOf []int64 }{
			{keys, nil}, {keys[1:], keys[:3]}, {nil, keys[:1]}, {keys, keys},
		} {
			var wfresh int
			wl, wf, wfresh, werr = local.Label(ctx, ask.keys, ask.rowsOf)
			gl, gf, gfresh, gerr := remote.Label(ctx, ask.keys, ask.rowsOf)
			if gerr != nil || werr != nil {
				t.Fatalf("grouped=%t label: errors %v / %v", grouped, gerr, werr)
			}
			if !slices.Equal(gl, wl) || !slices.EqualFunc(gf, wf, slices.Equal[[]float64]) || gfresh != wfresh ||
				len(gl) != len(ask.keys) || len(gf) != len(ask.rowsOf) {
				t.Errorf("grouped=%t label of %d keys, rows of %d, over the wire:\n got %v %v fresh %d\nwant %v %v fresh %d",
					grouped, len(ask.keys), len(ask.rowsOf), gl, gf, gfresh, wl, wf, wfresh)
			}
		}

		ws, werr := local.ScoreAll(ctx, wf, wl, 99)
		gs, gerr := remote.ScoreAll(ctx, wf, wl, 99)
		same(OpScoreAll, gs, ws, gerr, werr)
		for i := range ws {
			if math.Float64bits(gs[i].Score) != math.Float64bits(ws[i].Score) { // float64 bits survive the hop
				t.Fatalf("score %d: %v over the wire, %v direct", i, gs[i].Score, ws[i].Score)
			}
		}

		wu, werr := local.ScoreAll(ctx, nil, nil, 0)
		gu, gerr := remote.ScoreAll(ctx, nil, nil, 0)
		same(OpScoreAll, gu, wu, gerr, werr)

		wt, werr := local.CountAll(ctx)
		gt, gerr := remote.CountAll(ctx)
		same(OpCountAll, gt, wt, gerr, werr)
		if gt.Partial != wt.Partial || gt.Fresh != wt.Fresh {
			t.Errorf("tally %+v over the wire, %+v direct", gt, wt)
		}

		if len(ops) != 5 {
			t.Errorf("%d distinct ops crossed the wire, want all 5: %v", len(ops), ops)
		}
		for op := range ops {
			if want := op == OpLabel || op == OpScoreAll || op == OpCountAll; Heavy(op) != want {
				t.Errorf("Heavy(%q) = %t", op, Heavy(op))
			}
		}
	}
}

// TestProtocolRejectsMalformed: unknown ops and unreadable arguments are
// ErrBadOp at the worker end; replies that cannot belong to the request are
// errors at the coordinator end; worker errors pass through.
func TestProtocolRejectsMalformed(t *testing.T) {
	ctx := context.Background()
	local := testWorkers(50, 1, false)[0]
	if _, err := Serve(ctx, local, "explode", mustArgs(t, &Args{})); !errors.Is(err, ErrBadOp) {
		t.Errorf("unknown op: %v", err)
	}
	cands := mustArgs(t, &Args{K: 3, Tag: TagLearn})
	for name, args := range map[string][]byte{
		"a JSON block": []byte(`{"k": "many"}`),
		"a spare byte": append(slices.Clone(cands), 0),
		"a byte short": cands[:len(cands)-1],
		"no block":     nil,
	} {
		if _, err := Serve(ctx, local, OpCands, args); !errors.Is(err, ErrBadOp) || !errors.Is(err, ErrFrame) {
			t.Errorf("unreadable args (%s): %v", name, err)
		}
	}
	if got, err := Serve(ctx, local, OpCands, cands); err != nil || len(got) == 0 {
		t.Errorf("the well-formed block: %v", err)
	}
	if _, _, _, err := wired(local, nil).Label(ctx, []int64{-7}, nil); err == nil || errors.Is(err, ErrBadOp) {
		t.Errorf("foreign key: err = %v, want the worker's own error", err)
	}
	if _, _, _, err := wired(local, nil).Label(ctx, nil, []int64{-7}); err == nil || errors.Is(err, ErrBadOp) {
		t.Errorf("foreign key's feature row: err = %v, want the worker's own error", err)
	}
	if _, err := Serve(ctx, local, "features", mustArgs(t, &Args{Keys: []int64{1}})); !errors.Is(err, ErrBadOp) || errors.Is(err, ErrFrame) {
		t.Errorf("the retired features op: %v", err)
	}
	empty := NewRemote(func(context.Context, string, *Args) (*Reply, error) {
		return &Reply{}, nil
	})
	if _, err := empty.Meta(ctx); err == nil {
		t.Error("empty meta reply accepted")
	}
	if _, err := empty.CountAll(ctx); err == nil {
		t.Error("empty tally reply accepted")
	}
	if _, _, _, err := empty.Label(ctx, []int64{1, 4}, nil); err == nil {
		t.Error("short label reply accepted")
	}
	// A feature block of the wrong length: one row short, one too many, and
	// rows nobody asked for.
	rows := NewRemote(func(context.Context, string, *Args) (*Reply, error) {
		return &Reply{Labels: []bool{true, false}, Features: [][]float64{{1, 2}}}, nil
	})
	for _, rowsOf := range [][]int64{{1, 4}, nil} {
		if _, _, _, err := rows.Label(ctx, []int64{1, 4}, rowsOf); err == nil {
			t.Errorf("1 feature row accepted for %d asked", len(rowsOf))
		}
	}
	if _, got, _, err := rows.Label(ctx, []int64{1, 4}, []int64{4}); err != nil || len(got) != 1 {
		t.Errorf("a well-formed label reply with one row: %v, %v", got, err)
	}
}

// TestDriveOverWireByteIdentical: Drive over the remote adapters equals
// Drive over the locals they front, field for field — the property that
// makes a coordinator's answer the in-process sharded answer.
func TestDriveOverWireByteIdentical(t *testing.T) {
	const n, shards = 300, 3
	for _, method := range []string{"srs", "lss", "oracle"} {
		for _, grouped := range []bool{false, true} {
			plan := testPlan(method, grouped)
			plan.Exact = true
			want, err := Drive(context.Background(), plan, testWorkers(n, shards, grouped))
			if err != nil {
				t.Fatal(err)
			}
			remotes := testWorkers(n, shards, grouped)
			for i, w := range remotes {
				remotes[i] = wired(w, nil)
			}
			got, err := Drive(context.Background(), plan, remotes)
			if err != nil {
				t.Fatal(err)
			}
			gb, gerr := json.Marshal(got)
			wb, werr := json.Marshal(want)
			if gerr != nil || werr != nil || len(gb) == 0 {
				t.Fatalf("results do not render: %v / %v", gerr, werr)
			}
			if string(gb) != string(wb) {
				t.Errorf("%s grouped=%t over the wire:\n got %s\nwant %s", method, grouped, gb, wb)
			}
		}
	}
}

// mustArgs encodes an argument block.
func mustArgs(tb testing.TB, a *Args) []byte {
	tb.Helper()
	b, err := AppendArgs(nil, a)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestWorkerRepliesGolden pins what a worker answers for every op, on one
// fixed grouped shard of ten objects: the census, a learn draw, a label
// round that also asks for feature rows (of keys it does not label too),
// score_all with a learn sample and without one — the unscored listing a
// plan that learns nothing asks for — and a full pass. Each case's
// arguments are written as the JSON rendering of its Args and sent as the
// frame codec's block; the reply block is decoded and its JSON rendering
// compared with the string recorded, when replies were JSON, before the
// driver's rounds were rewritten, and the block's own bytes with the hex
// recorded when the frame replaced JSON. Protocol round trips compare two
// ends built from the same code, so only this test sees a reply change
// across commits.
func TestWorkerRepliesGolden(t *testing.T) {
	ctx := context.Background()
	w := testWorkers(45, 3, true)[1]
	for _, tc := range []struct{ op, args, want, frame string }{
		{OpMeta, `{}`,
			`{"meta":{"n":10,"groups":[{"key":"g0","parts":["g0"],"n":2},{"key":"g1","parts":["g1"],"n":5},{"key":"g2","parts":["g2"],"n":3}]}}`,
			`011403026730010267300400026731010267310a000267320102673206000000000000`},
		{OpCands, `{"k":6,"tag":327579423310}`,
			`{"cands":[{"hash":2429953393465610968,"key":118},{"hash":3135989783225174485,"key":58},{"hash":4194173693560944649,"key":115},{"hash":4259689420543276932,"key":55},{"hash":7020626899679524337,"key":124},{"hash":7619798632428737872,"key":67}]}`,
			`0006d8d245a6bcedb821ec01d50964b81746852b7409f8fcaac0b2343ae60184b7f88cf5741d3b6ef135f3e7f7466e61f8015015ec197cf6be69860100000000`},
		{OpLabel, `{"keys":[118,58,115],"rows_of":[118,58,115,55,124,67]}`,
			`{"labels":[false,true,true],"fresh":3,"features":[[16,3],[7,3],[13,0],[4,0],[5,4],[16,2]]}`,
			`00000306060602000000000000304000000000000008400000000000001c4000000000000008400000000000002a40000000000000000000000000000010400000000000000000000000000000144000000000000010400000000000003040000000000000004000`},
		{OpScoreAll, `{"x":[[16,3],[7,3],[13,0],[4,0],[5,4],[16,2]],"y":[false,true,true,false,false,true],"clf_seed":7}`,
			`{"scored":[{"key":4,"score":0.21083333333333334,"group":"g1"},{"key":31,"score":0.7875,"group":"g1"},{"key":55,"score":0.3341666666666667,"group":"g0"},{"key":58,"score":0.5658333333333333,"group":"g1"},{"key":67,"score":0.725,"group":"g1"},{"key":88,"score":0.21083333333333334,"group":"g2"},{"key":94,"score":0.5858333333333333,"group":"g1"},{"key":115,"score":0.7875,"group":"g2"},{"key":118,"score":0.5733333333333333,"group":"g0"},{"key":124,"score":0.21083333333333334,"group":"g2"}]}`,
			`00000000000a08fd62c92f96fcca3f0267313e333333333333e93f0267316e64c92f96fc62d53f026730741be8b4814e1be23f0267318601333333333333e73f026731b001fd62c92f96fcca3f026732bc01bf58f28b25bfe23f026731e601333333333333e93f026732ec0158f28b25bf58e23f026730f801fd62c92f96fcca3f026732`},
		{OpScoreAll, `{}`,
			`{"scored":[{"key":4,"score":0,"group":"g1"},{"key":31,"score":0,"group":"g1"},{"key":55,"score":0,"group":"g0"},{"key":58,"score":0,"group":"g1"},{"key":67,"score":0,"group":"g1"},{"key":88,"score":0,"group":"g2"},{"key":94,"score":0,"group":"g1"},{"key":115,"score":0,"group":"g2"},{"key":118,"score":0,"group":"g0"},{"key":124,"score":0,"group":"g2"}]}`,
			`00000000000a0800000000000000000267313e00000000000000000267316e000000000000000002673074000000000000000002673186010000000000000000026731b0010000000000000000026732bc010000000000000000026731e6010000000000000000026732ec010000000000000000026730f8010000000000000000026732`},
		{OpCountAll, `{}`,
			`{"tally":{"n":10,"sampled":10,"positives":3,"fresh":10,"groups":[{"key":"g0","parts":["g0"],"n":2},{"key":"g1","parts":["g1"],"n":5,"pos":2},{"key":"g2","parts":["g2"],"n":3,"pos":1}]}}`,
			`0200000000001414061403026730010267300400026731010267310a04026732010267320602`},
	} {
		var a Args
		if err := json.Unmarshal([]byte(tc.args), &a); err != nil {
			t.Fatal(err)
		}
		raw, err := Serve(ctx, w, tc.op, mustArgs(t, &a))
		if err != nil {
			t.Fatalf("%s %s: %v", tc.op, tc.args, err)
		}
		if got := hex.EncodeToString(raw); got != tc.frame {
			t.Errorf("%s %s: reply block\n got %s\nwant %s", tc.op, tc.args, got, tc.frame)
		}
		r, err := DecodeReply(raw)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.op, tc.args, err)
		}
		got, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s %s:\n got %s\nwant %s", tc.op, tc.args, got, tc.want)
		}
	}
}
