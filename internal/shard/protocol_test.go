package shard

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// wired returns the protocol's two ends joined without a network: the
// remote Worker whose transport encodes each op's arguments to JSON, hands
// the bytes to Serve on w and decodes the reply bytes — the round trip a
// coordinator's envelopes make, minus the HTTP hop. ops records every op
// name that crossed the wire.
func wired(w Worker, ops map[string]int) Worker {
	return NewRemote(func(ctx context.Context, op string, a *Args) (*Reply, error) {
		if ops != nil {
			ops[op]++
		}
		args, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		raw, err := Serve(ctx, w, op, args)
		if err != nil {
			return nil, err
		}
		var r Reply
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, err
		}
		return &r, nil
	})
}

// TestProtocolRoundTripEveryOp: each of the five ops — label both bare and
// with feature rows asked for, of all its keys and of one it is not asked
// to label; score_all with a learn sample and without one — sent through the
// remote adapter → JSON → Serve → a Local, returns exactly what calling
// the Local directly returns.
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
			// JSON drops the difference between nil and empty slices; so
			// does every consumer.
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
			if gs[i].Score != ws[i].Score { // float64 bits survive the JSON hop
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
	if _, err := Serve(ctx, local, "explode", nil); !errors.Is(err, ErrBadOp) {
		t.Errorf("unknown op: %v", err)
	}
	if _, err := Serve(ctx, local, OpCands, json.RawMessage(`{"k": "many"}`)); !errors.Is(err, ErrBadOp) {
		t.Errorf("unreadable args: %v", err)
	}
	if _, _, _, err := wired(local, nil).Label(ctx, []int64{-7}, nil); err == nil || errors.Is(err, ErrBadOp) {
		t.Errorf("foreign key: err = %v, want the worker's own error", err)
	}
	if _, _, _, err := wired(local, nil).Label(ctx, nil, []int64{-7}); err == nil || errors.Is(err, ErrBadOp) {
		t.Errorf("foreign key's feature row: err = %v, want the worker's own error", err)
	}
	if _, err := Serve(ctx, local, "features", json.RawMessage(`{"keys": [1]}`)); !errors.Is(err, ErrBadOp) {
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

// TestWorkerRepliesGolden pins the bytes a worker answers for every op, on
// one fixed grouped shard of ten objects: the census, a learn draw, a label
// round that also asks for feature rows (of keys it does not label too),
// score_all with a learn sample and without one — the unscored listing a
// plan that learns nothing asks for — and a full pass. The bytes were
// recorded before the driver's rounds were rewritten; protocol round trips
// compare two ends built from the same code, so only this test sees a reply
// change across commits.
func TestWorkerRepliesGolden(t *testing.T) {
	ctx := context.Background()
	w := testWorkers(45, 3, true)[1]
	for _, tc := range []struct{ op, args, want string }{
		{OpMeta, ``,
			`{"meta":{"n":10,"groups":[{"key":"g0","parts":["g0"],"n":2},{"key":"g1","parts":["g1"],"n":5},{"key":"g2","parts":["g2"],"n":3}]}}`},
		{OpCands, `{"k":6,"tag":327579423310}`,
			`{"cands":[{"hash":2429953393465610968,"key":118},{"hash":3135989783225174485,"key":58},{"hash":4194173693560944649,"key":115},{"hash":4259689420543276932,"key":55},{"hash":7020626899679524337,"key":124},{"hash":7619798632428737872,"key":67}]}`},
		{OpLabel, `{"keys":[118,58,115],"rows_of":[118,58,115,55,124,67]}`,
			`{"labels":[false,true,true],"fresh":3,"features":[[16,3],[7,3],[13,0],[4,0],[5,4],[16,2]]}`},
		{OpScoreAll, `{"x":[[16,3],[7,3],[13,0],[4,0],[5,4],[16,2]],"y":[false,true,true,false,false,true],"clf_seed":7}`,
			`{"scored":[{"key":4,"score":0.21083333333333334,"group":"g1"},{"key":31,"score":0.7875,"group":"g1"},{"key":55,"score":0.3341666666666667,"group":"g0"},{"key":58,"score":0.5658333333333333,"group":"g1"},{"key":67,"score":0.725,"group":"g1"},{"key":88,"score":0.21083333333333334,"group":"g2"},{"key":94,"score":0.5858333333333333,"group":"g1"},{"key":115,"score":0.7875,"group":"g2"},{"key":118,"score":0.5733333333333333,"group":"g0"},{"key":124,"score":0.21083333333333334,"group":"g2"}]}`},
		{OpScoreAll, `{}`,
			`{"scored":[{"key":4,"score":0,"group":"g1"},{"key":31,"score":0,"group":"g1"},{"key":55,"score":0,"group":"g0"},{"key":58,"score":0,"group":"g1"},{"key":67,"score":0,"group":"g1"},{"key":88,"score":0,"group":"g2"},{"key":94,"score":0,"group":"g1"},{"key":115,"score":0,"group":"g2"},{"key":118,"score":0,"group":"g0"},{"key":124,"score":0,"group":"g2"}]}`},
		{OpCountAll, ``,
			`{"tally":{"n":10,"sampled":10,"positives":3,"fresh":10,"groups":[{"key":"g0","parts":["g0"],"n":2},{"key":"g1","parts":["g1"],"n":5,"pos":2},{"key":"g2","parts":["g2"],"n":3,"pos":1}]}}`},
	} {
		got, err := Serve(ctx, w, tc.op, json.RawMessage(tc.args))
		if err != nil {
			t.Fatalf("%s %s: %v", tc.op, tc.args, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s %s:\n got %s\nwant %s", tc.op, tc.args, got, tc.want)
		}
	}
}
