package lsample

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestQueryLogOneLinePerExecution: every estimation entry point writes
// exactly one "query" line through the one writer, with the documented
// fields, and a count the label memo answered in full says so.
func TestQueryLogOneLinePerExecution(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf)
	ctx := context.Background()
	common := []string{"fingerprint", "method", "objects", "budget", "count", "evals", "labeling", "duration_ms"}
	line := func(what string, extra ...string) map[string]any {
		t.Helper()
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		buf.Reset()
		if len(lines) != 1 {
			t.Fatalf("%s wrote %d log lines, want 1:\n%s", what, len(lines), bytes.Join(lines, []byte("\n")))
		}
		var rec map[string]any
		if err := json.Unmarshal(lines[0], &rec); err != nil {
			t.Fatalf("%s: %v in %s", what, err, lines[0])
		}
		if rec["msg"] != "query" || rec["level"] != "info" {
			t.Errorf("%s: msg %v at level %v, want query at info", what, rec["msg"], rec["level"])
		}
		want := append(append([]string{"ts", "level", "msg"}, common...), extra...)
		for _, k := range want {
			if _, ok := rec[k]; !ok {
				t.Errorf("%s: no %q field in %s", what, k, lines[0])
			}
		}
		if len(rec) != len(want) {
			t.Errorf("%s: %d fields, want exactly %v: %s", what, len(rec), want, lines[0])
		}
		return rec
	}

	q, _ := catalogSession(t, 120, 7, WithMethod("lss"), WithBudget(0.25), WithSeed(3), WithParallelism(1), WithLogger(logger))
	params := map[string]any{"k": 8}
	for _, st := range []struct{ what, reuse, labeling string }{
		{"Execute", ReuseNone, "compiled"},
		{"Execute again", ReuseDirect, "label memo (no predicate built)"},
	} {
		if _, err := q.Execute(ctx, params); err != nil {
			t.Fatal(err)
		}
		if rec := line(st.what, "reuse", "reused_labels"); rec["reuse"] != st.reuse || rec["labeling"] != st.labeling || rec["method"] != "lss" || rec["objects"] != 120.0 {
			t.Errorf("%s logged %v, want reuse %q and labeling %q over 120 objects", st.what, rec, st.reuse, st.labeling)
		}
	}
	if _, err := q.Execute(ctx, params, WithCatalog(nil)); err != nil {
		t.Fatal(err)
	}
	line("Execute on the classic path")

	gq, err := groupedSession(t, 150, WithMethod("lss"), WithBudget(0.3), WithSeed(5), WithLogger(logger)).Prepare(groupedSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithShards(2)}} {
		res, err := gq.ExecuteGroups(ctx, params, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rec := line("ExecuteGroups", "groups"); rec["groups"] != float64(len(res.Groups)) || rec["count"] != res.Total {
			t.Errorf("ExecuteGroups logged %v, want %d groups totalling %v", rec, len(res.Groups), res.Total)
		}
	}

	features, pred := ellipse(400, 3)
	e, err := NewEstimator(WithMethod("srs"), WithBudget(0.1), WithLogger(logger))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(ctx, features, pred); err != nil {
		t.Fatal(err)
	}
	if rec := line("Estimator.Estimate"); rec["fingerprint"] != "" || rec["evals"] != 40.0 {
		t.Errorf("Estimator.Estimate logged %v, want 40 evaluations and no fingerprint", rec)
	}

	lq, err := newLiveWorkload(t, 200, 5).session(t, WithMethod("srs"), WithBudget(0.2), WithSeed(2), WithLogger(logger)).PrepareLive(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lq.Refresh(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if rec := line("Refresh"); rec["evals"] != 40.0 {
		t.Errorf("Refresh logged %v, want its 40 evaluations", rec)
	}
}

// spanTree renders a span tree as name(child child ...), children in start
// order.
func spanTree(s *TraceSpan) string {
	if len(s.Children) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Children))
	for i, c := range s.Children {
		parts[i] = spanTree(c)
	}
	return s.Name + "(" + strings.Join(parts, " ") + ")"
}

// TestExplainClassicSpanTree pins the names and nesting of the classic SQL
// path's spans — no catalog, no WithShards — for plain and grouped counts
// alike: the one classic body opens the same tree under either root, so a
// GROUP BY count reports its features phase and its learn / design / sample
// split as a plain count does (bench/metrics.go maps every one of these
// names to a ledger row). A feature-free method opens no features span.
func TestExplainClassicSpanTree(t *testing.T) {
	plain, err := NewSession(NewMemorySource(testTable(t, 160, 7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sess   *Session
		sql    string
		method string
		exact  bool
		want   string
	}{
		{"plain/lss", plain, skybandQuery, "lss", false,
			"execute(enumerate features predicate.build estimate(learn design sample))"},
		{"plain/lss/exact", plain, skybandQuery, "lss", true,
			"execute(enumerate features predicate.build estimate(learn design sample) exact.scan)"},
		{"plain/srs", plain, skybandQuery, "srs", false,
			"execute(enumerate predicate.build estimate(learn design sample))"},
		{"grouped/lss", groupedSession(t, 150), groupedSQL, "lss", false,
			"execute.groups(enumerate features predicate.build estimate(learn design sample))"},
		{"grouped/lss/exact", groupedSession(t, 150), groupedSQL, "lss", true,
			"execute.groups(enumerate features predicate.build estimate(learn design sample) exact.scan)"},
		{"grouped/srs", groupedSession(t, 150), groupedSQL, "srs", false,
			"execute.groups(enumerate predicate.build estimate(learn design sample))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := NewTracer(TracerOptions{SampleRate: 1})
			q, err := tc.sess.Prepare(tc.sql, WithMethod(tc.method), WithBudget(0.3), WithSeed(5),
				WithExact(tc.exact), WithTracer(tracer))
			if err != nil {
				t.Fatal(err)
			}
			var evals int64
			if q.IsGrouped() {
				res, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20})
				if err != nil {
					t.Fatal(err)
				}
				evals = res.SamplesUsed
			} else {
				res, err := q.Execute(context.Background(), map[string]any{"k": 20})
				if err != nil {
					t.Fatal(err)
				}
				evals = res.SamplesUsed
			}
			traces := tracer.Traces(1)
			if len(traces) != 1 {
				t.Fatalf("recorded %d traces, want 1", len(traces))
			}
			if got := spanTree(traces[0]); got != tc.want {
				t.Errorf("span tree\n got %s\nwant %s", got, tc.want)
			}
			if got := traces[0].Attrs["evals"]; got != evals {
				t.Errorf("root span evals = %v, want %d", got, evals)
			}
			for _, c := range traces[0].Children {
				if c.Name == "estimate" {
					if _, ok := c.Attrs["budget"]; !ok {
						t.Errorf("estimate span carries no budget: %v", c.Attrs)
					}
					if tc.method != "lss" {
						continue
					}
					if learn := c.Children[0].Attrs; learn["train_rows"] == nil || learn["fit_ms"] == nil || learn["scored"] == nil {
						t.Errorf("lss learn span carries no train_rows / fit_ms / scored: %v", learn)
					}
					algo := c.Children[1].Attrs["algo"]
					if algo == nil || q.IsGrouped() && algo != "fixed-height" {
						t.Errorf("lss design span algo = %v (grouped plans lay fixed-height strata)", algo)
					}
				}
			}
		})
	}
}
