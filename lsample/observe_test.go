package lsample

import (
	"context"
	"strings"
	"testing"
)

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
