package lsample

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The classic golden table pins fixed-seed output of the classic SQL path —
// no catalog, no WithShards: enumerate → features → predicate → internal/core
// — ACROSS commits, as hashplan_golden_test.go does for the hash plan and
// TestEstimatorMatchesDirectCorePath for the UDF path. Rows were captured at
// the commit before Execute, ExecuteGroups and Estimator.Estimate were given
// one shared body and must never be regenerated to make a change pass. Every
// row is asserted at parallelism 1 and 4.

func bitsOf(ci *ConfidenceInterval) string {
	if ci == nil {
		return "lo=- hi=-"
	}
	return fmt.Sprintf("lo=%016x hi=%016x", math.Float64bits(ci.Lo), math.Float64bits(ci.Hi))
}

func trueOf(tc *int) string {
	if tc == nil {
		return "-"
	}
	return fmt.Sprint(*tc)
}

func classicRow(e *Estimate) string {
	return fmt.Sprintf("count=%016x %s budget=%d evals=%d true=%s",
		math.Float64bits(e.Count), bitsOf(e.CI), e.Budget, e.SamplesUsed, trueOf(e.TrueCount))
}

func classicGroupRows(g *GroupedEstimate) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%016x budget=%d evals=%d", math.Float64bits(g.Total), g.Budget, g.SamplesUsed)
	for _, r := range g.Groups {
		fmt.Fprintf(&sb, "; %s n=%d count=%016x %s sampled=%d exact=%t true=%s", strings.Join(r.Key, ","),
			r.Objects, math.Float64bits(r.Count), bitsOf(r.CI), r.Sampled, r.Exact, trueOf(r.TrueCount))
	}
	return sb.String()
}

var goldenClassic = map[string]string{
	"lss/exact=false":    "count=4041199999999999 lo=40038048f4ee88a8 hi=40507d9751f22554 budget=40 evals=40 true=-",
	"lss/exact=true":     "count=4041199999999999 lo=40038048f4ee88a8 hi=40507d9751f22554 budget=40 evals=200 true=25",
	"lws/exact=false":    "count=4040ac619af44d07 lo=40224cf0721ae9e8 hi=404cc5871961df94 budget=40 evals=40 true=-",
	"lws/exact=true":     "count=4040ac619af44d07 lo=40224cf0721ae9e8 hi=404cc5871961df94 budget=40 evals=200 true=25",
	"oracle/exact=false": "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 budget=40 evals=160 true=-",
	"oracle/exact=true":  "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 budget=40 evals=320 true=25",
	"qlac/exact=false":   "count=4044b512bb512bb5 lo=- hi=- budget=40 evals=40 true=-",
	"qlac/exact=true":    "count=4044b512bb512bb5 lo=- hi=- budget=40 evals=200 true=25",
	"qlcc/exact=false":   "count=4043000000000000 lo=- hi=- budget=40 evals=40 true=-",
	"qlcc/exact=true":    "count=4043000000000000 lo=- hi=- budget=40 evals=200 true=25",
	"srs/exact=false":    "count=4038000000000000 lo=40213cea8227a04b hi=4043b0c55f7617ed budget=40 evals=40 true=-",
	"srs/exact=true":     "count=4038000000000000 lo=40213cea8227a04b hi=4043b0c55f7617ed budget=40 evals=200 true=25",
	"ssn/exact=false":    "count=4035ffffffffffff lo=400721078b154201 hi=40448def874eabe0 budget=40 evals=40 true=-",
	"ssn/exact=true":     "count=4035ffffffffffff lo=400721078b154201 hi=40448def874eabe0 budget=40 evals=200 true=25",
	"ssp/exact=false":    "count=403c555555555554 lo=402d060fe6a0b415 hi=404513d15bad2850 budget=40 evals=40 true=-",
	"ssp/exact=true":     "count=403c555555555554 lo=402d060fe6a0b415 hi=404513d15bad2850 budget=40 evals=200 true=25",
}

var goldenClassicGroups = map[string]string{
	"lss/exact=false":    "total=404ef00000000000 budget=45 evals=45; east n=90 count=403fe00000000000 lo=402f0e3393773818 hi=40481c731b2231fa sampled=21 exact=false true=-; north n=30 count=4031a00000000000 lo=400ad56030658fb4 hi=403d000000000000 sampled=12 exact=false true=-; west n=30 count=4028c00000000000 lo=3ff211965e423888 hi=40379ee69a1bdc78 sampled=12 exact=false true=-",
	"lss/exact=true":     "total=404ef00000000000 budget=45 evals=195; east n=90 count=403fe00000000000 lo=402f0e3393773818 hi=40481c731b2231fa sampled=21 exact=false true=33; north n=30 count=4031a00000000000 lo=400ad56030658fb4 hi=403d000000000000 sampled=12 exact=false true=11; west n=30 count=4028c00000000000 lo=3ff211965e423888 hi=40379ee69a1bdc78 sampled=12 exact=false true=10",
	"oracle/exact=false": "total=404b000000000000 budget=45 evals=150; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=-; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=-; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=-",
	"oracle/exact=true":  "total=404b000000000000 budget=45 evals=300; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=33; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=11; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=10",
	"srs/exact=false":    "total=404ecec4ec4ec4ed budget=45 evals=46; east n=90 count=40414ec4ec4ec4ed lo=403457e682d82ae4 hi=4048719697317467 sampled=26 exact=false true=-; north n=30 count=4028000000000000 lo=4011bdc2ae34afb0 hi=4033908f5472d415 sampled=10 exact=false true=-; west n=30 count=402e000000000000 lo=401d1e0702ce5eca hi=4036b87e3f4c684e sampled=10 exact=false true=-",
	"srs/exact=true":     "total=404ecec4ec4ec4ed budget=45 evals=196; east n=90 count=40414ec4ec4ec4ed lo=403457e682d82ae4 hi=4048719697317467 sampled=26 exact=false true=33; north n=30 count=4028000000000000 lo=4011bdc2ae34afb0 hi=4033908f5472d415 sampled=10 exact=false true=11; west n=30 count=402e000000000000 lo=401d1e0702ce5eca hi=4036b87e3f4c684e sampled=10 exact=false true=10",
}

func TestClassicGoldenExecute(t *testing.T) {
	for _, method := range Methods() {
		for _, exact := range []bool{false, true} {
			for _, p := range []int{1, 4} {
				name := fmt.Sprintf("%s/exact=%t", method, exact)
				t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
					sess, err := NewSession(NewMemorySource(testTable(t, 160, 7)),
						WithMethod(method), WithBudget(0.25), WithSeed(11))
					if err != nil {
						t.Fatal(err)
					}
					q, err := sess.Prepare(skybandQuery)
					if err != nil {
						t.Fatal(err)
					}
					est, err := q.Execute(context.Background(), map[string]any{"k": 8}, WithExact(exact), WithParallelism(p))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := classicRow(est), goldenClassic[name]; got != want {
						t.Errorf("fixed-seed output moved:\n got %q: %q,\nwant %s", name, got, want)
					}
				})
			}
		}
	}
}

func TestClassicGoldenExecuteGroups(t *testing.T) {
	for _, method := range GroupMethods() {
		for _, exact := range []bool{false, true} {
			for _, p := range []int{1, 4} {
				name := fmt.Sprintf("%s/exact=%t", method, exact)
				t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
					sess := groupedSession(t, 150, WithMethod(method), WithBudget(0.3), WithSeed(5))
					q, err := sess.Prepare(groupedSQL)
					if err != nil {
						t.Fatal(err)
					}
					res, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20}, WithExact(exact), WithParallelism(p))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := classicGroupRows(res), goldenClassicGroups[name]; got != want {
						t.Errorf("fixed-seed output moved:\n got %q: %q,\nwant %s", name, got, want)
					}
				})
			}
		}
	}
}
