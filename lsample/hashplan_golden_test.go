package lsample

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// The golden table pins fixed-seed output of the hash-plan recipe ACROSS
// commits: the determinism matrices prove that layouts agree with each
// other at one commit, this proves that a refactor of the executor did not
// move any sampling, labeling, or reuse decision. Rows were captured at
// the commit before catalog, sharded, and refresh estimation were folded
// into internal/shard's recipe and must never be regenerated to make a
// change pass.
//
// One redefinition since: ISSUE 25 made every catalog entry a label memo
// keyed without a plan, which redefined the catalog table's evals, reused
// and reuse columns — reused counts the stores' memo hits on every layout,
// reuse is what the memo answered (none / extension / direct), and a
// changed Q3 parameter labels its own learn sample — and re-recorded them
// once. Every count, lo and hi bit pattern is the original capture. The
// unsharded and three-shard rows agreed in those and now agree in all six
// fields, so each scenario is stored once and asserted on both layouts.
//
// A second one: since the catalog keys a HAVING COUNT(*) < k predicate's
// labels by the predicate without k, the q3-param rows' k=12 count finds
// the labels k=8's walks settle (every object with fewer than 8 dominators)
// and buys only the rest, so their evals and reused columns were
// re-recorded; their count, lo and hi are the original capture.
//
// The refresh table's three relabel rows are gone: each duplicated its
// retrain row's count, lo and hi at evals = that row's evals + reused.

// goldenRow renders the fields the contract covers; floats as IEEE-754
// bits so the comparison is byte-exact.
func goldenRow(e *Estimate) string {
	return fmt.Sprintf("count=%016x lo=%016x hi=%016x evals=%d reused=%d reuse=%s",
		math.Float64bits(e.Count), math.Float64bits(e.CI.Lo), math.Float64bits(e.CI.Hi),
		e.SamplesUsed, e.ReusedLabels, e.Reuse)
}

type goldenStep struct {
	k      int
	budget float64
	exact  bool
}

// goldenScenarios run against a fresh catalog each; the last step's
// estimate is the recorded row. The WithExact scenario covers the sampled
// methods only: the oracle is already a full pass, and how often the old
// catalog path re-read the memoized population for it (twice) was never
// part of the contract.
var goldenScenarios = []struct {
	name  string
	steps []goldenStep
}{
	{"cold", []goldenStep{{k: 8, budget: 0.25}}},
	{"repeat", []goldenStep{{k: 8, budget: 0.25}, {k: 8, budget: 0.25}}},
	{"extension", []goldenStep{{k: 8, budget: 0.25}, {k: 8, budget: 0.5}}},
	{"smaller", []goldenStep{{k: 8, budget: 0.5}, {k: 8, budget: 0.25}}},
	{"q3-param", []goldenStep{{k: 8, budget: 0.25}, {k: 12, budget: 0.25}}},
	{"exact-repeat", []goldenStep{{k: 8, budget: 0.25}, {k: 8, budget: 0.25, exact: true}}},
}

var goldenCatalog = map[string]string{
	"srs/cold":         "count=403c000000000000 lo=402743f5b9e92f84 hi=40462f029185b41f evals=40 reused=0 reuse=none",
	"srs/repeat":       "count=403c000000000000 lo=402743f5b9e92f84 hi=40462f029185b41f evals=0 reused=40 reuse=direct",
	"srs/extension":    "count=4038000000000000 lo=402e3d5172fb01e6 hi=404070aba3413f86 evals=40 reused=40 reuse=extension",
	"srs/smaller":      "count=403c000000000000 lo=402743f5b9e92f84 hi=40462f029185b41f evals=0 reused=40 reuse=direct",
	"srs/q3-param":     "count=4040000000000000 lo=402d8a243480dc8f hi=40489d76f2dfc8dd evals=33 reused=7 reuse=extension",
	"srs/exact-repeat": "count=403c000000000000 lo=402743f5b9e92f84 hi=40462f029185b41f evals=120 reused=80 reuse=extension",
	"lss/cold":         "count=403b24924924924a lo=402c4353a42508d0 hi=404413bd601b5016 evals=39 reused=1 reuse=none",
	"lss/repeat":       "count=403b24924924924a lo=402c4353a42508d0 hi=404413bd601b5016 evals=0 reused=40 reuse=direct",
	"lss/extension":    "count=40352c9b26c9b26c lo=40253c9c270841ac hi=403fbae83a0f4402 evals=31 reused=49 reuse=extension",
	"lss/smaller":      "count=403b24924924924a lo=402c4353a42508d0 hi=404413bd601b5016 evals=0 reused=40 reuse=direct",
	"lss/q3-param":     "count=40405b6db6db6db7 lo=403012dea407a474 hi=4048ad6c1bb30933 evals=33 reused=7 reuse=extension",
	"lss/exact-repeat": "count=403b24924924924a lo=402c4353a42508d0 hi=404413bd601b5016 evals=121 reused=79 reuse=extension",
	"oracle/cold":      "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 evals=160 reused=0 reuse=none",
	"oracle/repeat":    "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 evals=0 reused=160 reuse=direct",
	"oracle/extension": "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 evals=0 reused=160 reuse=direct",
	"oracle/smaller":   "count=4039000000000000 lo=4039000000000000 hi=4039000000000000 evals=0 reused=160 reuse=direct",
	"oracle/q3-param":  "count=4042000000000000 lo=4042000000000000 hi=4042000000000000 evals=132 reused=28 reuse=extension",
}

func TestHashPlanGoldenCatalogAndShards(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for _, method := range GroupMethods() { // srs, lss, oracle
			for _, sc := range goldenScenarios {
				if method == "oracle" && sc.name == "exact-repeat" {
					continue
				}
				name := fmt.Sprintf("shards=%d/%s/%s", shards, method, sc.name)
				t.Run(name, func(t *testing.T) {
					q, _ := catalogSession(t, 160, 7, WithMethod(method), WithSeed(11))
					var last *Estimate
					for _, st := range sc.steps {
						opts := []Option{WithBudget(st.budget), WithExact(st.exact)}
						if shards > 0 {
							opts = append(opts, WithShards(shards))
						}
						est, err := q.Execute(context.Background(), map[string]any{"k": st.k}, opts...)
						if err != nil {
							t.Fatal(err)
						}
						last = est
					}
					if got, want := goldenRow(last), goldenCatalog[method+"/"+sc.name]; got != want {
						t.Errorf("fixed-seed output moved:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

var goldenRefresh = map[string]string{
	"srs/cold":       "count=407ae00000000000 lo=40751e6797b34d43 hi=408050cc3426595e evals=100 reused=0 reuse= retrained=false",
	"srs/append":     "count=407ae00000000000 lo=407518eb40fdfd26 hi=4080538a5f81016c evals=1 reused=100 reuse= retrained=false",
	"srs/retrain":    "count=4082c00000000000 lo=407eded585a9e82c hi=408610953d2b0bea evals=33 reused=98 reuse= retrained=false",
	"lss/cold":       "count=4079adb48f757ce9 lo=4072ba91a4c43389 hi=4080506bbd136324 evals=99 reused=1 reuse= retrained=true",
	"lss/append":     "count=4079b8a38990fc94 lo=4072c6bc028affae hi=40805545884b7cbd evals=1 reused=100 reuse= retrained=false",
	"lss/retrain":    "count=4080ba621cdb4f90 lo=40798d37177de623 hi=4084ae28adf7ac0e evals=58 reused=73 reuse= retrained=true",
	"oracle/cold":    "count=4078d00000000000 lo=4078d00000000000 hi=4078d00000000000 evals=1000 reused=0 reuse= retrained=false",
	"oracle/append":  "count=4079200000000000 lo=4079200000000000 hi=4079200000000000 evals=10 reused=1000 reuse= retrained=false",
	"oracle/retrain": "count=4080680000000000 lo=4080680000000000 hi=4080680000000000 evals=300 reused=1010 reuse= retrained=false",
}

func TestHashPlanGoldenRefresh(t *testing.T) {
	for _, method := range GroupMethods() {
		t.Run(method, func(t *testing.T) {
			w := newLiveWorkload(t, 1000, 37)
			sess := w.session(t, WithMethod(method), WithBudget(0.1), WithSeed(4), WithParallelism(1))
			lq, err := sess.PrepareLive(liveQuery)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string, opts ...Option) {
				t.Helper()
				r, err := lq.Refresh(context.Background(), nil, opts...)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				got := fmt.Sprintf("%s retrained=%t", goldenRow(&r.Estimate), r.Retrained)
				if want := goldenRefresh[method+"/"+step]; got != want {
					t.Errorf("%s: fixed-seed output moved:\n got %s\nwant %s", step, got, want)
				}
			}
			check("cold")
			w.appendItems(t, 10) // 1% append
			check("append")
			w.appendItems(t, 300) // 30% append, past the 0.1 churn threshold
			check("retrain")
		})
	}
}

// goldenGroups pins the hash plan's GROUP BY answers (groupedSQL over
// groupedTable, k = 20, seed 5) across commits, as goldenCatalog does for
// plain counts: the grouped determinism matrices compare layouts with each
// other at one commit, so a rewrite of the grouped read-out could move every
// grouped answer and still pass them. Each row is classicGroupRows: the
// total's bits, the budget and SamplesUsed, then per group its key, objects,
// count / lo / hi bits, sampled, exact and true count. Budget 0.05 tops up
// every group; 0.3 at 150 rows reads "east" and "west" out of the shared
// sample. Rows
// were recorded on 2026-10-19, at the commit before the grouped read-out
// addressed groups by census position, and are never regenerated. The one-
// and three-shard layouts agreed in every field, so each row is asserted on
// both.
var goldenGroups = map[string]string{
	"40/srs/budget=0.05/exact=false":     "total=403d333333333334 budget=10 evals=28; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/srs/budget=0.05/exact=true":      "total=403d333333333334 budget=10 evals=40; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"40/srs/budget=0.3/exact=false":      "total=403d333333333334 budget=12 evals=28; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/srs/budget=0.3/exact=true":       "total=403d333333333334 budget=12 evals=40; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"40/lss/budget=0.05/exact=false":     "total=403d333333333334 budget=10 evals=28; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/lss/budget=0.05/exact=true":      "total=403d333333333334 budget=10 evals=40; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"40/lss/budget=0.3/exact=false":      "total=403d333333333334 budget=12 evals=28; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/lss/budget=0.3/exact=true":       "total=403d333333333334 budget=12 evals=40; east n=24 count=4033333333333334 lo=402d1d9e28aa12f9 hi=4037d79752115cea sampled=10 exact=false true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"40/oracle/budget=0.05/exact=false":  "total=403d000000000000 budget=10 evals=40; east n=24 count=4033000000000000 lo=4033000000000000 hi=4033000000000000 sampled=24 exact=true true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/oracle/budget=0.05/exact=true":   "total=403d000000000000 budget=10 evals=40; east n=24 count=4033000000000000 lo=4033000000000000 hi=4033000000000000 sampled=24 exact=true true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"40/oracle/budget=0.3/exact=false":   "total=403d000000000000 budget=12 evals=40; east n=24 count=4033000000000000 lo=4033000000000000 hi=4033000000000000 sampled=24 exact=true true=-; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=-; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=-",
	"40/oracle/budget=0.3/exact=true":    "total=403d000000000000 budget=12 evals=40; east n=24 count=4033000000000000 lo=4033000000000000 hi=4033000000000000 sampled=24 exact=true true=19; north n=8 count=401c000000000000 lo=401c000000000000 hi=401c000000000000 sampled=8 exact=true true=7; west n=8 count=4008000000000000 lo=4008000000000000 hi=4008000000000000 sampled=8 exact=true true=3",
	"150/srs/budget=0.05/exact=false":    "total=4049800000000000 budget=10 evals=40; east n=90 count=4042000000000000 lo=40242eba4434237a hi=404ef4516ef2f722 sampled=10 exact=false true=-; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=-; west n=30 count=4018000000000000 lo=0000000000000000 hi=40285a63987a407c sampled=10 exact=false true=-",
	"150/srs/budget=0.05/exact=true":     "total=4049800000000000 budget=10 evals=150; east n=90 count=4042000000000000 lo=40242eba4434237a hi=404ef4516ef2f722 sampled=10 exact=false true=33; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=11; west n=30 count=4018000000000000 lo=0000000000000000 hi=40285a63987a407c sampled=10 exact=false true=10",
	"150/srs/budget=0.3/exact=false":     "total=40496f1ef1ef1ef2 budget=45 evals=54; east n=90 count=403f276276276276 lo=40313290517414c9 hi=40468e1a4d6d5812 sampled=26 exact=false true=-; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=-; west n=30 count=40256db6db6db6dc lo=40147c3342a0e80d hi=40304eaa0ac57cd9 sampled=14 exact=false true=-",
	"150/srs/budget=0.3/exact=true":      "total=40496f1ef1ef1ef2 budget=45 evals=150; east n=90 count=403f276276276276 lo=40313290517414c9 hi=40468e1a4d6d5812 sampled=26 exact=false true=33; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=11; west n=30 count=40256db6db6db6dc lo=40147c3342a0e80d hi=40304eaa0ac57cd9 sampled=14 exact=false true=10",
	"150/lss/budget=0.05/exact=false":    "total=4049800000000000 budget=10 evals=39; east n=90 count=4042000000000000 lo=40242eba4434237a hi=404ef4516ef2f722 sampled=10 exact=false true=-; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=-; west n=30 count=4018000000000000 lo=0000000000000000 hi=40285a63987a407c sampled=10 exact=false true=-",
	"150/lss/budget=0.05/exact=true":     "total=4049800000000000 budget=10 evals=150; east n=90 count=4042000000000000 lo=40242eba4434237a hi=404ef4516ef2f722 sampled=10 exact=false true=33; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=11; west n=30 count=4018000000000000 lo=0000000000000000 hi=40285a63987a407c sampled=10 exact=false true=10",
	"150/lss/budget=0.3/exact=false":     "total=404c000000000000 budget=45 evals=47; east n=90 count=4042cccccccccccd lo=4037e46c42e9f730 hi=4049a76378249e02 sampled=19 exact=false true=-; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=-; west n=30 count=4022cccccccccccd lo=3fe01027ab063d06 hi=40324c4b8f749ae5 sampled=11 exact=false true=-",
	"150/lss/budget=0.3/exact=true":      "total=404c000000000000 budget=45 evals=150; east n=90 count=4042cccccccccccd lo=4037e46c42e9f730 hi=4049a76378249e02 sampled=19 exact=false true=33; north n=30 count=4022000000000000 lo=3ffec839c3e4f4fa hi=4030137c63c1b0b0 sampled=10 exact=false true=11; west n=30 count=4022cccccccccccd lo=3fe01027ab063d06 hi=40324c4b8f749ae5 sampled=11 exact=false true=10",
	"150/oracle/budget=0.05/exact=false": "total=404b000000000000 budget=10 evals=150; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=-; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=-; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=-",
	"150/oracle/budget=0.05/exact=true":  "total=404b000000000000 budget=10 evals=150; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=33; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=11; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=10",
	"150/oracle/budget=0.3/exact=false":  "total=404b000000000000 budget=45 evals=150; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=-; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=-; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=-",
	"150/oracle/budget=0.3/exact=true":   "total=404b000000000000 budget=45 evals=150; east n=90 count=4040800000000000 lo=4040800000000000 hi=4040800000000000 sampled=90 exact=true true=33; north n=30 count=4026000000000000 lo=4026000000000000 hi=4026000000000000 sampled=30 exact=true true=11; west n=30 count=4024000000000000 lo=4024000000000000 hi=4024000000000000 sampled=30 exact=true true=10",
}

func TestHashPlanGoldenGroups(t *testing.T) {
	for _, rows := range []int{40, 150} {
		for _, method := range GroupMethods() {
			for _, budget := range []float64{0.05, 0.3} {
				for _, exact := range []bool{false, true} {
					name := fmt.Sprintf("%d/%s/budget=%v/exact=%t", rows, method, budget, exact)
					for _, shards := range []int{1, 3} {
						t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
							sess := groupedSession(t, rows, WithMethod(method), WithBudget(budget), WithSeed(5))
							q, err := sess.Prepare(groupedSQL)
							if err != nil {
								t.Fatal(err)
							}
							res, err := q.ExecuteGroups(context.Background(), map[string]any{"k": 20},
								WithExact(exact), WithShards(shards))
							if err != nil {
								t.Fatal(err)
							}
							if got, want := classicGroupRows(res), goldenGroups[name]; got != want {
								t.Errorf("fixed-seed output moved:\n got %s\nwant %s", got, want)
							}
						})
					}
				}
			}
		}
	}
}
