package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/predicate"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// goldenInstance is the fixed object set of the golden rows: a learnable
// circle of positives in two features, partitioned into K size-skewed groups
// (each about half the previous one's size, so the last is rare).
func goldenInstance(N, K int, seed uint64) (*ObjectSet, []int) {
	r := xrand.New(seed)
	features := make([][]float64, N)
	labels := make([]bool, N)
	groupOf := make([]int, N)
	for i := 0; i < N; i++ {
		x, y := r.Float64()*4-2, r.Float64()*4-2
		g, u, mass := 0, r.Float64(), 0.5
		for g < K-1 && u > mass {
			u -= mass
			mass /= 2
			g++
		}
		features[i] = []float64{x, y}
		groupOf[i] = g
		labels[i] = x*x+y*y <= 1.2+0.15*float64(g)
	}
	obj, err := NewObjectSet(features, predicate.NewLabels(labels))
	if err != nil {
		panic(err)
	}
	return obj, groupOf
}

func goldenBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenResult renders what a run answered — or the error it returned — with
// every float as its bit pattern.
func goldenResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := fmt.Sprintf("est=%s lo=%s hi=%s ci=%t evals=%d train=%d scored=%d", goldenBits(res.Estimate),
		goldenBits(res.CI.Lo), goldenBits(res.CI.Hi), res.HasCI, res.Evals, res.Learn.TrainRows, res.Learn.Scored)
	if res.Design.Algo != "" {
		s += " design=" + res.Design.Algo
	}
	if res.Design.Fallback != "" {
		s += fmt.Sprintf(" fallback=%q", res.Design.Fallback)
	}
	return s
}

func goldenGroups(res *GroupedResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := fmt.Sprintf("evals=%d", res.Evals)
	for _, g := range res.Groups {
		s += fmt.Sprintf(" {%d %s %s %s %t %d %d %t}", g.N, goldenBits(g.Estimate), goldenBits(g.CI.Lo),
			goldenBits(g.CI.Hi), g.HasCI, g.Sampled, g.Positives, g.Exact)
	}
	return s
}

// TestGoldenFixedSeed pins, bit for bit, the configurations only
// internal/experiment and this package's tests reach (the SDK's are pinned by
// lsample's classic goldens). The rows were captured at the parent of the PR
// that gave the methods their shared frame, learn step and second stage —
// never regenerate one to make a change pass. A missing row fails with the
// line to add.
func TestGoldenFixedSeed(t *testing.T) {
	const N, K = 400, 7
	obj, groupOf := goldenInstance(N, K, 42)
	classifiers := []struct {
		name string
		fn   NewClassifierFunc
	}{{"forest", ForestClassifier(1)}, {"knn", knnSpec}}

	type plainCase struct {
		name    string
		build   func(NewClassifierFunc) Method
		learned bool
		full    bool // also run at budget = N
	}
	lss := func(name string, cfg LSS) plainCase {
		return plainCase{name: "lss/" + name, learned: true, full: name == "default", build: func(c NewClassifierFunc) Method {
			m := cfg
			m.NewClassifier = c
			return &m
		}}
	}
	lws := func(name string, cfg LWS) plainCase {
		return plainCase{name: "lws/" + name, learned: true, full: name == "default", build: func(c NewClassifierFunc) Method {
			m := cfg
			m.NewClassifier = c
			return &m
		}}
	}
	fixed := func(name string, m Method) plainCase {
		return plainCase{name: name, full: true, build: func(NewClassifierFunc) Method { return m }}
	}
	cases := []plainCase{
		fixed("srs/default", &SRS{}),
		fixed("srs/wilson", &SRS{Wilson: true}),
		fixed("ssp/strata=4", &SSP{Strata: 4}),
		fixed("ssp/strata=9", &SSP{Strata: 9}),
		fixed("ssn/default", &SSN{}),
		fixed("oracle", Oracle{}),
		lws("default", LWS{}),
		lws("epsilon=.001", LWS{Epsilon: .001}),
		lws("epsilon=.2", LWS{Epsilon: .2}),
		lws("with-replacement", LWS{WithReplacement: true}),
		lws("stop=.05", LWS{StopRelWidth: .05}),
		lws("train=.1", LWS{TrainFrac: .1}),
		lws("augment", LWS{Augment: true}),
		lws("augment+rounds=2", LWS{Augment: true, Rounds: 2}),
		lss("default", LSS{}),
		lss("layout=fixed-width", LSS{Layout: LayoutFixedWidth}),
		lss("layout=fixed-height", LSS{Layout: LayoutEqualCount}),
		lss("alloc=proportional", LSS{Alloc: AllocProportional}),
		lss("algo=dirsol", LSS{Algo: DesignDirSol, Strata: 3}),
		lss("algo=logbdr", LSS{Algo: DesignLogBdr}),
		lss("algo=dynpgm", LSS{Algo: DesignDynPgm}),
		lss("algo=dynpgmp", LSS{Algo: DesignDynPgmP}),
		lss("strata=3", LSS{Strata: 3}),
		lss("strata=4", LSS{Strata: 4}),
		lss("strata=8", LSS{Strata: 8}),
		lss("train=.4", LSS{TrainFrac: .4}),
		lss("augment+rounds=2", LSS{Augment: true, Rounds: 2}),
		lss("tight-constraints", LSS{Constraints: &stratify.Constraints{MinStratumSize: 60, MinPilotPerStratum: 5}}),
		{name: "qlcc/default", learned: true, full: true, build: func(c NewClassifierFunc) Method { return &QLCC{NewClassifier: c} }},
		{name: "qlcc/augment", learned: true, build: func(c NewClassifierFunc) Method { return &QLCC{NewClassifier: c, Augment: true} }},
		{name: "qlcc/augment+rounds=2", learned: true, build: func(c NewClassifierFunc) Method {
			return &QLCC{NewClassifier: c, Augment: true, Rounds: 2}
		}},
		{name: "qlac/default", learned: true, full: true, build: func(c NewClassifierFunc) Method { return &QLAC{NewClassifier: c} }},
		{name: "qlac/augment", learned: true, build: func(c NewClassifierFunc) Method { return &QLAC{NewClassifier: c, Augment: true} }},
		{name: "qlac/augment+rounds=2", learned: true, build: func(c NewClassifierFunc) Method {
			return &QLAC{NewClassifier: c, Augment: true, Rounds: 2}
		}},
	}
	grouped := []struct {
		name    string
		build   func(NewClassifierFunc) GroupedMethod
		learned bool
	}{
		{name: "grouped-srs/default", build: func(NewClassifierFunc) GroupedMethod { return &GroupedSRS{} }},
		{name: "grouped-srs/wilson", build: func(NewClassifierFunc) GroupedMethod { return &GroupedSRS{Wilson: true} }},
		{name: "grouped-lss/default", learned: true, build: func(c NewClassifierFunc) GroupedMethod { return &GroupedLSS{NewClassifier: c} }},
		{name: "grouped-lss/strata=6+wilson", learned: true, build: func(c NewClassifierFunc) GroupedMethod {
			return &GroupedLSS{NewClassifier: c, Strata: 6, Wilson: true}
		}},
		{name: "grouped-oracle", build: func(NewClassifierFunc) GroupedMethod { return GroupedOracle{} }},
	}

	seen := map[string]bool{}
	check := func(key, got string) {
		t.Helper()
		seen[key] = true
		want, ok := goldenRows[key]
		switch {
		case !ok:
			t.Errorf("no golden row; add:\n\t%q: %q,", key, got)
		case got != want:
			t.Errorf("%s\n got %s\nwant %s", key, got, want)
		}
	}
	for _, seed := range []uint64{11, 12} {
		for _, c := range cases {
			for ci, clf := range classifiers {
				if !c.learned && ci > 0 {
					continue
				}
				for _, budget := range []int{100, N} {
					if budget == N && !c.full {
						continue
					}
					key := fmt.Sprintf("%s/seed=%d/b=%d", c.name, seed, budget)
					if c.learned {
						key = fmt.Sprintf("%s/%s/seed=%d/b=%d", c.name, clf.name, seed, budget)
					}
					check(key, goldenResult(c.build(clf.fn).Estimate(context.Background(), obj, budget, xrand.New(seed))))
				}
			}
		}
		for _, c := range grouped {
			for ci, clf := range classifiers {
				if !c.learned && ci > 0 {
					continue
				}
				for _, budget := range []int{100, N} {
					key := fmt.Sprintf("%s/seed=%d/b=%d", c.name, seed, budget)
					if c.learned {
						key = fmt.Sprintf("%s/%s/seed=%d/b=%d", c.name, clf.name, seed, budget)
					}
					check(key, goldenGroups(c.build(clf.fn).EstimateGroups(context.Background(), obj, groupOf, K, budget, xrand.New(seed))))
				}
			}
		}
	}
	for key := range goldenRows {
		if !seen[key] {
			t.Errorf("golden row %q matches no case", key)
		}
	}
}

// goldenRows: key -> the run's answer, floats as bit patterns.
var goldenRows = map[string]string{
	"grouped-lss/default/forest/seed=11/b=100":         "evals=126 {209 4048a08208208208 4037f7a057c16c2b 4052a299f23026fd true 50 12 false} {92 4031aaaaaaaaaaab 4000000000000000 4040c8019404896f true 27 5 false} {53 402565965965965a 3ff0000000000000 4036ed347b9eed42 true 10 3 false} {21 4010cccccccccccd 3fd5b0e06e5fb239 40201f45c959cf3b true 10 2 false} {11 400199999999999a 3ff566dfdfca0a74 40087fc3434e2dfa true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/forest/seed=11/b=400":         "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/forest/seed=12/b=100":         "evals=127 {209 404dd96596596597 4040b4b797d94c66 40557f09ca6cbf64 true 57 14 false} {92 4024c71c71c71c72 0000000000000000 40378d2f911c7e46 true 23 2 false} {53 4018e38e38e38e39 3ff0000000000000 402f2b96fb9811b2 true 12 2 false} {21 4010cccccccccccd 3fd5b0e06e5fb239 40201f45c959cf3b true 10 2 false} {11 400a666666666666 40027f01a2402c53 401126e59546503d true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/forest/seed=12/b=400":         "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/knn/seed=11/b=100":            "evals=122 {209 4049000000000000 403a4aaef50f96d5 40526d5442bc1a4b true 51 12 false} {92 4031aaaaaaaaaaab 4000000000000000 4040c8019404896f true 24 5 false} {53 4026e38e38e38e39 3ff0000000000000 40384a4e40f51a28 true 10 3 false} {21 4010cccccccccccd 3fd5b0e06e5fb239 40201f45c959cf3b true 10 2 false} {11 400199999999999a 3ff566dfdfca0a74 40087fc3434e2dfa true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/knn/seed=11/b=400":            "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/knn/seed=12/b=100":            "evals=121 {209 4043c71c71c71c72 403221eafbf957a7 404e7d4365918d10 true 51 10 false} {92 402f555555555556 3fdbbcf27443f580 403ee6618b844580 true 21 3 false} {53 4015e79e79e79e7a 3ff0000000000000 402aaee05c1246a6 true 11 2 false} {21 4010cccccccccccd 3fd5b0e06e5fb239 40201f45c959cf3b true 10 2 false} {11 400a666666666666 40027f01a2402c53 401126e59546503d true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/default/knn/seed=12/b=400":            "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/forest/seed=11/b=100": "evals=129 {209 4048f55555555556 40388eaa574a1b27 4052d1aabf82ce8c true 49 12 false} {92 403c400000000000 40233cc7083c38e6 404770ce3df0f1c6 true 27 7 false} {53 4026d55555555556 3ff0000000000000 4038a0272841ceaa true 18 3 false} {21 4019333333333333 40021be3073325f4 402955d76345401d true 10 3 false} {11 400a666666666666 3ff2f8a4b2359579 401a8ab0e1e70636 true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/forest/seed=11/b=400": "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/forest/seed=12/b=100": "evals=138 {209 4051722222222222 4044c2326b64585c 4058832b0e921816 true 55 16 false} {92 4022e66666666666 0000000000000000 403560e27a55b98c true 22 2 false} {53 40304ec4ec4ec4ed 401ae2124d0a12ed 403e8b53d82bddeb true 13 4 false} {21 4000cccccccccccd 3fd8068fb6c0d482 4020f96bcc6e0c90 true 10 1 false} {11 400a666666666666 3ff2f8a4b2359579 401a8ab0e1e70636 true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/forest/seed=12/b=400": "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/knn/seed=11/b=100":    "evals=124 {209 4046600000000000 40368ccc50019772 4050bcccebff9a24 true 49 11 false} {92 403c2aaaaaaaaaab 4020b696473602ee 4047fd0518dd29f0 true 27 7 false} {53 4019000000000000 3ff0000000000000 402f58c0cbef9e82 true 11 2 false} {21 4019333333333333 40021be3073325f4 402955d76345401d true 10 3 false} {11 400a666666666666 3ff2f8a4b2359579 401a8ab0e1e70636 true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/knn/seed=11/b=400":    "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/knn/seed=12/b=100":    "evals=123 {209 4041355555555556 402b39bedd24ee1a 404b9c3af3616f26 true 58 9 false} {92 4034c00000000000 40049e142b33ec18 4043761ebd4cc13e true 15 4 false} {53 4019000000000000 3ff0000000000000 402f58c0cbef9e82 true 14 2 false} {21 4020cccccccccccd 400c411980b25afa 402cde21b25c6e12 true 10 4 false} {11 400a666666666666 3ff2f8a4b2359579 401a8ab0e1e70636 true 10 3 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-lss/strata=6+wilson/knn/seed=12/b=400":    "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-oracle/seed=11/b=100":                     "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-oracle/seed=11/b=400":                     "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-oracle/seed=12/b=100":                     "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-oracle/seed=12/b=400":                     "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/default/seed=11/b=100":                "evals=123 {209 404b17b425ed097b 40408c7611ed7ba2 4052d1791cf64baa true 54 14 false} {92 40408f5c28f5c28f 403244446cebb9cc 4047fc961b75a838 true 25 9 false} {53 4025333333333334 0000000000000000 40368c701f1f496d true 10 2 false} {21 4000cccccccccccd 0000000000000000 4013fbb57ad383a6 true 10 1 false} {11 400199999999999a 3ff566dfdfca0a74 40087fc3434e2dfa true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/default/seed=11/b=400":                "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/default/seed=12/b=100":                "evals=125 {209 403c227627627627 402694723f31d218 40467d59979601a1 true 52 7 false} {92 40306db6db6db6dc 4015ef24a6c16be9 403b5fa48d2b12bd true 28 5 false} {53 401345d1745d1746 0000000000000000 4029d20850724c40 true 11 1 false} {21 4010cccccccccccd 3fd5b0e06e5fb239 40201f45c959cf3b true 10 2 false} {11 400199999999999a 3ff566dfdfca0a74 40087fc3434e2dfa true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/default/seed=12/b=400":                "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/wilson/seed=11/b=100":                 "evals=123 {209 404b17b425ed097b 4040d80fdbfd239a 405457655a9c3975 true 54 14 false} {92 40408f5c28f5c28f 4032a0c7e7c06fd2 404985806fc01b9d true 25 9 false} {53 4025333333333334 40080881e813b516 403b0579c004401c true 10 2 false} {21 4000cccccccccccd 3fd8068fb6c0d482 4020f96bcc6e0c90 true 10 1 false} {11 400199999999999a 3fe3f3bdf5ccbcfa 40166ecf56f509c0 true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/wilson/seed=11/b=400":                 "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/wilson/seed=12/b=100":                 "evals=125 {209 403c227627627627 402be8cc2de541d9 404a691e5d43885c true 52 7 false} {92 40306db6db6db6dc 401cfe2dda580fab 40405f3f05dc9ade true 28 5 false} {53 401345d1745d1746 3feb879eb16eaada 4033ffffcfe1c0b5 true 11 1 false} {21 4010cccccccccccd 3ff30b926aa085d7 402569c5ea46fdac true 10 2 false} {11 400199999999999a 3fe3f3bdf5ccbcfa 40166ecf56f509c0 true 10 2 false} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"grouped-srs/wilson/seed=12/b=400":                 "evals=400 {209 4046000000000000 4046000000000000 4046000000000000 true 209 44 true} {92 4034000000000000 4034000000000000 4034000000000000 true 92 20 true} {53 4028000000000000 4028000000000000 4028000000000000 true 53 12 true} {21 4014000000000000 4014000000000000 4014000000000000 true 21 5 true} {11 4008000000000000 4008000000000000 4008000000000000 true 11 3 true} {6 3ff0000000000000 3ff0000000000000 3ff0000000000000 true 6 1 true} {8 4014000000000000 4014000000000000 4014000000000000 true 8 5 true}",
	"lss/algo=dirsol/forest/seed=11/b=100":             "est=4053c3981dae6077 lo=40480650b6b3c8e8 hi=405b8407e002dc7b ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/algo=dirsol/forest/seed=12/b=100":             "est=4053bd65aa4224be lo=40438b52ea69d671 hi=405db521df4f5e44 ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/algo=dirsol/knn/seed=11/b=100":                "est=40557ff57f57f57f lo=404e949caed0628a hi=405bb59ca747b9b8 ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/algo=dirsol/knn/seed=12/b=100":                "est=405e495555555556 lo=4054813ae855ab17 hi=406408b7e12a7fca ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/algo=dynpgm/forest/seed=11/b=100":             "est=40544ec4ec4ec4ec lo=404ed88614567e05 hi=40593146ce724ad6 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/algo=dynpgm/forest/seed=12/b=100":             "est=40508d82d82d82d8 lo=403c3cd9b946c988 hi=405a0bcf4209534f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/algo=dynpgm/knn/seed=11/b=100":                "est=405391f07c1f07c1 lo=404f1dfe98554396 hi=405794e1ac136db8 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/algo=dynpgm/knn/seed=12/b=100":                "est=40545bb8d015e75c lo=40499c7771539ad1 hi=405be935e782014f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/algo=dynpgmp/forest/seed=11/b=100":            "est=4057e4d9364d9366 lo=404f5112e2126f82 hi=406010947dc8f786 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/algo=dynpgmp/forest/seed=12/b=100":            "est=40500b240795ceb2 lo=40380b84b5118250 hi=405a1366e1e73cd1 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/algo=dynpgmp/knn/seed=11/b=100":               "est=405a407c1f07c1f0 lo=4051dbca00ae390b hi=406152971eb0a56a ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/algo=dynpgmp/knn/seed=12/b=100":               "est=40575345d1745d18 lo=40502a878891d169 hi=405e7c041a56e8c7 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/algo=logbdr/forest/seed=11/b=100":             "est=405d525982af70c8 lo=4054959114b88251 hi=40630790f8532f9f ci=true evals=100 train=25 scored=375 design=logbdr",
	"lss/algo=logbdr/forest/seed=12/b=100":             "est=40508d82d82d82d8 lo=403c3cd9b946c988 hi=405a0bcf4209534f ci=true evals=100 train=25 scored=375 design=logbdr",
	"lss/algo=logbdr/knn/seed=11/b=100":                "est=405391f07c1f07c1 lo=404f1dfe98554396 hi=405794e1ac136db8 ci=true evals=100 train=25 scored=375 design=logbdr",
	"lss/algo=logbdr/knn/seed=12/b=100":                "est=40545bb8d015e75c lo=40499c7771539ad1 hi=405be935e782014f ci=true evals=100 train=25 scored=375 design=logbdr",
	"lss/alloc=proportional/forest/seed=11/b=100":      "est=4057577777777778 lo=405014ae5c51b5b9 hi=405e9a40929d3936 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/alloc=proportional/forest/seed=12/b=100":      "est=404d0a28a28a28a3 lo=40355b08907cfb3d hi=4057b3667e6ae9d3 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/alloc=proportional/knn/seed=11/b=100":         "est=405b82f42f42f42e lo=4053f48afe8a4bd8 hi=406188aeaffdce42 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/alloc=proportional/knn/seed=12/b=100":         "est=405afe43aabb5af1 lo=4051128ded4b9d04 hi=406274fcb4158c6f ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/augment+rounds=2/forest/seed=11/b=100":        "est=4055e2be2be2be2c lo=4049c82a2945a13c hi=405ee1674322abba ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/augment+rounds=2/forest/seed=12/b=100":        "est=4058c00000000001 lo=40505ab9febfaf97 hi=406092a300a02835 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/augment+rounds=2/knn/seed=11/b=100":           "est=40536db6db6db6dc lo=4048ede5267fd800 hi=405a647b239b81b7 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/augment+rounds=2/knn/seed=12/b=100":           "est=4054011111111112 lo=404775062f000d75 hi=405c479f0aa21b69 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/default/forest/seed=11/b=100":                 "est=40544ec4ec4ec4ec lo=404ed88614567e05 hi=40593146ce724ad6 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/default/forest/seed=11/b=400":                 "est=4056ccfc4a33f128 lo=40553e4ed1fa78aa hi=40585ba9c26d69a6 ci=true evals=400 train=100 scored=300 design=dynpgm",
	"lss/default/forest/seed=12/b=100":                 "est=40508d82d82d82d8 lo=403c3cd9b946c988 hi=405a0bcf4209534f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/default/forest/seed=12/b=400":                 "est=40561642c8590b22 lo=40545e2dd309a311 hi=4057ce57bda87332 ci=true evals=400 train=100 scored=300 design=dynpgm",
	"lss/default/knn/seed=11/b=100":                    "est=405391f07c1f07c1 lo=404f1dfe98554396 hi=405794e1ac136db8 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/default/knn/seed=11/b=400":                    "est=4058154b82f0864b lo=4056c9e22622691f hi=405960b4dfbea376 ci=true evals=400 train=100 scored=300 design=dynpgm",
	"lss/default/knn/seed=12/b=100":                    "est=40545bb8d015e75c lo=40499c7771539ad1 hi=405be935e782014f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/default/knn/seed=12/b=400":                    "est=405674de9bd37a6f lo=4054bb492414f923 hi=40582e741391fbbb ci=true evals=400 train=100 scored=300 design=dynpgm",
	"lss/layout=fixed-height/forest/seed=11/b=100":     "est=405592aaaaaaaaaa lo=4048e56cd0451bd4 hi=405eb29eed32c76a ci=true evals=100 train=25 scored=375 design=fixed-height",
	"lss/layout=fixed-height/forest/seed=12/b=100":     "est=40564742a2b5ce45 lo=404a572ed3cc54ab hi=405f62eddb857235 ci=true evals=100 train=25 scored=375 design=fixed-height",
	"lss/layout=fixed-height/knn/seed=11/b=100":        "est=4054cc9660abdc32 lo=4048bbe4b2de8ce7 hi=405d3b3a67e871f0 ci=true evals=100 train=25 scored=375 design=fixed-height",
	"lss/layout=fixed-height/knn/seed=12/b=100":        "est=405338ec4ec4ec4f lo=404514ecb8a9b317 hi=405be7624134ff13 ci=true evals=100 train=25 scored=375 design=fixed-height",
	"lss/layout=fixed-width/forest/seed=11/b=100":      "est=405b9f7df7df7df8 lo=405324f16b87af2f hi=40620d05421ba660 ci=true evals=100 train=25 scored=375 design=fixed-width",
	"lss/layout=fixed-width/forest/seed=12/b=100":      "est=405ca9c71c71c71d lo=405066a60f1a61e2 hi=4064767414e4962b ci=true evals=100 train=25 scored=375 design=fixed-width",
	"lss/layout=fixed-width/knn/seed=11/b=100":         "est=40568d89d89d89d9 lo=405025132a44d584 hi=405cf60086f63e2e ci=true evals=100 train=25 scored=375 design=fixed-width",
	"lss/layout=fixed-width/knn/seed=12/b=100":         "est=405943bbbbbbbbbb lo=40524dc2e681ff97 hi=40601cda487abbf0 ci=true evals=100 train=25 scored=375 design=fixed-width",
	"lss/strata=3/forest/seed=11/b=100":                "est=4053c3981dae6077 lo=40480650b6b3c8e8 hi=405b8407e002dc7b ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/strata=3/forest/seed=12/b=100":                "est=4053bd65aa4224be lo=40438b52ea69d671 hi=405db521df4f5e44 ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/strata=3/knn/seed=11/b=100":                   "est=40557ff57f57f57f lo=404e949caed0628a hi=405bb59ca747b9b8 ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/strata=3/knn/seed=12/b=100":                   "est=405e495555555556 lo=4054813ae855ab17 hi=406408b7e12a7fca ci=true evals=100 train=25 scored=375 design=dirsol",
	"lss/strata=4/forest/seed=11/b=100":                "est=40544ec4ec4ec4ec lo=404ed88614567e05 hi=40593146ce724ad6 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/strata=4/forest/seed=12/b=100":                "est=40508d82d82d82d8 lo=403c3cd9b946c988 hi=405a0bcf4209534f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/strata=4/knn/seed=11/b=100":                   "est=405391f07c1f07c1 lo=404f1dfe98554396 hi=405794e1ac136db8 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/strata=4/knn/seed=12/b=100":                   "est=40545bb8d015e75c lo=40499c7771539ad1 hi=405be935e782014f ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/strata=8/forest/seed=11/b=100":                "est=40575d41d41d41d4 lo=404a213e983c6d8b hi=4060d4f22e0e2671 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/strata=8/forest/seed=12/b=100":                "est=4048541d41d41d42 lo=4028f6ce2763f52c hi=405535437ce79e9c ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/strata=8/knn/seed=11/b=100":                   "est=405a0db6db6db6da lo=4051793293c10d24 hi=4061511d918d3048 ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/strata=8/knn/seed=12/b=100":                   "est=4059a86511f407fa lo=40504206030da417 hi=40618762106d35ee ci=true evals=100 train=25 scored=375 design=dynpgmp",
	"lss/tight-constraints/forest/seed=11/b=100":       "est=405592aaaaaaaaaa lo=4048e56cd0451bd4 hi=405eb29eed32c76a ci=true evals=100 train=25 scored=375 design=fixed-height fallback=\"dynpgm: stratify: DynPgm found no feasible 4-stratification\"",
	"lss/tight-constraints/forest/seed=12/b=100":       "est=4053166666666666 lo=404494d84e967fc1 hi=405be260a5818ceb ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/tight-constraints/knn/seed=11/b=100":          "est=4054cc9660abdc32 lo=4048bbe4b2de8ce7 hi=405d3b3a67e871f0 ci=true evals=100 train=25 scored=375 design=fixed-height fallback=\"dynpgm: stratify: DynPgm found no feasible 4-stratification\"",
	"lss/tight-constraints/knn/seed=12/b=100":          "est=40503b6db6db6db7 lo=403eb7272874e865 hi=4058c911a399a154 ci=true evals=100 train=25 scored=375 design=dynpgm",
	"lss/train=.4/forest/seed=11/b=100":                "est=4059eb7bb681d65b lo=4051d0d4ba11f0f0 hi=406103115978dde3 ci=true evals=100 train=40 scored=360 design=dynpgm",
	"lss/train=.4/forest/seed=12/b=100":                "est=40551e4129e4129e lo=4048dadae589122d hi=405dcf14e1039c26 ci=true evals=100 train=40 scored=360 design=dynpgm",
	"lss/train=.4/knn/seed=11/b=100":                   "est=405522e8ba2e8ba3 lo=404da210d0c3c27d hi=405b74c90bfb3608 ci=true evals=100 train=40 scored=360 design=dynpgm",
	"lss/train=.4/knn/seed=12/b=100":                   "est=4054336db6db6db7 lo=404635dc884f5459 hi=405d4bed298f3142 ci=true evals=100 train=40 scored=360 design=dynpgm",
	"lws/augment+rounds=2/forest/seed=11/b=100":        "est=4052289f3e6c0e3f lo=404b469021ad5d73 hi=4056adf66c016dc4 ci=true evals=100 train=25 scored=375",
	"lws/augment+rounds=2/forest/seed=12/b=100":        "est=40554b129aac3bdf lo=404a7d054f7fca18 hi=405d57a28d9892b2 ci=true evals=100 train=25 scored=375",
	"lws/augment+rounds=2/knn/seed=11/b=100":           "est=40542e4e8d5b85cd lo=404ecb35165614ac hi=4058f7028f8c0144 ci=true evals=100 train=25 scored=375",
	"lws/augment+rounds=2/knn/seed=12/b=100":           "est=4058db6d7447e869 lo=40536a22112fc5f9 hi=405e4cb8d7600ada ci=true evals=100 train=25 scored=375",
	"lws/augment/forest/seed=11/b=100":                 "est=4059331f99166912 lo=4052d2baee0653cd hi=405f938444267e57 ci=true evals=100 train=25 scored=375",
	"lws/augment/forest/seed=12/b=100":                 "est=405cccf11a2a866f lo=404226d72efd2ecc hi=4068433b4e6b3abb ci=true evals=100 train=25 scored=375",
	"lws/augment/knn/seed=11/b=100":                    "est=405521c1d4f24d17 lo=4050437fb9178e70 hi=405a0003f0cd0bbe ci=true evals=100 train=25 scored=375",
	"lws/augment/knn/seed=12/b=100":                    "est=4057931c71c71c84 lo=405277fb01dba331 hi=405cae3de1b295d6 ci=true evals=100 train=25 scored=375",
	"lws/default/forest/seed=11/b=100":                 "est=40598918cb91d0f0 lo=40543791ec6601a7 hi=405eda9faabda039 ci=true evals=100 train=25 scored=375",
	"lws/default/forest/seed=11/b=400":                 "est=40565456388bbe58 lo=4055f45a6c764244 hi=4056b45204a13a6c ci=true evals=400 train=100 scored=300",
	"lws/default/forest/seed=12/b=100":                 "est=404b82a1e9db741c lo=404251cd583694e6 hi=405259bb3dc029aa ci=true evals=100 train=25 scored=375",
	"lws/default/forest/seed=12/b=400":                 "est=4056a0fed6d65555 lo=405625ecc779b4f0 hi=40571c10e632f5bb ci=true evals=400 train=100 scored=300",
	"lws/default/knn/seed=11/b=100":                    "est=405648ae08d443a3 lo=405195f00bc9eea7 hi=405afb6c05de989f ci=true evals=100 train=25 scored=375",
	"lws/default/knn/seed=11/b=400":                    "est=405724ed9d0f1076 lo=40568116667ce432 hi=4057c8c4d3a13cba ci=true evals=400 train=100 scored=300",
	"lws/default/knn/seed=12/b=100":                    "est=40543a91ba010062 lo=405093cf1127154e hi=4057e15462daeb76 ci=true evals=100 train=25 scored=375",
	"lws/default/knn/seed=12/b=400":                    "est=4056789c604d2ff4 lo=4055b9002a31aa3c hi=405738389668b5ac ci=true evals=400 train=100 scored=300",
	"lws/epsilon=.001/forest/seed=11/b=100":            "est=4059d8770cf5fcfa lo=405488e6150c9f07 hi=405f280804df5aed ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.001/forest/seed=12/b=100":            "est=4050990d40b8d46d lo=404061d535cff1e6 hi=4059012fe689afe7 ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.001/knn/seed=11/b=100":               "est=4054dfe9ca634e3c lo=405045e090afae03 hi=405979f30416ee76 ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.001/knn/seed=12/b=100":               "est=40528c7854d52c9c lo=404ec5f3afa10129 hi=4055b5f6d1d9d8a3 ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.2/forest/seed=11/b=100":              "est=4058844aa4f9b331 lo=4051819404b282b3 hi=405f87014540e3ae ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.2/forest/seed=12/b=100":              "est=4057506507b60cc7 lo=404cea0eb7c4e874 hi=406015e159c4d2aa ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.2/knn/seed=11/b=100":                 "est=4057a950c83fb745 lo=4050e30f70319148 hi=405e6f92204ddd43 ci=true evals=100 train=25 scored=375",
	"lws/epsilon=.2/knn/seed=12/b=100":                 "est=405dafac42723bac lo=405481c7624b425f hi=40636ec8914c9a7d ci=true evals=100 train=25 scored=375",
	"lws/stop=.05/forest/seed=11/b=100":                "est=40598918cb91d0f0 lo=40543791ec6601a7 hi=405eda9faabda039 ci=true evals=100 train=25 scored=375",
	"lws/stop=.05/forest/seed=12/b=100":                "est=404b82a1e9db741c lo=404251cd583694e6 hi=405259bb3dc029aa ci=true evals=100 train=25 scored=375",
	"lws/stop=.05/knn/seed=11/b=100":                   "est=405648ae08d443a3 lo=405195f00bc9eea7 hi=405afb6c05de989f ci=true evals=100 train=25 scored=375",
	"lws/stop=.05/knn/seed=12/b=100":                   "est=40543a91ba010062 lo=405093cf1127154e hi=4057e15462daeb76 ci=true evals=100 train=25 scored=375",
	"lws/train=.1/forest/seed=11/b=100":                "est=405248623299fff4 lo=404851fde82b773b hi=405867c5711e444a ci=true evals=100 train=10 scored=390",
	"lws/train=.1/forest/seed=12/b=100":                "est=40560030307111b1 lo=404f7c9d381b1b79 hi=405c4211c4d495a6 ci=true evals=100 train=10 scored=390",
	"lws/train=.1/knn/seed=11/b=100":                   "est=40559483fb72ea8d lo=404daa5bc894f0fe hi=405c53da129b5c9b ci=true evals=100 train=10 scored=390",
	"lws/train=.1/knn/seed=12/b=100":                   "est=405a46c16c16c19d lo=4052cf3cd75043bd hi=4060df23006e9fbf ci=true evals=100 train=10 scored=390",
	"lws/with-replacement/forest/seed=11/b=100":        "est=405bfe30b29cda45 lo=40553e916d7d846b hi=40615ee7fbde180f ci=true evals=100 train=25 scored=375",
	"lws/with-replacement/forest/seed=12/b=100":        "est=404fffabe52bb50c lo=4043b3a31b994198 hi=405625da575f143f ci=true evals=100 train=25 scored=375",
	"lws/with-replacement/knn/seed=11/b=100":           "est=405ae54ec79c9ab0 lo=4055332cc4d2ffce hi=40604bb865331ac9 ci=true evals=100 train=25 scored=375",
	"lws/with-replacement/knn/seed=12/b=100":           "est=405497126e978d67 lo=404f8d5a9717192e hi=4059677791a38e36 ci=true evals=100 train=25 scored=375",
	"oracle/seed=11/b=100":                             "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"oracle/seed=11/b=400":                             "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"oracle/seed=12/b=100":                             "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"oracle/seed=12/b=400":                             "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"qlac/augment+rounds=2/forest/seed=11/b=100":       "est=405645d1745d1746 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment+rounds=2/forest/seed=12/b=100":       "est=4052beea4e1a08ae lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment+rounds=2/knn/seed=11/b=100":          "est=405697a285d7a286 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment+rounds=2/knn/seed=12/b=100":          "est=40550d79435e50d8 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment/forest/seed=11/b=100":                "est=405288d3dcb08d3e lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment/forest/seed=12/b=100":                "est=40580ae4c415c988 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment/knn/seed=11/b=100":                   "est=405401765d9765d9 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/augment/knn/seed=12/b=100":                   "est=4055e00000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/default/forest/seed=11/b=100":                "est=40588c6afc2dd9cb lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/default/forest/seed=11/b=400":                "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlac/default/forest/seed=12/b=100":                "est=406293568fa798de lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/default/forest/seed=12/b=400":                "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlac/default/knn/seed=11/b=100":                   "est=40566515885fb370 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/default/knn/seed=11/b=400":                   "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlac/default/knn/seed=12/b=100":                   "est=405e879c5e18e879 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlac/default/knn/seed=12/b=400":                   "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlcc/augment+rounds=2/forest/seed=11/b=100":       "est=4055c00000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment+rounds=2/forest/seed=12/b=100":       "est=4055800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment+rounds=2/knn/seed=11/b=100":          "est=4056400000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment+rounds=2/knn/seed=12/b=100":          "est=4054800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment/forest/seed=11/b=100":                "est=4056000000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment/forest/seed=12/b=100":                "est=4057800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment/knn/seed=11/b=100":                   "est=4055c00000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/augment/knn/seed=12/b=100":                   "est=4054800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/default/forest/seed=11/b=100":                "est=4055c00000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/default/forest/seed=11/b=400":                "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlcc/default/forest/seed=12/b=100":                "est=4053800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/default/forest/seed=12/b=400":                "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlcc/default/knn/seed=11/b=100":                   "est=4056c00000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/default/knn/seed=11/b=400":                   "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"qlcc/default/knn/seed=12/b=100":                   "est=4053800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=100 train=100 scored=0",
	"qlcc/default/knn/seed=12/b=400":                   "est=4056800000000000 lo=0000000000000000 hi=0000000000000000 ci=false evals=400 train=400 scored=0",
	"srs/default/seed=11/b=100":                        "est=405b000000000000 lo=40537473a9c2cd58 hi=406145c62b1e9955 ci=true evals=100 train=0 scored=0",
	"srs/default/seed=11/b=400":                        "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"srs/default/seed=12/b=100":                        "est=4050000000000000 lo=404389fdc69e5197 hi=40563b011cb0d735 ci=true evals=100 train=0 scored=0",
	"srs/default/seed=12/b=400":                        "est=4056800000000000 lo=4056800000000000 hi=4056800000000000 ci=true evals=400 train=0 scored=0",
	"srs/wilson/seed=11/b=100":                         "est=405b000000000000 lo=405345037781f34b hi=4062374f9a2d3041 ci=true evals=100 train=0 scored=0",
	"srs/wilson/seed=11/b=400":                         "est=4056800000000000 lo=4052ae338caa1af1 hi=405ad7bb53410f55 ci=true evals=400 train=0 scored=0",
	"srs/wilson/seed=12/b=100":                         "est=4050000000000000 lo=404430c9a71e341f hi=40586b96c6526cf4 ci=true evals=100 train=0 scored=0",
	"srs/wilson/seed=12/b=400":                         "est=4056800000000000 lo=4052ae338caa1af1 hi=405ad7bb53410f55 ci=true evals=400 train=0 scored=0",
	"ssn/default/seed=11/b=100":                        "est=405750722149b581 lo=404bd7f0210a46d1 hi=40605a76190723cc ci=true evals=100 train=0 scored=0",
	"ssn/default/seed=11/b=400":                        "est=40551077b7c3aec5 lo=405270e23fae4c9b hi=4057b00d2fd910ee ci=true evals=400 train=0 scored=0",
	"ssn/default/seed=12/b=100":                        "est=4050e333b1729202 lo=4041bc333a461cae hi=4058e84dc5c215ad ci=true evals=100 train=0 scored=0",
	"ssn/default/seed=12/b=400":                        "est=4056db0cbc5b7671 lo=4054219537858161 hi=4059948441316b81 ci=true evals=400 train=0 scored=0",
	"ssp/strata=4/seed=11/b=100":                       "est=4059c9048409ec07 lo=405245eee20c800f hi=4060a60d1303abff ci=true evals=100 train=0 scored=0",
	"ssp/strata=4/seed=11/b=400":                       "est=40567fffffffffff lo=40567fffff55bde4 hi=4056800000aa421a ci=true evals=400 train=0 scored=0",
	"ssp/strata=4/seed=12/b=100":                       "est=4059276a3cc2f67b lo=40519a2074724ab3 hi=40605a5a0289d121 ci=true evals=100 train=0 scored=0",
	"ssp/strata=4/seed=12/b=400":                       "est=40567fffffffffff lo=40567fffff55bde4 hi=4056800000aa421a ci=true evals=400 train=0 scored=0",
	"ssp/strata=9/seed=11/b=100":                       "est=40572d80c6980c6a lo=4051c790fbc75899 hi=405c93709168c03b ci=true evals=100 train=0 scored=0",
	"ssp/strata=9/seed=11/b=400":                       "est=4056800000000000 lo=40567fffffba7d5a hi=40568000004582a7 ci=true evals=400 train=0 scored=0",
	"ssp/strata=9/seed=12/b=100":                       "est=40562c8888888889 lo=405124dc95f2356e hi=405b34347b1edba3 ci=true evals=100 train=0 scored=0",
	"ssp/strata=9/seed=12/b=400":                       "est=4056800000000000 lo=40567fffffba7d5a hi=40568000004582a7 ci=true evals=400 train=0 scored=0",
}
