package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/stratify"
	"repro/internal/xrand"
)

// scoreOnly hides a classifier's batch path, so learn.ScoreAll falls back
// to one Score call per object — the path QLCC and QLAC used to count by.
type scoreOnly struct{ learn.Classifier }

// TestQLCountsOnceThroughBatchPath: counting predictions from the batch
// scores gives byte-identical QLCC and QLAC estimates to scoring object by
// object (the forest sums its trees in the same order on both paths).
func TestQLCountsOnceThroughBatchPath(t *testing.T) {
	obj, _ := syntheticInstance(3000, 1.0, 41)
	single := func(seed uint64) learn.Classifier { return scoreOnly{smallForest(seed)} }
	if _, ok := single(1).(learn.BatchScorer); ok {
		t.Fatal("scoreOnly must not expose a batch path")
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		for _, pair := range [][2]Method{
			{&QLCC{NewClassifier: smallForest}, &QLCC{NewClassifier: single}},
			{&QLAC{NewClassifier: smallForest}, &QLAC{NewClassifier: single}},
		} {
			batch, err := pair[0].Estimate(context.Background(), obj, 150, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			one, err := pair[1].Estimate(context.Background(), obj, 150, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(batch.Estimate) != math.Float64bits(one.Estimate) || batch.Evals != one.Evals {
				t.Fatalf("%s seed %d: batch path %v (%d evals), per-object path %v (%d evals)",
					batch.Method, seed, batch.Estimate, batch.Evals, one.Estimate, one.Evals)
			}
		}
	}
}

// TestLSSReportsDesign: the result names the designer that produced the
// cuts, its candidate-set size and bound count, and — when the designer
// found nothing feasible — the equal-count fallback and why.
func TestLSSReportsDesign(t *testing.T) {
	obj, _ := syntheticInstance(4000, 1.0, 43)
	run := func(m *LSS) DesignInfo {
		t.Helper()
		m.NewClassifier = smallForest
		res, err := m.Estimate(context.Background(), obj, 400, xrand.New(44))
		if err != nil {
			t.Fatal(err)
		}
		return res.Design
	}
	if d := run(&LSS{}); d.Algo != "dynpgm" || d.Candidates < 4 || d.Bounds < 2 || d.Fallback != "" {
		t.Fatalf("default LSS design = %+v, want dynpgm with |B| and |T|", d)
	}
	if d := run(&LSS{Strata: 3}); d.Algo != "dirsol" || d.Candidates != 0 || d.Bounds != 0 || d.Fallback != "" {
		t.Fatalf("H=3 design = %+v, want dirsol", d)
	}
	if d := run(&LSS{Strata: 8}); d.Algo != "dynpgmp" || d.Candidates < 8 || d.Bounds != 0 {
		t.Fatalf("H=8 design = %+v, want dynpgmp (single unbounded pass)", d)
	}
	if d := run(&LSS{Layout: LayoutFixedWidth}); d.Algo != "fixed-width" || d.Fallback != "" {
		t.Fatalf("fixed-width design = %+v", d)
	}
	// No stratum can hold 3 000 of ~3 900 objects four times over.
	tight := &stratify.Constraints{MinStratumSize: 3000, MinPilotPerStratum: 2}
	d := run(&LSS{Constraints: tight})
	if d.Algo != "fixed-height" || !strings.HasPrefix(d.Fallback, "dynpgm: ") || d.Candidates != 0 {
		t.Fatalf("infeasible design = %+v, want the fixed-height fallback naming dynpgm", d)
	}
	// The same layout chosen outright: no designer ran, so nothing fell back.
	if d := run(&LSS{Layout: LayoutEqualCount}); d != (DesignInfo{Algo: "fixed-height"}) {
		t.Fatalf("fixed-height layout design = %+v", d)
	}
}

// TestLearnPhaseReportsItsSplit: every learned method reports what its
// learn phase trained on, how long the fits took (every active-learning
// round included) and — where the phase scores — how many objects it
// scored and for how long, with both parts inside Timing.Learn. The forest
// size proves the method got the classifier itself back, not the timing
// wrapper its fits ran behind; the score path says which of the forest's
// two evaluations the objects went through.
func TestLearnPhaseReportsItsSplit(t *testing.T) {
	obj, _ := syntheticInstance(3000, 1.0, 51)
	for _, tc := range []struct {
		m      Method
		scores bool
		trees  int // smallForest's 20; 0 for a classifier with no ensemble to size
	}{
		{&LSS{NewClassifier: smallForest}, true, 20},
		{&LSS{NewClassifier: smallForest, Augment: true, Rounds: 2}, true, 20},
		{&LWS{NewClassifier: smallForest}, true, 20},
		{&QLCC{NewClassifier: smallForest}, false, 20},
		{&QLAC{NewClassifier: smallForest}, false, 20},
		{&LWS{NewClassifier: knnSpec}, true, 0},
	} {
		res, err := tc.m.Estimate(context.Background(), obj, 300, xrand.New(52))
		if err != nil {
			t.Fatal(err)
		}
		l, tm := res.Learn, res.Timing
		if l.TrainRows < 2 || l.TrainRows > 300 || tm.Fit <= 0 || tm.Fit+tm.Score > tm.Learn {
			t.Fatalf("%s: learn %+v, timing %+v", res.Method, l, tm)
		}
		if tc.scores != (l.Scored == obj.N()-l.TrainRows && tm.Score > 0) || !tc.scores && (l.Scored != 0 || tm.Score != 0) {
			t.Fatalf("%s: scored %d in %v, train rows %d of %d objects", res.Method, l.Scored, tm.Score, l.TrainRows, obj.N())
		}
		if l.Trees != tc.trees || l.Nodes < l.Trees {
			t.Fatalf("%s: %d trees, %d nodes, want %d trees", res.Method, l.Trees, l.Nodes, tc.trees)
		}
		// ~2 900 rows × 20 trees is past the size rule, so a forest scored
		// through its grid — QLCC and QLAC too, whose count is the scoring.
		if p := l.Score; tc.trees == 0 && p != (learn.ScorePath{}) ||
			tc.trees > 0 && (p.Path != "grid" || p.Thresholds == 0 || p.Cells < tc.trees || p.Tuples < 1 || p.Tuples > obj.N()) {
			t.Fatalf("%s: score path %+v", res.Method, p)
		}
	}
	if res, err := (&SRS{}).Estimate(context.Background(), obj, 300, xrand.New(52)); err != nil || res.Learn != (LearnInfo{}) {
		t.Fatalf("srs learn info %+v (err %v), want zero", res.Learn, err)
	}
}
