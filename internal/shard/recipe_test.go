package shard

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLearnSize(t *testing.T) {
	for _, c := range []struct{ budget, want int }{
		{40, 10}, {10, 3}, {8, 2}, {5, 2}, {4, 2}, {1000, 250},
	} {
		got, err := LearnSize(c.budget)
		if err != nil || got != c.want {
			t.Errorf("LearnSize(%d) = %d, %v; want %d", c.budget, got, err, c.want)
		}
	}
	if _, err := LearnSize(3); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("LearnSize(3) error = %v, want ErrBudgetTooSmall", err)
	}
}

func TestEqualCountCutsAndStratumOf(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4}
	cuts := EqualCountCuts(scores, 4)
	want := []float64{0.2, 0.4, 0.7}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	sizes := make([]int, 4)
	for _, s := range scores {
		sizes[StratumOf(cuts, s)]++
	}
	for h, n := range sizes {
		if n != 2 {
			t.Errorf("stratum %d holds %d of 8 scores, want 2 (sizes %v)", h, n, sizes)
		}
	}
}

// panicky is a Worker whose Label panics — the driver-level model of a
// compiled predicate dividing by zero on some row.
type panicky struct{ Worker }

func (panicky) Label(context.Context, []int64) ([]bool, int, error) {
	panic("qcompile: division by zero")
}

// counting records that a worker's Label ran to completion.
type counting struct {
	Worker
	done *atomic.Int64
}

func (c counting) Label(ctx context.Context, keys []int64) ([]bool, int, error) {
	labels, fresh, err := c.Worker.Label(ctx, keys)
	c.done.Add(1)
	return labels, fresh, err
}

// TestDriveContainsWorkerPanic: a panic on one shard's scatter goroutine
// is that shard's error — the process survives, the error names the
// shard, and the other shards' calls of the same round still complete.
func TestDriveContainsWorkerPanic(t *testing.T) {
	workers := testWorkers(300, 3, false)
	var done atomic.Int64
	for s := range workers {
		if s == 1 {
			workers[s] = panicky{workers[s]}
		} else {
			workers[s] = counting{workers[s], &done}
		}
	}
	_, err := Drive(context.Background(), testPlan("srs", false), workers)
	if err == nil {
		t.Fatal("Drive succeeded although shard 1 panicked")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("error %q does not name the shard and the panic", err)
	}
	if done.Load() != 2 {
		t.Errorf("%d of the 2 healthy shards finished their label round, want 2", done.Load())
	}
}

// labelCount wraps every worker so the test can see how many labels a
// drive asked for.
func labelCount(workers []Worker, n *atomic.Int64) []Worker {
	out := make([]Worker, len(workers))
	for i, w := range workers {
		out[i] = keyCounting{w, n}
	}
	return out
}

type keyCounting struct {
	Worker
	n *atomic.Int64
}

func (c keyCounting) Label(ctx context.Context, keys []int64) ([]bool, int, error) {
	c.n.Add(int64(len(keys)))
	return c.Worker.Label(ctx, keys)
}

// scoreTap records every score a drive's workers reply with, by key.
type scoreTap struct {
	Worker
	mu     *sync.Mutex
	scores map[int64]float64
}

func (s scoreTap) ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	out, err := s.Worker.ScoreAll(ctx, x, y, clfSeed)
	s.mu.Lock()
	for _, sc := range out {
		s.scores[sc.Key] = sc.Score
	}
	s.mu.Unlock()
	return out, err
}

// driveTapped runs the plan over n objects on the given shard count and
// returns the result, how many labels the drive asked its workers for, and
// every object's classifier score.
func driveTapped(t *testing.T, plan Plan, n, shards int) (*Result, int64, map[int64]float64) {
	t.Helper()
	var labels atomic.Int64
	scores := make(map[int64]float64, n)
	var mu sync.Mutex
	workers := labelCount(testWorkers(n, shards, false), &labels)
	for i, w := range workers {
		workers[i] = scoreTap{w, &mu, scores}
	}
	res, err := Drive(context.Background(), plan, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != n {
		t.Fatalf("drive scored %d of %d objects", len(scores), n)
	}
	return res, labels.Load(), scores
}

// strataOf places every scored object the way run.stratify does.
func strataOf(scores map[int64]float64, H int) map[int64]int {
	flat := make([]float64, 0, len(scores))
	for _, s := range scores {
		flat = append(flat, s)
	}
	cuts := EqualCountCuts(flat, H)
	out := make(map[int64]int, len(scores))
	for k, s := range scores {
		out[k] = StratumOf(cuts, s)
	}
	return out
}

// TestDriveReusesDesign: a design is the learn sample's keys and the labels
// the classifier was trained on — O(budget), no score in it. Handing a
// Result's design back in the plan labels only the estimation sample, refits
// the forest from the stored labels, and so reproduces every object's score
// and the estimate bit for bit at any worker count; a design that does not
// describe this plan's learn sample is ignored and retrained; and the
// stored labels are really what trains — flip one and the strata move.
func TestDriveReusesDesign(t *testing.T) {
	plan := testPlan("lss", false)
	for _, n := range []int{300, 10000} {
		cold, coldLabels, coldScores := driveTapped(t, plan, n, 1)
		kLearn, _ := LearnSize(cold.Budget)
		d := cold.Design
		if d == nil || d.KLearn != kLearn || len(d.Keys) != kLearn || len(d.Labels) != kLearn {
			t.Fatalf("n=%d: cold run reported design %+v, want the %d learn keys and their labels", n, d, kLearn)
		}

		for _, shards := range []int{1, 3} {
			warmPlan := plan
			warmPlan.Design = d
			warm, warmLabels, warmScores := driveTapped(t, warmPlan, n, shards)
			if warm.Design != d {
				t.Errorf("n=%d shards=%d: matching design was not reused", n, shards)
			}
			if math.Float64bits(warm.Count) != math.Float64bits(cold.Count) ||
				math.Float64bits(warm.CILo) != math.Float64bits(cold.CILo) ||
				math.Float64bits(warm.CIHi) != math.Float64bits(cold.CIHi) {
				t.Errorf("n=%d shards=%d: reuse moved the estimate: %v [%v,%v], want %v [%v,%v]",
					n, shards, warm.Count, warm.CILo, warm.CIHi, cold.Count, cold.CILo, cold.CIHi)
			}
			if want := int64(cold.Budget - kLearn); warmLabels != want {
				t.Errorf("n=%d shards=%d: reuse labeled %d keys, want only the %d-key estimation sample", n, shards, warmLabels, want)
			}
			for k, want := range coldScores {
				if got := warmScores[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d shards=%d: refit scored key %d at %v, the cold run at %v", n, shards, k, got, want)
				}
			}
		}

		otherKeys := append([]int64(nil), d.Keys...)
		otherKeys[0], otherKeys[1] = otherKeys[1], otherKeys[0] // same set, not the bottom-k order
		stale := map[string]*Design{
			"other learn size":   {KLearn: kLearn + 1, Keys: d.Keys, Labels: d.Labels},
			"other learn keys":   {KLearn: kLearn, Keys: otherKeys, Labels: d.Labels},
			"wrong label length": {KLearn: kLearn, Keys: d.Keys, Labels: d.Labels[:kLearn-1]},
		}
		for name, sd := range stale {
			stalePlan := plan
			stalePlan.Design = sd
			got, gotLabels, _ := driveTapped(t, stalePlan, n, 1)
			if got.Design == sd {
				t.Errorf("n=%d %s: stale design was reused", n, name)
			}
			if gotLabels != coldLabels {
				t.Errorf("n=%d %s: retrain labeled %d keys, the cold run %d", n, name, gotLabels, coldLabels)
			}
			if got.Count != cold.Count || got.CILo != cold.CILo || got.CIHi != cold.CIHi {
				t.Errorf("n=%d %s: retrain diverged from the cold run", n, name)
			}
		}

		flipped := &Design{KLearn: kLearn, Keys: d.Keys, Labels: append([]bool(nil), d.Labels...)}
		flipped.Labels[0] = !flipped.Labels[0]
		flipPlan := plan
		flipPlan.Design = flipped
		got, _, flipScores := driveTapped(t, flipPlan, n, 1)
		if got.Design != flipped {
			t.Fatalf("n=%d: a design over the plan's own learn keys was not used", n)
		}
		H := StrataCount(plan.Strata)
		was, now := strataOf(coldScores, H), strataOf(flipScores, H)
		moved := 0
		for k, h := range was {
			if now[k] != h {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("n=%d: one flipped training label moved no object's stratum — the stored labels are not what trains", n)
		}
	}
}
