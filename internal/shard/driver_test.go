package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// testPred is the deterministic stand-in for the expensive predicate.
func testPred(k int64) bool { return (k*2654435761)%97 < 30 }

// testWorkers partitions a synthetic population of n objects into
// hash-aligned Local workers. Features are derived from the key so lss
// has something to learn; groups (when asked) split the population three
// ways.
func testWorkers(n, shards int, grouped bool) []Worker {
	trainer := NewTrainer(core.ForestClassifier(1))
	keys := make([][]int64, shards)
	feats := make([][][]float64, shards)
	groups := make([][]string, shards)
	parts := map[string][]string{"g0": {"g0"}, "g1": {"g1"}, "g2": {"g2"}}
	for i := 0; i < n; i++ {
		k := int64(i*3 + 1)
		s := OwnerOf(k, shards)
		keys[s] = append(keys[s], k)
		feats[s] = append(feats[s], []float64{float64(k % 17), float64(k % 5)})
		if grouped {
			groups[s] = append(groups[s], fmt.Sprintf("g%d", i%3))
		}
	}
	out := make([]Worker, shards)
	for s := 0; s < shards; s++ {
		label := func(ctx context.Context, sel []int64) ([]bool, int, error) {
			labels := make([]bool, len(sel))
			for j, k := range sel {
				labels[j] = testPred(k)
			}
			return labels, len(sel), nil
		}
		var g []string
		if grouped {
			g = groups[s]
		}
		out[s] = NewLocal(5, keys[s], feats[s], g, parts, label, trainer)
	}
	return out
}

func testPlan(method string, grouped bool) Plan {
	return Plan{
		Method:  method,
		Grouped: grouped,
		BudgetOf: func(n int) int {
			b := int(math.Round(0.2 * float64(n)))
			if b < 10 {
				b = 10
			}
			if b > n {
				b = n
			}
			return b
		},
		Strata: 4,
		Seed:   5,
	}
}

// TestDriveByteIdenticalAcrossShardCounts pins the merge identity at the
// driver level: every method's result at 2, 3, and 5 shards equals the
// single-shard run byte for byte.
func TestDriveByteIdenticalAcrossShardCounts(t *testing.T) {
	const n = 300
	for _, method := range []string{"srs", "lss", "oracle"} {
		for _, grouped := range []bool{false, true} {
			name := method
			if grouped {
				name += "/grouped"
			}
			t.Run(name, func(t *testing.T) {
				plan := testPlan(method, grouped)
				plan.Exact = true
				ref, err := Drive(context.Background(), plan, testWorkers(n, 1, grouped))
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, 5} {
					got, err := Drive(context.Background(), plan, testWorkers(n, shards, grouped))
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if got.Count != ref.Count || got.CILo != ref.CILo || got.CIHi != ref.CIHi {
						t.Errorf("shards=%d: %v [%v,%v], want %v [%v,%v]",
							shards, got.Count, got.CILo, got.CIHi, ref.Count, ref.CILo, ref.CIHi)
					}
					if got.TrueCount != ref.TrueCount || got.N != ref.N || got.Budget != ref.Budget {
						t.Errorf("shards=%d: true/N/budget %d/%d/%d, want %d/%d/%d",
							shards, got.TrueCount, got.N, got.Budget, ref.TrueCount, ref.N, ref.Budget)
					}
					if len(got.Groups) != len(ref.Groups) {
						t.Fatalf("shards=%d: %d groups, want %d", shards, len(got.Groups), len(ref.Groups))
					}
					for i := range ref.Groups {
						rg, gg := ref.Groups[i], got.Groups[i]
						if gg.Key != rg.Key || gg.Count != rg.Count || gg.CILo != rg.CILo ||
							gg.CIHi != rg.CIHi || gg.N != rg.N || gg.Sampled != rg.Sampled {
							t.Errorf("shards=%d group %q diverged: %+v vs %+v", shards, rg.Key, gg, rg)
						}
					}
				}
			})
		}
	}
}

// lossy wraps a Worker and fails configured ops with a LostShardError —
// the driver-level model of a crashed or unreachable worker.
type lossy struct {
	Worker
	id       int
	failMeta bool
	failOps  bool
}

func (l *lossy) err() error {
	return &LostShardError{Shard: l.id, Err: errors.New("injected shard loss")}
}

func (l *lossy) Meta(ctx context.Context) (Meta, error) {
	if l.failMeta {
		return Meta{}, l.err()
	}
	return l.Worker.Meta(ctx)
}

func (l *lossy) Cands(ctx context.Context, k int, tag uint64) ([]Cand, error) {
	if l.failOps {
		return nil, l.err()
	}
	return l.Worker.Cands(ctx, k, tag)
}

func (l *lossy) Label(ctx context.Context, keys []int64) ([]bool, int, error) {
	if l.failOps {
		return nil, 0, l.err()
	}
	return l.Worker.Label(ctx, keys)
}

func (l *lossy) Features(ctx context.Context, keys []int64) ([][]float64, error) {
	if l.failOps {
		return nil, l.err()
	}
	return l.Worker.Features(ctx, keys)
}

func (l *lossy) ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	if l.failOps {
		return nil, l.err()
	}
	return l.Worker.ScoreAll(ctx, x, y, clfSeed)
}

func (l *lossy) GroupKeys(ctx context.Context) ([]Scored, error) {
	if l.failOps {
		return nil, l.err()
	}
	return l.Worker.GroupKeys(ctx)
}

func (l *lossy) CountAll(ctx context.Context) (Tally, error) {
	if l.failOps {
		return Tally{}, l.err()
	}
	return l.Worker.CountAll(ctx)
}

// TestDriveDegradedPlain loses one shard after the census: with
// AllowDegraded the answer comes back scaled and widened (never silently
// partial), without it the query fails with ErrShardLost.
func TestDriveDegradedPlain(t *testing.T) {
	const n, shards = 300, 4
	for _, method := range []string{"srs", "lss", "oracle"} {
		t.Run(method, func(t *testing.T) {
			workers := testWorkers(n, shards, false)
			dead := &lossy{Worker: workers[2], id: 2, failOps: true}
			workers[2] = dead

			plan := testPlan(method, false)
			if _, err := Drive(context.Background(), plan, workers); !errors.Is(err, ErrShardLost) {
				t.Fatalf("without AllowDegraded: err = %v, want ErrShardLost", err)
			}

			plan.AllowDegraded = true
			plan.Exact = true
			res, err := Drive(context.Background(), plan, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded {
				t.Fatal("result not marked degraded")
			}
			if len(res.Lost) != 1 || res.Lost[0] != 2 {
				t.Fatalf("Lost = %v, want [2]", res.Lost)
			}
			if res.N != n {
				t.Fatalf("N = %d, want the full population %d", res.N, n)
			}
			if res.HasTrue {
				t.Fatal("degraded answer must not claim a true count")
			}
			if !res.HasCI || res.CIHi > float64(n) || res.CILo < 0 || res.CILo > res.CIHi {
				t.Fatalf("degraded CI invalid: [%v, %v]", res.CILo, res.CIHi)
			}
			// The interval must have absorbed the lost mass: compare with a
			// clean run's width.
			clean, err := Drive(context.Background(), testPlan(method, false), testWorkers(n, shards, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.CIHi-res.CILo <= clean.CIHi-clean.CILo {
				t.Fatalf("degraded interval [%v,%v] no wider than clean [%v,%v]",
					res.CILo, res.CIHi, clean.CILo, clean.CIHi)
			}
			if res.Count <= 0 || res.Count > float64(n) {
				t.Fatalf("degraded count %v out of range", res.Count)
			}
		})
	}
}

// TestDriveDegradedGrouped checks the grouped degraded contract: every
// census group survives in the answer, and a group's interval widens by
// exactly its own lost membership.
func TestDriveDegradedGrouped(t *testing.T) {
	const n, shards = 300, 4
	workers := testWorkers(n, shards, true)
	workers[1] = &lossy{Worker: workers[1], id: 1, failOps: true}
	plan := testPlan("lss", true)
	plan.AllowDegraded = true
	res, err := Drive(context.Background(), plan, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Lost) != 1 || res.Lost[0] != 1 {
		t.Fatalf("degraded/lost = %t/%v", res.Degraded, res.Lost)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("got %d groups, want all 3 census groups", len(res.Groups))
	}
	totalN := 0
	for _, g := range res.Groups {
		totalN += g.N
		if !g.HasCI || g.CIHi > float64(g.N) || g.CILo < 0 {
			t.Fatalf("group %q: invalid CI [%v, %v] for N=%d", g.Key, g.CILo, g.CIHi, g.N)
		}
		if g.HasTrue {
			t.Fatalf("group %q claims a true count while degraded", g.Key)
		}
	}
	if totalN != n {
		t.Fatalf("group census sums to %d, want %d", totalN, n)
	}
}

// TestDriveCensusLossFatal: a shard lost before reporting its size can
// never be absorbed — its population is unknown — so the query fails even
// with AllowDegraded.
func TestDriveCensusLossFatal(t *testing.T) {
	workers := testWorkers(100, 3, false)
	workers[0] = &lossy{Worker: workers[0], id: 0, failMeta: true}
	plan := testPlan("srs", false)
	plan.AllowDegraded = true
	if _, err := Drive(context.Background(), plan, workers); !errors.Is(err, ErrShardLost) {
		t.Fatalf("err = %v, want ErrShardLost", err)
	}
}

// TestDriveAllShardsLost: losing everything is an error, not an empty
// answer.
func TestDriveAllShardsLost(t *testing.T) {
	workers := testWorkers(100, 2, false)
	for i := range workers {
		workers[i] = &lossy{Worker: workers[i], id: i, failOps: true}
	}
	plan := testPlan("srs", false)
	plan.AllowDegraded = true
	if _, err := Drive(context.Background(), plan, workers); err == nil {
		t.Fatal("losing every shard should fail")
	}
}

// TestDriveRejectsUnknownMethod pins the no-fallback rule at the driver.
func TestDriveRejectsUnknownMethod(t *testing.T) {
	if _, err := Drive(context.Background(), Plan{Method: "ssp"}, testWorkers(10, 1, false)); err == nil {
		t.Fatal("ssp should be rejected")
	}
	if _, err := Drive(context.Background(), Plan{Method: "srs"}, nil); err == nil {
		t.Fatal("no workers should be rejected")
	}
}
