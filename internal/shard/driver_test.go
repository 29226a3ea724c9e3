package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
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
// the driver-level model of a crashed or unreachable worker. dieAtLabel,
// when positive, lets the worker live until its n-th label call and fails
// that call and every op after it: the shard dies inside a round. (Drive
// sends a worker one call per round, so the fields need no lock.)
type lossy struct {
	Worker
	id         int
	failMeta   bool
	failOps    bool
	dieAtLabel int
	labelCalls int
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

func (l *lossy) Label(ctx context.Context, keys, rowsOf []int64) ([]bool, [][]float64, int, error) {
	if l.labelCalls++; l.labelCalls == l.dieAtLabel {
		l.failOps = true
	}
	if l.failOps {
		return nil, nil, 0, l.err()
	}
	return l.Worker.Label(ctx, keys, rowsOf)
}

func (l *lossy) ScoreAll(ctx context.Context, x [][]float64, y []bool, clfSeed uint64) ([]Scored, error) {
	if l.failOps {
		return nil, l.err()
	}
	return l.Worker.ScoreAll(ctx, x, y, clfSeed)
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

// censusGap wraps a Worker whose census omits one group that its other ops
// (ScoreAll, CountAll) still report.
type censusGap struct {
	Worker
	omit string
}

func (c censusGap) Meta(ctx context.Context) (Meta, error) {
	m, err := c.Worker.Meta(ctx)
	var kept []GroupCount
	for _, g := range m.Groups {
		if g.Key != c.omit {
			kept = append(kept, g)
		}
	}
	m.Groups = kept
	return m, err
}

// TestDriveCensusMissesGroup: a key whose group no census reported has no
// row to land in, so the count fails and names the key and the group,
// rather than answering without that group's draws.
func TestDriveCensusMissesGroup(t *testing.T) {
	keyOf := regexp.MustCompile(`key (\d+)`)
	for _, method := range []string{"srs", "lss", "oracle"} {
		t.Run(method, func(t *testing.T) {
			workers := testWorkers(300, 3, true)
			for i, w := range workers {
				workers[i] = censusGap{Worker: w, omit: "g1"}
			}
			res, err := Drive(context.Background(), testPlan(method, true), workers)
			if err == nil {
				t.Fatalf("answered %d groups without an error", len(res.Groups))
			}
			if !strings.Contains(err.Error(), `"g1"`) {
				t.Fatalf("error %q does not name group g1", err)
			}
			if method == "oracle" {
				return // a full pass tallies groups, not keys
			}
			m := keyOf.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q names no key", err)
			}
			// testWorkers puts key 3i+1 in group i mod 3.
			if k, _ := strconv.ParseInt(m[1], 10, 64); (k-1)/3%3 != 1 {
				t.Fatalf("error %q names key %d, which is not in g1", err, k)
			}
		})
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

// TestDriveLossInFusedRound kills a shard inside the two rounds that each
// stand for several of the earlier protocol's: the learn sample's label +
// feature-row round (label call 1) and the round that labels every
// stratum's sample at once (label call 2). The degraded answer is a
// function of the survivor set alone, so count/lo/hi equal — by their bits —
// what the per-stratum protocol answered when the same shard died in its
// learn round or its first stratum's round, and so do the evaluations
// bought and the labels the restart found in the driver's memo: a learn key
// labeled before the loss is asked for its feature row again, never for its
// label. The numbers were recorded at the commit before the rounds were
// fused, with shard 2 dead: it owns a key of the first stratum's sample, so
// there, too, it died before any stratum's labels reached the memo.
func TestDriveLossInFusedRound(t *testing.T) {
	const n, shards = 300, 4
	type acct struct{ used, reused int }
	for _, tc := range []struct {
		name          string
		grouped       bool
		dead          int
		count, lo, hi uint64
		byRound       [2]acct // the shard dies in label call 1, 2
		groups        [][3]uint64
	}{
		{name: "lss", dead: 2,
			count: 0x405acac48cbd452a, lo: 0x404426136ffa5778, hi: 0x4068ee7b24016a23,
			byRound: [2]acct{{41, 1}, {45, 12}}},
		{name: "lss/grouped", grouped: true, dead: 2,
			count: 0x4053ecef3002c5f0, lo: 0x40211026ed90a5da, hi: 0x40694f4c78d1340b,
			byRound: [2]acct{{50, 2}, {54, 13}},
			groups: [][3]uint64{
				{0x40446d89a0f31a53, 0x40211026ed90a5da, 0x4053b65ca8664ccb},
				{0x40333cf3cf3cf3cf, 0x0, 0x4050231684357c0c},
				{0x4034000000000000, 0x0, 0x404d8a4b8a0d3e7e},
			}},
	} {
		for round, want := range tc.byRound {
			t.Run(fmt.Sprintf("%s/label-call-%d", tc.name, round+1), func(t *testing.T) {
				workers := testWorkers(n, shards, tc.grouped)
				workers[tc.dead] = &lossy{Worker: workers[tc.dead], id: tc.dead, dieAtLabel: round + 1}
				plan := testPlan("lss", tc.grouped)
				plan.AllowDegraded = true
				res, err := Drive(context.Background(), plan, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Degraded || len(res.Lost) != 1 || res.Lost[0] != tc.dead {
					t.Fatalf("degraded/lost = %t/%v, want shard %d lost", res.Degraded, res.Lost, tc.dead)
				}
				bits := math.Float64bits
				if bits(res.Count) != tc.count || bits(res.CILo) != tc.lo || bits(res.CIHi) != tc.hi {
					t.Errorf("count/lo/hi = %#x/%#x/%#x, want %#x/%#x/%#x",
						bits(res.Count), bits(res.CILo), bits(res.CIHi), tc.count, tc.lo, tc.hi)
				}
				if res.SamplesUsed != want.used || res.ReusedLabels != want.reused {
					t.Errorf("SamplesUsed/ReusedLabels = %d/%d, want %d/%d",
						res.SamplesUsed, res.ReusedLabels, want.used, want.reused)
				}
				if len(res.Groups) != len(tc.groups) {
					t.Fatalf("%d groups, want %d", len(res.Groups), len(tc.groups))
				}
				for i, g := range res.Groups {
					if w := tc.groups[i]; bits(g.Count) != w[0] || bits(g.CILo) != w[1] || bits(g.CIHi) != w[2] {
						t.Errorf("group %q = %#x/%#x/%#x, want %#x/%#x/%#x",
							g.Key, bits(g.Count), bits(g.CILo), bits(g.CIHi), w[0], w[1], w[2])
					}
				}
			})
		}
	}
}

// TestDriveLosesTwoShards loses shards 1 and 3 of 4 in successive label
// rounds: shard 1 in the first attempt's learn round, shard 3 in the
// restart's, so the third attempt runs over a survivor set with two holes.
// The bits and the label accounting were recorded before the driver kept its
// survivors by shard id.
func TestDriveLosesTwoShards(t *testing.T) {
	for _, tc := range []struct {
		name          string
		grouped       bool
		count, lo, hi uint64
		used, reused  int
		groups        [][3]uint64
	}{
		{name: "lss",
			count: 0x40604de9bd37a6f5, lo: 0x404216722ff84de3, hi: 0x406e6b158a44b4e0,
			used: 29, reused: 2},
		{name: "lss/grouped", grouped: true,
			count: 0x405673c54ca30ead, lo: 0x402134966d0510aa, hi: 0x406cb648804d02d6,
			used: 55, reused: 6,
			groups: [][3]uint64{
				{0x4044000000000000, 0x40198261f219259b, 0x4054db0d1411a0da},
				{0x403e000000000000, 0x4001cd95cfe1f772, 0x40530b2ceb1a89de},
				{0x4034000000000000, 0x0, 0x40518657016ddaf5},
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := testWorkers(300, 4, tc.grouped)
			workers[1] = &lossy{Worker: workers[1], id: 1, dieAtLabel: 1}
			workers[3] = &lossy{Worker: workers[3], id: 3, dieAtLabel: 2}
			plan := testPlan("lss", tc.grouped)
			plan.AllowDegraded = true
			res, err := Drive(context.Background(), plan, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || !reflect.DeepEqual(res.Lost, []int{1, 3}) || res.Shards != 4 {
				t.Fatalf("degraded/lost/shards = %t/%v/%d, want true/[1 3]/4", res.Degraded, res.Lost, res.Shards)
			}
			bits := math.Float64bits
			if bits(res.Count) != tc.count || bits(res.CILo) != tc.lo || bits(res.CIHi) != tc.hi {
				t.Errorf("count/lo/hi = %#x/%#x/%#x, want %#x/%#x/%#x",
					bits(res.Count), bits(res.CILo), bits(res.CIHi), tc.count, tc.lo, tc.hi)
			}
			if res.SamplesUsed != tc.used || res.ReusedLabels != tc.reused {
				t.Errorf("SamplesUsed/ReusedLabels = %d/%d, want %d/%d",
					res.SamplesUsed, res.ReusedLabels, tc.used, tc.reused)
			}
			if len(res.Groups) != len(tc.groups) {
				t.Fatalf("%d groups, want %d", len(res.Groups), len(tc.groups))
			}
			for i, g := range res.Groups {
				if w := tc.groups[i]; bits(g.Count) != w[0] || bits(g.CILo) != w[1] || bits(g.CIHi) != w[2] {
					t.Errorf("group %q = %#x/%#x/%#x, want %#x/%#x/%#x",
						g.Key, bits(g.Count), bits(g.CILo), bits(g.CIHi), w[0], w[1], w[2])
				}
			}
		})
	}
}

// TestDriveRoundBudget pins how many blocking rounds a count costs, by the
// ops that cross each worker's wire (protocol_test.go's wired). Every
// scatter sends a worker at most one call, and at this size every shard owns
// keys of every selection, so the calls one worker received are the rounds
// Drive ran: the census, then only what depends on the round before — lss
// cands | label + rows | score_all | label (every stratum at once), srs
// cands | label, a grouped plan one more label round for all its topped-up
// groups together however many they are, Exact one count_all. A step that
// goes back to one call per stratum or per group, or fetches the learn
// sample's features in a round of their own, fails here.
func TestDriveRoundBudget(t *testing.T) {
	const n, shards, census = 300, 2, 1
	for _, tc := range []struct {
		name    string
		method  string
		grouped bool
		budget  int // 12 of 300: the shared sample underserves all three groups
		exact   bool
		rounds  int
		ops     map[string]int
	}{
		{name: "lss", method: "lss", rounds: census + 4,
			ops: map[string]int{OpMeta: 1, OpCands: 1, OpLabel: 2, OpScoreAll: 1}},
		{name: "srs", method: "srs", rounds: census + 2,
			ops: map[string]int{OpMeta: 1, OpCands: 1, OpLabel: 1}},
		{name: "lss/exact", method: "lss", exact: true, rounds: census + 5,
			ops: map[string]int{OpMeta: 1, OpCands: 1, OpLabel: 2, OpScoreAll: 1, OpCountAll: 1}},
		{name: "lss/grouped", method: "lss", grouped: true, rounds: census + 4,
			ops: map[string]int{OpMeta: 1, OpCands: 1, OpLabel: 2, OpScoreAll: 1}},
		{name: "lss/grouped/top-ups", method: "lss", grouped: true, budget: 12, rounds: census + 5,
			ops: map[string]int{OpMeta: 1, OpCands: 1, OpLabel: 3, OpScoreAll: 1}},
		{name: "srs/grouped/top-ups", method: "srs", grouped: true, budget: 12, rounds: census + 3,
			ops: map[string]int{OpMeta: 1, OpScoreAll: 1, OpLabel: 2}},
		{name: "oracle", method: "oracle", rounds: census + 1,
			ops: map[string]int{OpMeta: 1, OpCountAll: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := testWorkers(n, shards, tc.grouped)
			tallies := make([]map[string]int, shards)
			for i, w := range workers {
				tallies[i] = map[string]int{}
				workers[i] = wired(w, tallies[i])
			}
			plan := testPlan(tc.method, tc.grouped)
			plan.Exact = tc.exact
			if tc.budget > 0 {
				plan.BudgetOf = func(int) int { return tc.budget }
			}
			res, err := Drive(context.Background(), plan, workers)
			if err != nil {
				t.Fatal(err)
			}
			if tc.budget > 0 {
				if len(res.Groups) < 3 {
					t.Fatalf("%d groups, want at least 3 to top up", len(res.Groups))
				}
				for _, g := range res.Groups {
					if g.Sampled != core.MinPerGroup {
						t.Fatalf("group %q sampled %d: not topped up to %d", g.Key, g.Sampled, core.MinPerGroup)
					}
				}
			}
			for i, ops := range tallies {
				rounds := 0
				for _, calls := range ops {
					rounds += calls
				}
				if rounds != tc.rounds || !reflect.DeepEqual(ops, tc.ops) {
					t.Errorf("shard %d took %d rounds %v, want %d %v", i, rounds, ops, tc.rounds, tc.ops)
				}
			}
		})
	}
}

// BenchmarkDriveGrouped times one grouped lss count over 3 in-process shards
// of 300 objects: census merge, learn, score, the shared sample's per-group
// tallies, top-ups and read-out. The shards' trainer keeps its fit across
// iterations (every count draws the same learn sample), so after the first
// count the forest is scored, not refitted.
func BenchmarkDriveGrouped(b *testing.B) {
	workers := testWorkers(300, 3, true)
	plan := testPlan("lss", true)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Drive(context.Background(), plan, workers); err != nil {
			b.Fatal(err)
		}
	}
}
