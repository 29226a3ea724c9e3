// Package workload builds the paper's two evaluation workloads (§5.1) at
// calibrated selectivities. Each suite pairs a synthetic dataset with the
// paper's query template and sweeps the query parameter so the result size
// hits the six Table 1 regimes (XS … XXL):
//
//   - sports: the Example 2 k-skyband query over (strikeouts, wins),
//     sweeping k;
//   - neighbors: the Example 1 few-neighbors query over (f0, f1), fixing k
//     and sweeping the distance d.
//
// Calibration and ground truth use the fast indexes in internal/geom;
// estimation-time predicates use the deliberately O(N)-per-evaluation
// scans in internal/predicate, preserving the paper's cost model.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/predicate"
)

// Size is one of the paper's result-size regimes.
type Size int

// Result-size regimes of Table 1.
const (
	XS Size = iota
	S
	M
	L
	XL
	XXL
)

// Sizes lists all regimes in order.
var Sizes = []Size{XS, S, M, L, XL, XXL}

func (s Size) String() string {
	switch s {
	case XS:
		return "XS"
	case S:
		return "S"
	case M:
		return "M"
	case L:
		return "L"
	case XL:
		return "XL"
	case XXL:
		return "XXL"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// ParseSize converts a string like "XS" to a Size.
func ParseSize(s string) (Size, error) {
	for _, sz := range Sizes {
		if sz.String() == s {
			return sz, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown size %q", s)
}

// SportsTargets are Table 1's sports selectivities.
var SportsTargets = map[Size]float64{
	XS: 0.01, S: 0.10, M: 0.29, L: 0.50, XL: 0.70, XXL: 0.90,
}

// NeighborsTargets are Table 1's neighbors selectivities.
var NeighborsTargets = map[Size]float64{
	XS: 0.02, S: 0.10, M: 0.25, L: 0.40, XL: 0.75, XXL: 0.87,
}

// Instance is one calibrated (dataset, query, parameter) problem.
type Instance struct {
	Dataset     string
	Size        Size
	Target      float64 // target selectivity
	K           int     // skyband k, or neighbor-count bound
	D           float64 // neighbor distance (0 for sports)
	TrueCount   int
	Selectivity float64
	Labels      []bool // ground-truth q(o) for every object

	features [][]float64
	xs, ys   []float64
}

// Objects returns a fresh ObjectSet whose predicate reads precomputed
// labels (fast; for distribution experiments where only estimator behavior
// matters). Each call returns an independent evaluation counter.
func (in *Instance) Objects() *core.ObjectSet {
	obj, err := core.NewObjectSet(in.features, predicate.NewLabels(in.Labels))
	if err != nil {
		panic(err)
	}
	return obj
}

// ExpensiveObjectsScaled returns an ObjectSet whose predicate performs the
// real O(N) per-evaluation scan — the paper's cost model, used by the
// runtime experiments (Fig 3) — repeated factor times. The paper's
// predicates ran as interpreted UDFs / correlated SQL (milliseconds per
// evaluation); scaling the in-process scan reproduces that cost regime for
// the overhead experiments.
func (in *Instance) ExpensiveObjectsScaled(factor int) *core.ObjectSet {
	if factor < 1 {
		factor = 1
	}
	p := in.expensivePredicate()
	if factor > 1 {
		inner := p
		f := predicate.NewFunc(func(i int) bool {
			var v bool
			for r := 0; r < factor; r++ {
				v = inner.Eval(i)
			}
			return v
		})
		p = f
	}
	obj, err := core.NewObjectSet(in.features, p)
	if err != nil {
		panic(err)
	}
	return obj
}

// N returns the object count.
func (in *Instance) N() int { return len(in.Labels) }

// Features returns the per-object feature matrix the paper's heuristic
// selects for this workload. The slice is shared across calls; treat it as
// read-only.
func (in *Instance) Features() [][]float64 { return in.features }

// LabelFunc returns the predicate as a plain function reading precomputed
// labels (fast; for demos and distribution experiments where only
// estimator behavior matters).
func (in *Instance) LabelFunc() func(i int) bool {
	labels := in.Labels
	return func(i int) bool { return labels[i] }
}

// ExpensiveFunc returns the real O(N)-per-evaluation predicate as a plain
// function — the paper's cost model. Each returned closure carries its own
// scan state and is independent of other calls.
func (in *Instance) ExpensiveFunc() func(i int) bool {
	return in.expensivePredicate().Eval
}

// expensivePredicate builds the dataset's real scan predicate; the single
// dispatch point shared by ExpensiveFunc and ExpensiveObjectsScaled.
func (in *Instance) expensivePredicate() predicate.Predicate {
	if in.Dataset == "sports" {
		return predicate.NewSkyband(in.xs, in.ys, in.K)
	}
	return predicate.NewNeighbors(in.xs, in.ys, in.D, in.K)
}

// Suite is a dataset plus its six calibrated instances.
type Suite struct {
	Dataset   string
	Table     *dataset.Table
	Instances map[Size]*Instance
}

// NeighborK is the fixed neighbor-count bound for the neighbors workload.
const NeighborK = 20

// BuildSports generates the sports dataset (n rows; 0 means the paper's
// ~47k) and calibrates the k-skyband query to each Table 1 selectivity.
func BuildSports(n int, seed uint64) (*Suite, error) {
	if n <= 0 {
		n = dataset.SportsSize
	}
	tb := dataset.Sports(n, seed)
	xs := tb.FloatColumn("strikeouts")
	ys := tb.FloatColumn("wins")
	features, err := tb.Features("strikeouts", "wins")
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: xs[i], Y: ys[i]}
	}
	dom := geom.DominanceCounts(pts)

	// Selectivity of parameter k is #{dom < k}/N: choose k per target from
	// the sorted dominance counts.
	sorted := append([]int(nil), dom...)
	sort.Ints(sorted)

	suite := &Suite{Dataset: "sports", Table: tb, Instances: make(map[Size]*Instance)}
	for _, sz := range Sizes {
		target := SportsTargets[sz]
		idx := int(target * float64(n))
		if idx >= n {
			idx = n - 1
		}
		k := sorted[idx] + 1
		labels := make([]bool, n)
		count := 0
		for i, c := range dom {
			labels[i] = c < k
			if labels[i] {
				count++
			}
		}
		suite.Instances[sz] = &Instance{
			Dataset:     "sports",
			Size:        sz,
			Target:      target,
			K:           k,
			TrueCount:   count,
			Selectivity: float64(count) / float64(n),
			Labels:      labels,
			features:    features,
			xs:          xs,
			ys:          ys,
		}
	}
	return suite, nil
}

// BuildNeighbors generates the neighbors dataset (n rows; 0 means the
// paper's ~73k) and calibrates the few-neighbors query: k is fixed at
// NeighborK and the distance d is chosen per target selectivity.
//
// Calibration computes, for every object, the distance to its (k+1)-th
// nearest other point; q(o) holds iff that distance exceeds d, so a single
// kd-tree pass calibrates every regime at once.
func BuildNeighbors(n int, seed uint64) (*Suite, error) {
	if n <= 0 {
		n = dataset.NeighborsSize
	}
	tb := dataset.Neighbors(n, seed)
	xs := tb.FloatColumn("f0")
	ys := tb.FloatColumn("f1")
	features, err := tb.Features("f0", "f1")
	if err != nil {
		return nil, err
	}
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{xs[i], ys[i]}
	}
	tree := geom.NewKDTree(coords)

	k := NeighborK
	// dist[i] = distance to the (k+2)-th nearest point including self
	// (= (k+1)-th other); q(i) under distance d ⇔ dist[i] > d.
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		nbrs := tree.KNearest(coords[i], k+2)
		dist[i] = math.Sqrt(nbrs[len(nbrs)-1].Dist2)
	}
	sorted := append([]float64(nil), dist...)
	sort.Float64s(sorted)

	suite := &Suite{Dataset: "neighbors", Table: tb, Instances: make(map[Size]*Instance)}
	for _, sz := range Sizes {
		target := NeighborsTargets[sz]
		// Want #{dist > d} ≈ target·n: put d just below the (1−target)
		// quantile.
		idx := int((1 - target) * float64(n))
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		var d float64
		if idx == 0 {
			d = sorted[0] * 0.99
		} else {
			d = (sorted[idx-1] + sorted[idx]) / 2
		}
		labels := make([]bool, n)
		count := 0
		for i := range labels {
			labels[i] = dist[i] > d
			if labels[i] {
				count++
			}
		}
		suite.Instances[sz] = &Instance{
			Dataset:     "neighbors",
			Size:        sz,
			Target:      target,
			K:           k,
			D:           d,
			TrueCount:   count,
			Selectivity: float64(count) / float64(n),
			Labels:      labels,
			features:    features,
			xs:          xs,
			ys:          ys,
		}
	}
	return suite, nil
}

// Build dispatches by dataset name ("sports" or "neighbors").
func Build(name string, n int, seed uint64) (*Suite, error) {
	switch name {
	case "sports":
		return BuildSports(n, seed)
	case "neighbors":
		return BuildNeighbors(n, seed)
	}
	return nil, fmt.Errorf("workload: unknown dataset %q", name)
}
