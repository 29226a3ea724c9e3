package workload

import (
	"math"
	"testing"

	"repro/internal/estimate"
	"repro/internal/predicate"
	"repro/internal/xrand"
)

func TestSizeStrings(t *testing.T) {
	want := []string{"XS", "S", "M", "L", "XL", "XXL"}
	for i, sz := range Sizes {
		if sz.String() != want[i] {
			t.Fatalf("size %d = %q", i, sz.String())
		}
		parsed, err := ParseSize(want[i])
		if err != nil || parsed != sz {
			t.Fatalf("ParseSize(%q) = %v, %v", want[i], parsed, err)
		}
	}
	if _, err := ParseSize("XXXL"); err == nil {
		t.Fatal("bad size should error")
	}
	if Size(99).String() == "" {
		t.Fatal("unknown size string")
	}
}

func TestBuildSportsCalibration(t *testing.T) {
	suite, err := BuildSports(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Dataset != "sports" || suite.Table.NumRows() != 5000 {
		t.Fatalf("suite = %+v", suite.Dataset)
	}
	prevK := 0
	for _, sz := range Sizes {
		in := suite.Instances[sz]
		if in == nil {
			t.Fatalf("missing instance %v", sz)
		}
		// Achieved selectivity within 3 points of the target (ties in the
		// discrete dominance counts allow slack).
		if math.Abs(in.Selectivity-in.Target) > 0.03 {
			t.Fatalf("%v: selectivity %v vs target %v", sz, in.Selectivity, in.Target)
		}
		// Larger regimes need larger k.
		if in.K < prevK {
			t.Fatalf("%v: k=%d not monotone", sz, in.K)
		}
		prevK = in.K
		// TrueCount consistent with labels.
		c := 0
		for _, b := range in.Labels {
			if b {
				c++
			}
		}
		if c != in.TrueCount {
			t.Fatalf("%v: TrueCount %d vs labels %d", sz, in.TrueCount, c)
		}
	}
}

func TestBuildNeighborsCalibration(t *testing.T) {
	suite, err := BuildNeighbors(4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	prevD := math.Inf(1)
	for _, sz := range Sizes {
		in := suite.Instances[sz]
		if math.Abs(in.Selectivity-in.Target) > 0.03 {
			t.Fatalf("%v: selectivity %v vs target %v", sz, in.Selectivity, in.Target)
		}
		// Larger result sizes need smaller d (fewer neighbors within d).
		if in.D > prevD {
			t.Fatalf("%v: d=%v not decreasing", sz, in.D)
		}
		prevD = in.D
		if in.K != NeighborK {
			t.Fatalf("%v: k=%d", sz, in.K)
		}
	}
}

func TestLabelsMatchExpensivePredicate(t *testing.T) {
	// The fast (label) and expensive (scan) predicates must agree exactly.
	for _, name := range []string{"sports", "neighbors"} {
		suite, err := Build(name, 1200, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sz := range []Size{XS, L, XXL} {
			in := suite.Instances[sz]
			exp := in.ExpensiveObjectsScaled(1)
			r := xrand.New(uint64(sz))
			for trial := 0; trial < 200; trial++ {
				i := r.IntN(in.N())
				if exp.Pred.Eval(i) != in.Labels[i] {
					t.Fatalf("%s/%v object %d: expensive predicate disagrees with label", name, sz, i)
				}
			}
		}
	}
}

func TestObjectsIndependentCounters(t *testing.T) {
	suite, err := BuildSports(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := suite.Instances[S]
	a := in.Objects()
	b := in.Objects()
	a.Pred.Eval(0)
	if b.Pred.Evals() != 0 {
		t.Fatal("object sets must not share counters")
	}
	// Labeling everything through the label predicate returns the truth.
	labels, err := predicate.Label(a.Pred, predicate.AllIndices(in.N()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := estimate.Positives(labels); got != in.TrueCount {
		t.Fatalf("label count %d vs TrueCount %d", got, in.TrueCount)
	}
}

func TestBuildDispatch(t *testing.T) {
	if _, err := Build("nope", 100, 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
	s, err := Build("neighbors", 800, 5)
	if err != nil || s.Dataset != "neighbors" {
		t.Fatalf("Build neighbors: %v", err)
	}
}

func TestDefaultScales(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build in -short mode")
	}
	suite, err := BuildSports(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Table.NumRows() != 47000 {
		t.Fatalf("default sports scale = %d", suite.Table.NumRows())
	}
}

func BenchmarkBuildNeighbors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildNeighbors(10000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildSports(10000, 1); err != nil {
			b.Fatal(err)
		}
	}
}
