package learn

import (
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// synthRows builds a deterministic nonlinear binary problem.
func synthRows(n int, seed uint64) ([][]float64, []bool) {
	r := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		a, b := r.NormFloat64(), r.NormFloat64()
		X[i] = []float64{a, b, a * b}
		y[i] = a*a+b*b < 1.2
	}
	return X, y
}

// fitForest fits a 60-tree forest at the given parallelism.
func fitForest(t *testing.T, X [][]float64, y []bool, parallelism int) *RandomForest {
	t.Helper()
	f := NewRandomForest(60, 7)
	f.Parallelism = parallelism
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestForestFitParallelDeterministic: the fitted ensemble must be
// bit-identical whether trees grow sequentially or on any worker count.
func TestForestFitParallelDeterministic(t *testing.T) {
	X, y := synthRows(300, 11)
	seq := fitForest(t, X, y, 1)
	for _, p := range []int{2, 4, runtime.NumCPU()} {
		par := fitForest(t, X, y, p)
		for i, x := range X {
			if seq.Score(x) != par.Score(x) {
				t.Fatalf("parallelism %d: score[%d] = %v, sequential %v",
					p, i, par.Score(x), seq.Score(x))
			}
		}
	}
}

// TestScoreBatchMatchesScore: the batch path must be bit-equal to the
// per-object path, at sequential and parallel chunking, including across
// the chunk boundary (n > scoreBatchChunk).
func TestScoreBatchMatchesScore(t *testing.T) {
	X, y := synthRows(scoreBatchChunk+77, 13)
	for _, p := range []int{1, 3} {
		f := fitForest(t, X, y, p)
		batch := ScoreAll(f, X)
		if len(batch) != len(X) {
			t.Fatalf("batch length %d, want %d", len(batch), len(X))
		}
		for i, x := range X {
			if batch[i] != f.Score(x) {
				t.Fatalf("parallelism %d: batch[%d] = %v, Score = %v", p, i, batch[i], f.Score(x))
			}
		}
	}
}

// TestFlatForestMatchesTrees: the compiled packed layout must reproduce
// the per-tree walk exactly, across varied trees in one block.
func TestFlatForestMatchesTrees(t *testing.T) {
	X, y := synthRows(200, 17)
	trees := make([]*DecisionTree, 12)
	for b := range trees {
		trees[b] = &DecisionTree{MaxDepth: 2 + b%6, MinLeaf: 1 + b%3}
		if err := trees[b].Fit(X, y); err != nil {
			t.Fatal(err)
		}
	}
	ff := compileForest(trees)
	if len(ff.roots) != len(trees) {
		t.Fatalf("flat roots = %d, want %d", len(ff.roots), len(trees))
	}
	for i, x := range X {
		s := 0.0
		for _, tr := range trees {
			s += tr.Score(x)
		}
		want := s / float64(len(trees))
		if got := ff.score(x); got != want {
			t.Fatalf("flat score[%d] = %v, per-tree mean = %v", i, got, want)
		}
	}
}

// TestForestUnfitted: both score paths return the 0.5 toss-up before Fit.
func TestForestUnfitted(t *testing.T) {
	f := NewRandomForest(10, 1)
	if got := f.Score([]float64{1, 2}); got != 0.5 {
		t.Fatalf("unfitted Score = %v", got)
	}
	batch := ScoreAll(f, [][]float64{{1, 2}, {3, 4}})
	for i, s := range batch {
		if s != 0.5 {
			t.Fatalf("unfitted batch[%d] = %v", i, s)
		}
	}
}

// TestScoreAllFallback: ScoreAll uses per-row Score for classifiers
// without a batch path and the batch path otherwise.
func TestScoreAllFallback(t *testing.T) {
	X, y := synthRows(120, 19)
	knn := NewKNN(3)
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	got := ScoreAll(knn, X)
	for i, x := range X {
		if got[i] != knn.Score(x) {
			t.Fatalf("knn ScoreAll[%d] mismatch", i)
		}
	}
	f := fitForest(t, X, y, 2)
	got = ScoreAll(f, X)
	for i, x := range X {
		if got[i] != f.Score(x) {
			t.Fatalf("forest ScoreAll[%d] mismatch", i)
		}
	}
}
