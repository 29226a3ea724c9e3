package learn

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// benchProblem sizes roughly match one LSS learn phase at paper scale:
// a few hundred labeled rows to fit on, tens of thousands to score.
func benchProblem(b *testing.B) (trainX [][]float64, trainY []bool, scoreX [][]float64) {
	b.Helper()
	trainX, trainY = synthRows(400, 3)
	scoreX, _ = synthRows(20000, 5)
	return
}

func benchForestFit(b *testing.B, trainX [][]float64, trainY []bool, parallelism int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewRandomForest(100, 7)
		f.Parallelism = parallelism
		if err := f.Fit(trainX, trainY); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitSeq grows 100 trees on one worker.
func BenchmarkForestFitSeq(b *testing.B) {
	trainX, trainY, _ := benchProblem(b)
	benchForestFit(b, trainX, trainY, 1)
}

// BenchmarkForestFitPar grows 100 trees on all cores.
func BenchmarkForestFitPar(b *testing.B) {
	trainX, trainY, _ := benchProblem(b)
	benchForestFit(b, trainX, trainY, 0)
}

// ledgerRows mirrors the training sets of the ledger's udf_learn workload
// (bench/gen.go): two uniform features, positive inside an ellipse blurred
// by per-object noise, so the trees grow past the clean boundary.
func ledgerRows(n int) ([][]float64, []bool) {
	r := xrand.New(7)
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		a, b := 2*r.Float64()-1, 2*r.Float64()-1
		X[i] = []float64{a, b}
		y[i] = a*a/0.49+b*b/0.16+0.15*r.NormFloat64() < 1
	}
	return X, y
}

// BenchmarkForestFitLedger grows 100 trees on one worker at the sizes the
// ledger's udf_learn counts fit on: 50 labels (an lws or lss learn sample
// at the 2 % budget) and 200 (a qlcc count trains on its whole budget).
func BenchmarkForestFitLedger(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("n%d_d2", n), func(b *testing.B) {
			trainX, trainY := ledgerRows(n)
			benchForestFit(b, trainX, trainY, 1)
		})
	}
}

// BenchmarkForestScorePerObject is the pre-batching path: one Score call
// per object, results collected into a fresh slice as scoreRest used to.
func BenchmarkForestScorePerObject(b *testing.B) {
	trainX, trainY, scoreX := benchProblem(b)
	f := NewRandomForest(100, 7)
	f.Parallelism = 1
	if err := f.Fit(trainX, trainY); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]float64, len(scoreX))
		for j, x := range scoreX {
			out[j] = f.Score(x)
		}
		_ = out
	}
}

func benchForestScoreBatch(b *testing.B, parallelism int) {
	trainX, trainY, scoreX := benchProblem(b)
	f := NewRandomForest(100, 7)
	f.Parallelism = parallelism
	if err := f.Fit(trainX, trainY); err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(scoreX))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ScoreBatch(scoreX, out)
	}
}

// BenchmarkForestScoreBatchSeq is the batch path on one worker: 20 000
// rows against a 400 × 3 fit, scored through the rank grid the first
// iteration builds.
func BenchmarkForestScoreBatchSeq(b *testing.B) { benchForestScoreBatch(b, 1) }

// BenchmarkForestScoreBatchPar is the same batch split into one range per
// core.
func BenchmarkForestScoreBatchPar(b *testing.B) { benchForestScoreBatch(b, 0) }

// BenchmarkForestScoreLedger scores one batch per op at the ledger's
// udf_learn shapes: forests fitted on 50 and 200 labels, 300 rows (the
// service-sized counts; at n200 just past the size rule, which starts at
// 289 rows there and at 151 at n50) and 10 000 (a udf_learn count; the
// tuple table runs at n50 only). An op includes building the grid, as
// every ScoreBatch on that path does; build is that step alone.
func BenchmarkForestScoreLedger(b *testing.B) {
	r := xrand.New(11)
	scoreX, out := make([][]float64, 10000), make([]float64, 10000)
	for i := range scoreX {
		scoreX[i] = []float64{2*r.Float64() - 1, 2*r.Float64() - 1}
	}
	for _, n := range []int{50, 200} {
		trainX, trainY := ledgerRows(n)
		f := NewRandomForest(100, 7)
		f.Parallelism = 1
		if err := f.Fit(trainX, trainY); err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{300, 10000} {
			b.Run(fmt.Sprintf("n%d_d2/N%d", n, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.ScoreBatch(scoreX[:rows], out)
				}
			})
		}
		b.Run(fmt.Sprintf("n%d_d2/build", n), func(b *testing.B) {
			b.ReportAllocs()
			g := new(forestGrid)
			for i := 0; i < b.N; i++ {
				g.build(&f.flat)
			}
		})
	}
}
