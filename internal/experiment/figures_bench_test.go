package experiment

// One benchmark per paper table/figure, regenerating the experiment at
// reduced scale (full scale: cmd/lsbench -full). Each benchmark reports
// ns/op for a complete experiment pass; the rendered tables land in
// EXPERIMENTS.md via cmd/lsbench.

import (
	"io"
	"testing"
)

// benchOpts keeps a full experiment pass affordable inside `go test -bench`.
func benchOpts() Options {
	return Options{
		Rows:        3000,
		Trials:      5,
		Seed:        1,
		SampleFracs: []float64{0.02},
		Dataset:     "neighbors",
	}
}

func runExperiment(b *testing.B, id string, o Options) {
	b.Helper()
	var evals int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(id, o)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if err := rep.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
		evals += rep.Evals
	}
	// Predicate evaluations are the paper's cost unit; reporting them per
	// op proves a perf win came from faster execution, not from doing less
	// sampling work.
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkTable1 regenerates Table 1 (result-set sizes per regime).
func BenchmarkTable1(b *testing.B) {
	o := benchOpts()
	o.Dataset = "" // both datasets, as in the paper
	runExperiment(b, "table1", o)
}

// BenchmarkFig1 regenerates Figure 1 (active-learning augmentation).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1", benchOpts()) }

// BenchmarkFig2 regenerates Figure 2 (SRS/SSP vs LWS/LSS distributions).
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2", benchOpts()) }

// BenchmarkFig3 regenerates Figure 3 (LSS overhead breakdown, expensive
// predicate).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3", benchOpts()) }

// BenchmarkFig4Layout regenerates the strata-layout half of Figure 4.
func BenchmarkFig4Layout(b *testing.B) { runExperiment(b, "fig4a", benchOpts()) }

// BenchmarkFig4Strata regenerates the number-of-strata half of Figure 4.
func BenchmarkFig4Strata(b *testing.B) {
	o := benchOpts()
	o.Trials = 3
	runExperiment(b, "fig4b", o)
}

// BenchmarkFig5 regenerates Figure 5 (learning/sampling budget split).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5", benchOpts()) }

// BenchmarkFig6 regenerates Figure 6 (classifier quality vs LSS).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6", benchOpts()) }

// BenchmarkFig7 regenerates Figure 7 (quantification learning vs
// classifiers).
func BenchmarkFig7(b *testing.B) {
	o := benchOpts()
	o.Trials = 3
	runExperiment(b, "fig7", o)
}

// BenchmarkFig8 regenerates Figure 8 (CC vs AC, with/without augmentation).
func BenchmarkFig8(b *testing.B) {
	o := benchOpts()
	o.Trials = 3
	runExperiment(b, "fig8", o)
}

// BenchmarkAblateDesigners compares the §4.2 design algorithms (objective
// value vs design time) on identical pilots.
func BenchmarkAblateDesigners(b *testing.B) { runExperiment(b, "ablate-designers", benchOpts()) }

// BenchmarkAblateLWS sweeps the LWS ε floor and the with-replacement
// estimator variant.
func BenchmarkAblateLWS(b *testing.B) {
	o := benchOpts()
	o.Trials = 3
	runExperiment(b, "ablate-lws", o)
}
