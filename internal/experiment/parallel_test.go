package experiment

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestRunDistDeterministicAcrossParallelism is the engine's core contract:
// with a fixed seed, Dist.Estimates must be byte-identical at parallelism
// 1 (sequential), 4, and NumCPU — for both a pure-sampling method and the
// learned method whose classifier itself trains and scores in parallel.
func TestRunDistDeterministicAcrossParallelism(t *testing.T) {
	suite, err := workload.Build("neighbors", 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := suite.Instances[workload.S]
	methods := []core.Method{
		&core.SRS{},
		&core.LSS{TrainFrac: 0.25, Strata: 3},
	}
	for _, m := range methods {
		base, err := RunDistP(m, in, 120, 8, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, runtime.NumCPU()} {
			d, err := RunDistP(m, in, 120, 8, 42, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Estimates) != len(base.Estimates) {
				t.Fatalf("%s p=%d: %d estimates, want %d", m.Name(), p, len(d.Estimates), len(base.Estimates))
			}
			for i := range d.Estimates {
				if d.Estimates[i] != base.Estimates[i] {
					t.Fatalf("%s p=%d: estimate[%d] = %v, sequential %v",
						m.Name(), p, i, d.Estimates[i], base.Estimates[i])
				}
			}
			if d.TotalEvals != base.TotalEvals {
				t.Fatalf("%s p=%d: evals = %d, sequential %d", m.Name(), p, d.TotalEvals, base.TotalEvals)
			}
		}
	}
}

// TestRunDistDefaultMatchesSequential: RunDistP at its default parallelism
// (0, all cores) must agree with the explicit sequential run.
func TestRunDistDefaultMatchesSequential(t *testing.T) {
	suite, err := workload.Build("neighbors", 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := suite.Instances[workload.S]
	seq, err := RunDistP(&core.SRS{}, in, 100, 6, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunDistP(&core.SRS{}, in, 100, 6, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Estimates {
		if seq.Estimates[i] != def.Estimates[i] {
			t.Fatalf("estimate[%d]: default %v, sequential %v", i, def.Estimates[i], seq.Estimates[i])
		}
	}
}

// TestOptionsParallelismPlumbed: a figure driver must produce the same
// table at any Options.Parallelism.
func TestOptionsParallelismPlumbed(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	o := tiny()
	o.Parallelism = 1
	seq, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 4
	par, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		for j := range seq.Rows[i] {
			if seq.Rows[i][j] != par.Rows[i][j] {
				t.Fatalf("row %d col %d: %q vs %q", i, j, seq.Rows[i][j], par.Rows[i][j])
			}
		}
	}
	if seq.Evals != par.Evals {
		t.Fatalf("evals differ: %d vs %d", seq.Evals, par.Evals)
	}
}
