package stratify

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// makePilot draws a deterministic pilot of size m from a label vector over
// n ordered objects.
func makePilot(t *testing.T, labels []bool, m int, seed uint64) *Pilot {
	t.Helper()
	r := xrand.New(seed)
	n := len(labels)
	perm := r.Perm(n)[:m]
	sort.Ints(perm)
	q := make([]bool, m)
	for i, p := range perm {
		q[i] = labels[p]
	}
	pilot, err := NewPilot(n, perm, q)
	if err != nil {
		t.Fatal(err)
	}
	return pilot
}

// boundaryLabels has a clean negative→positive transition at frac.
func boundaryLabels(n int, frac float64, noise float64, r *xrand.Rand) []bool {
	labels := make([]bool, n)
	cut := int(frac * float64(n))
	for i := range labels {
		labels[i] = i >= cut
		if noise > 0 && r.Bool(noise) {
			labels[i] = !labels[i]
		}
	}
	return labels
}

func TestNewPilotValidation(t *testing.T) {
	if _, err := NewPilot(10, []int{1, 2}, []bool{true}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := NewPilot(10, []int{1, 11}, []bool{true, false}); err == nil {
		t.Fatal("out-of-range position should error")
	}
	if _, err := NewPilot(10, []int{5, 5}, []bool{true, false}); err == nil {
		t.Fatal("non-increasing positions should error")
	}
	if _, err := NewPilot(10, []int{3, 5}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
}

func TestPilotGammaAndStats(t *testing.T) {
	p, err := NewPilot(100, []int{5, 20, 40, 60, 80}, []bool{true, false, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != 5 {
		t.Fatalf("M = %d", p.M())
	}
	if got := p.CountUpTo(21); got != 2 {
		t.Fatalf("CountUpTo(21) = %d", got)
	}
	if got := p.CountUpTo(0); got != 0 {
		t.Fatalf("CountUpTo(0) = %d", got)
	}
	// Samples 1..3 (positions 5,20,40): 2 positives of 3.
	m, s2 := p.SampleStats(0, 3)
	if m != 3 {
		t.Fatalf("m = %d", m)
	}
	if want := stats.BinaryVariance(2, 3); math.Abs(s2-want) > 1e-12 {
		t.Fatalf("s2 = %v, want %v", s2, want)
	}
	// Stratum [0, 50) holds samples at 5, 20, 40.
	m, s2 = p.StratumStats(0, 50)
	if m != 3 || math.Abs(s2-stats.BinaryVariance(2, 3)) > 1e-12 {
		t.Fatalf("StratumStats = %d, %v", m, s2)
	}
	// Degenerate single-sample stratum → zero variance.
	if m, s2 = p.StratumStats(0, 6); m != 1 || s2 != 0 {
		t.Fatalf("single sample stats = %d, %v", m, s2)
	}
}

func TestDesignHelpers(t *testing.T) {
	d := &Design{Cuts: []int{0, 30, 70, 100}}
	if d.H() != 3 {
		t.Fatalf("H = %d", d.H())
	}
	sizes := d.Sizes()
	if sizes[0] != 30 || sizes[1] != 40 || sizes[2] != 30 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestEqualCount(t *testing.T) {
	cuts := EqualCount(100, 4)
	want := []int{0, 25, 50, 75, 100}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	// More strata than objects degrades gracefully.
	cuts = EqualCount(3, 10)
	if cuts[0] != 0 || cuts[len(cuts)-1] != 3 {
		t.Fatalf("degenerate cuts = %v", cuts)
	}
}

func TestFixedWidth(t *testing.T) {
	scores := []float64{0, 0.1, 0.2, 0.6, 0.7, 0.8, 0.9, 1.0}
	cuts := FixedWidth(scores, 4)
	// Thresholds 0.25, 0.5, 0.75: cuts where scores cross.
	if cuts[0] != 0 || cuts[len(cuts)-1] != len(scores) {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not increasing: %v", cuts)
		}
	}
	// Constant scores collapse to a single stratum.
	cuts = FixedWidth([]float64{0.5, 0.5, 0.5}, 4)
	if len(cuts) != 2 {
		t.Fatalf("constant-score cuts = %v", cuts)
	}
	if got := FixedWidth(nil, 3); got[len(got)-1] != 0 {
		t.Fatalf("empty cuts = %v", got)
	}
}

func TestGridCutsAssign(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	bounds := GridCuts(vals, 4)
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	cells := make(map[int]int)
	for _, v := range vals {
		cells[GridAssign(v, bounds)]++
	}
	if len(cells) != 4 {
		t.Fatalf("expected 4 cells, got %v", cells)
	}
}

func TestObjectivesHomogeneous(t *testing.T) {
	// Perfectly separable pilot: strata aligned with the boundary have zero
	// within-stratum variance, hence zero objective.
	r := xrand.New(1)
	labels := boundaryLabels(1000, 0.5, 0, r)
	p := makePilot(t, labels, 100, 2)
	cuts := []int{0, 500, 1000}
	vN := NeymanObjective(p, cuts, 50)
	vP := PropObjective(p, cuts, 50)
	if vN > 1e-9 || vP > 1e-9 {
		t.Fatalf("separable design should have ~0 variance: neyman=%v prop=%v", vN, vP)
	}
	// A deliberately bad single straddling boundary must be worse.
	bad := NeymanObjective(p, []int{0, 250, 1000}, 50)
	if bad <= vN {
		t.Fatalf("bad design %v should exceed good %v", bad, vN)
	}
}

func TestDirSolMatchesBruteForce(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 5; trial++ {
		N := 120
		labels := boundaryLabels(N, 0.3+0.4*r.Float64(), 0.1, r)
		p := makePilot(t, labels, 30, uint64(trial+10))
		c := Constraints{MinStratumSize: 20, MinPilotPerStratum: 3}
		n := 10 // Theorem 1 needs N_⊔ > n
		ds, err := DirSol(p, n, c)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(p, 3, n, c, true)
		if err != nil {
			t.Fatal(err)
		}
		Nq := float64(c.MinStratumSize)
		nf := float64(n)
		ratio := 1 + 2/Nq + 2/(Nq-nf) + 4/(Nq*(Nq-nf))
		if ds.V > ratio*bf.V+1e-9 {
			t.Fatalf("trial %d: DirSol V=%v exceeds %v × brute V=%v (cuts %v vs %v)",
				trial, ds.V, ratio, bf.V, ds.Cuts, bf.Cuts)
		}
	}
}

func TestDirSolFindsSeparatingDesign(t *testing.T) {
	// With a sharp boundary and plenty of pilot samples, DirSol should place
	// the middle stratum around the transition and achieve variance far
	// below fixed-width.
	r := xrand.New(4)
	N := 2000
	labels := boundaryLabels(N, 0.6, 0.02, r)
	p := makePilot(t, labels, 200, 5)
	c := Constraints{MinStratumSize: 50, MinPilotPerStratum: 5}
	ds, err := DirSol(p, 40, c)
	if err != nil {
		t.Fatal(err)
	}
	fixed := NeymanObjective(p, []int{0, N / 3, 2 * N / 3, N}, 40)
	if ds.V > fixed/2 {
		t.Fatalf("DirSol V=%v not clearly better than fixed-width V=%v (cuts %v)", ds.V, fixed, ds.Cuts)
	}
	// The transition at 1200 should fall inside the middle stratum.
	if !(ds.Cuts[1] <= 1260 && ds.Cuts[2] >= 1140) {
		t.Fatalf("middle stratum %v does not cover the boundary 1200", ds.Cuts)
	}
}

func TestDirSolValidation(t *testing.T) {
	p := makePilot(t, boundaryLabels(100, 0.5, 0, xrand.New(6)), 20, 7)
	if _, err := DirSol(p, 0, Constraints{}); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := DirSol(p, 5, Constraints{MinStratumSize: 50}); err == nil {
		t.Fatal("infeasible stratum size should error")
	}
	if _, err := DirSol(p, 5, Constraints{MinPilotPerStratum: 10}); err == nil {
		t.Fatal("infeasible pilot minimum should error")
	}
}

func TestLogBdrWithinTheorem2Ratio(t *testing.T) {
	r := xrand.New(8)
	for trial := 0; trial < 4; trial++ {
		N := 100
		labels := boundaryLabels(N, 0.5, 0.15, r)
		p := makePilot(t, labels, 24, uint64(trial+20))
		c := Constraints{MinStratumSize: 15, MinPilotPerStratum: 3}
		n := 7
		lb, err := LogBdr(p, 3, n, c)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(p, 3, n, c, true)
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 2 ratio with N*_h ≥ N_⊔: max{4, 2 + 2·N_⊔/(N_⊔−n)}.
		Nq, nf := float64(c.MinStratumSize), float64(n)
		ratio := math.Max(4, 2+2*Nq/(Nq-nf))
		if lb.V > ratio*bf.V+1e-9 {
			t.Fatalf("trial %d: LogBdr V=%v exceeds %v × optimal %v", trial, lb.V, ratio, bf.V)
		}
	}
}

func TestLogBdrFourStrata(t *testing.T) {
	r := xrand.New(9)
	N := 200
	labels := boundaryLabels(N, 0.5, 0.1, r)
	p := makePilot(t, labels, 24, 10)
	c := Constraints{MinStratumSize: 10, MinPilotPerStratum: 3}
	d, err := LogBdr(p, 4, 8, c)
	if err != nil {
		t.Fatal(err)
	}
	if d.H() != 4 {
		t.Fatalf("H = %d", d.H())
	}
	if !c.feasible(p, d.Cuts) {
		t.Fatalf("infeasible design %v", d.Cuts)
	}
}

func TestDynPgmWithinRatio(t *testing.T) {
	r := xrand.New(11)
	for trial := 0; trial < 4; trial++ {
		N := 120
		labels := boundaryLabels(N, 0.4, 0.15, r)
		p := makePilot(t, labels, 30, uint64(trial+30))
		c := Constraints{MinStratumSize: 16, MinPilotPerStratum: 3}
		n := 4 // Theorem 3 wants N_⊔ ≥ 4n
		dp, err := DynPgm(p, 3, n, c)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(p, 3, n, c, true)
		if err != nil {
			t.Fatal(err)
		}
		ratio := 14.0 / 3.0 * (10*3 - 9)
		if dp.V > ratio*bf.V+1e-9 {
			t.Fatalf("trial %d: DynPgm V=%v exceeds %v × optimal %v", trial, dp.V, ratio, bf.V)
		}
		if !c.feasible(p, dp.Cuts) {
			t.Fatalf("infeasible design %v", dp.Cuts)
		}
	}
}

func TestDynPgmManyStrata(t *testing.T) {
	r := xrand.New(12)
	N := 3000
	labels := boundaryLabels(N, 0.5, 0.05, r)
	p := makePilot(t, labels, 150, 13)
	c := Constraints{MinStratumSize: 100, MinPilotPerStratum: 4}
	d, err := DynPgm(p, 6, 50, c)
	if err != nil {
		t.Fatal(err)
	}
	if d.H() != 6 || !c.feasible(p, d.Cuts) {
		t.Fatalf("bad design %v", d.Cuts)
	}
}

func TestDynPgmPWithinFactor2(t *testing.T) {
	r := xrand.New(14)
	for trial := 0; trial < 4; trial++ {
		N := 120
		labels := boundaryLabels(N, 0.55, 0.15, r)
		p := makePilot(t, labels, 30, uint64(trial+40))
		c := Constraints{MinStratumSize: 15, MinPilotPerStratum: 3}
		n := 10
		dp, err := DynPgmP(p, 3, n, c)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(p, 3, n, c, false)
		if err != nil {
			t.Fatal(err)
		}
		if dp.V > 2*bf.V+1e-9 {
			t.Fatalf("trial %d: DynPgmP V=%v exceeds 2 × optimal %v", trial, dp.V, bf.V)
		}
	}
}

func TestDesignersProduceValidCuts(t *testing.T) {
	r := xrand.New(15)
	N := 400
	labels := boundaryLabels(N, 0.5, 0.2, r)
	p := makePilot(t, labels, 60, 16)
	c := Constraints{MinStratumSize: 40, MinPilotPerStratum: 4}
	check := func(name string, d *Design, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Cuts[0] != 0 || d.Cuts[len(d.Cuts)-1] != N {
			t.Fatalf("%s: cuts %v do not span [0,%d]", name, d.Cuts, N)
		}
		for i := 1; i < len(d.Cuts); i++ {
			if d.Cuts[i] <= d.Cuts[i-1] {
				t.Fatalf("%s: cuts not increasing %v", name, d.Cuts)
			}
		}
		if math.IsNaN(d.V) || math.IsInf(d.V, 0) {
			t.Fatalf("%s: V = %v", name, d.V)
		}
	}
	d, err := DirSol(p, 20, c)
	check("DirSol", d, err)
	d, err = LogBdr(p, 3, 20, c)
	check("LogBdr", d, err)
	d, err = DynPgm(p, 4, 20, c)
	check("DynPgm", d, err)
	d, err = DynPgmP(p, 4, 20, c)
	check("DynPgmP", d, err)
}

func TestAllNegativePilot(t *testing.T) {
	// Zero-variance population: every design is optimal, nothing crashes.
	labels := make([]bool, 200)
	p := makePilot(t, labels, 40, 17)
	c := Constraints{MinStratumSize: 20, MinPilotPerStratum: 4}
	d, err := DirSol(p, 10, c)
	if err != nil {
		t.Fatal(err)
	}
	if d.V > 1e-12 {
		t.Fatalf("uniform population should give V=0, got %v", d.V)
	}
}

func TestCandidateBoundaries(t *testing.T) {
	p, err := NewPilot(1000, []int{99, 499, 899}, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	B := candidateBoundariesEps(p, 1)
	if B[len(B)-1] != 1000 {
		t.Fatalf("B must end at N: %v", B[len(B)-1])
	}
	has := func(v int) bool {
		for _, b := range B {
			if b == v {
				return true
			}
		}
		return false
	}
	// Rank positions themselves (1-based).
	for _, v := range []int{100, 500, 900} {
		if !has(v) {
			t.Fatalf("B missing rank %d: %v", v, B)
		}
	}
	// Power-of-two offsets from rank 100: 101, 102, 104, ...
	for _, v := range []int{101, 102, 104, 108} {
		if !has(v) {
			t.Fatalf("B missing forward offset %d", v)
		}
	}
	// Backward offsets from 500: 499, 498, 496, ...
	for _, v := range []int{499, 498, 496} {
		if !has(v) {
			t.Fatalf("B missing backward offset %d", v)
		}
	}
	for i := 1; i < len(B); i++ {
		if B[i] <= B[i-1] {
			t.Fatalf("B not strictly increasing: %v", B)
		}
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	p := makePilot(t, boundaryLabels(50, 0.5, 0, xrand.New(18)), 10, 19)
	if _, err := BruteForce(p, 3, 5, Constraints{MinStratumSize: 30, MinPilotPerStratum: 2}, true); err == nil {
		t.Fatal("infeasible brute force should error")
	}
}

func BenchmarkDirSol(b *testing.B) {
	r := xrand.New(20)
	N := 50000
	labels := boundaryLabels(N, 0.5, 0.05, r)
	perm := r.Perm(N)[:300]
	sort.Ints(perm)
	q := make([]bool, len(perm))
	for i, p := range perm {
		q[i] = labels[p]
	}
	pilot, err := NewPilot(N, perm, q)
	if err != nil {
		b.Fatal(err)
	}
	c := Constraints{MinStratumSize: 2500, MinPilotPerStratum: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DirSol(pilot, 1000, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynPgm has two shapes: a wide one (N = 50 000, 200 pilot labels)
// and the one the benchmark ledger's udf_learn workload hands the designer
// on every lss count (N = 10 000, 45 pilot labels, H = 4).
func BenchmarkDynPgm(b *testing.B) {
	b.Run("wide", func(b *testing.B) {
		r := xrand.New(21)
		N := 50000
		labels := boundaryLabels(N, 0.5, 0.05, r)
		perm := r.Perm(N)[:200]
		sort.Ints(perm)
		q := make([]bool, len(perm))
		for i, p := range perm {
			q[i] = labels[p]
		}
		pilot, err := NewPilot(N, perm, q)
		if err != nil {
			b.Fatal(err)
		}
		benchDynPgm(b, pilot, 4, 500, Constraints{MinStratumSize: 2500, MinPilotPerStratum: 5})
	})
	b.Run("ledger", func(b *testing.B) {
		pilot, H, n, c := ledgerShape(b)
		benchDynPgm(b, pilot, H, n, c)
	})
}

func benchDynPgm(b *testing.B, pilot *Pilot, H, n int, c Constraints) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DynPgm(pilot, H, n, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynPgmP(b *testing.B) {
	r := xrand.New(22)
	N := 50000
	labels := boundaryLabels(N, 0.5, 0.05, r)
	perm := r.Perm(N)[:200]
	sort.Ints(perm)
	q := make([]bool, len(perm))
	for i, p := range perm {
		q[i] = labels[p]
	}
	pilot, err := NewPilot(N, perm, q)
	if err != nil {
		b.Fatal(err)
	}
	c := Constraints{MinStratumSize: 500, MinPilotPerStratum: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DynPgmP(pilot, 9, 500, c); err != nil {
			b.Fatal(err)
		}
	}
}
