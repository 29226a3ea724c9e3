package stratify

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// The per-bound, per-level dynamic programs the sweep replaced, kept as the
// slow reference it is differentially tested against (ROADMAP 3c). They
// evaluate the stratum statistics inside the innermost loop, once per
// (bound, level, candidate pair).

func refTables(p *Pilot, B []int) (bPos, lOf func(j int) int) {
	L := make([]int, len(B))
	for i, b := range B {
		L[i] = p.CountUpTo(b)
	}
	bPos = func(j int) int {
		if j < 0 {
			return 0
		}
		return B[j]
	}
	lOf = func(j int) int {
		if j < 0 {
			return 0
		}
		return L[j]
	}
	return bPos, lOf
}

// refDP runs one reference program: cost returns a candidate's value given
// the previous level's (A, X) and whether the bound t admits the stratum.
func refDP(p *Pilot, B []int, H int, c Constraints,
	cost func(size int, s2, prevA, prevX float64) (cand, x float64, ok bool)) []int {

	nb := len(B)
	const inf = math.MaxFloat64
	bPos, lOf := refTables(p, B)
	A := make([][]float64, H+1)
	X := make([][]float64, H+1)
	parent := make([][]int, H+1)
	for h := 0; h <= H; h++ {
		A[h] = make([]float64, nb)
		X[h] = make([]float64, nb)
		parent[h] = make([]int, nb)
		for i := range A[h] {
			A[h][i] = inf
			parent[h][i] = -2
		}
	}
	for h := 1; h <= H; h++ {
		for i := 0; i < nb; i++ {
			// The first stratum must start at the sentinel boundary 0; later
			// strata start at a previously chosen boundary.
			lo, hiJ := 0, i
			if h == 1 {
				lo, hiJ = -1, 0
			}
			for j := lo; j < hiJ; j++ {
				if h > 1 && A[h-1][j] == inf {
					continue
				}
				size := B[i] - bPos(j)
				if size < c.MinStratumSize {
					continue
				}
				if lOf(i)-lOf(j) < c.MinPilotPerStratum {
					continue
				}
				_, s2 := p.SampleStats(lOf(j), lOf(i))
				var prevA, prevX float64
				if h > 1 {
					prevA, prevX = A[h-1][j], X[h-1][j]
				}
				cand, x, ok := cost(size, s2, prevA, prevX)
				if ok && cand < A[h][i] {
					A[h][i], X[h][i], parent[h][i] = cand, x, j
				}
			}
		}
	}
	if A[H][nb-1] == inf {
		return nil
	}
	cuts := make([]int, H+1)
	cuts[H] = p.N
	i := nb - 1
	for h := H; h >= 1; h-- {
		j := parent[h][i]
		if j == -2 {
			return nil
		}
		cuts[h-1] = bPos(j)
		i = j
	}
	return cuts
}

// dynNeymanPass is the old DynPgm inner program for one bound t. Products
// feeding a sum are rounded explicitly, which is what amd64 computes anyway
// and keeps the comparison exact on architectures that fuse multiply-adds.
func dynNeymanPass(p *Pilot, B []int, H, n int, c Constraints, t float64) []int {
	nf := float64(n)
	return refDP(p, B, H, c, func(size int, s2, prevA, prevX float64) (float64, float64, bool) {
		Ns := float64(float64(size) * math.Sqrt(s2))
		if Ns > t {
			return 0, 0, false
		}
		cand := prevA + float64(Ns*Ns/nf) - float64(float64(size)*s2) + float64(2/nf*Ns*prevX)
		return cand, prevX + Ns, true
	})
}

// dynPropPass is the old DynPgmP program.
func dynPropPass(p *Pilot, B []int, H, n int, c Constraints) []int {
	scale := float64(p.N-n) / float64(n)
	return refDP(p, B, H, c, func(size int, s2, prevA, _ float64) (float64, float64, bool) {
		return prevA + float64(scale*float64(size)*s2), 0, true
	})
}

// randomDesignCase draws a pilot and designer inputs from r: N 50–20 000,
// m 8–128, H 2–6, ε ∈ {1, 0.5}, loose or tight constraints. Tight ones are
// near the largest feasible values, so many bounds admit no design.
func randomDesignCase(r *xrand.Rand) (p *Pilot, H, n int, c Constraints, eps float64) {
	// The reference costs |T|·H·|B|² stratum evaluations, so large
	// populations and large pilots are each a third / a quarter of the draws.
	N := 50 + r.IntN(19951)
	switch r.IntN(3) {
	case 0:
		N = 50 + r.IntN(400) // small: every candidate is a neighbour
	case 1:
		N = 450 + r.IntN(1550)
	}
	m := 8 + r.IntN(33)
	if r.IntN(4) == 0 {
		m = 8 + r.IntN(121)
	}
	if m > N/2 {
		m = N / 2
	}
	H = 2 + r.IntN(5)
	eps = 1
	if r.IntN(2) == 0 {
		eps = 0.5
	}
	// Labels ordered like a classifier's scores: a noisy step, sometimes
	// pure, sometimes pure noise.
	frac, noise := r.Float64(), []float64{0, 0.05, 0.2, 0.5}[r.IntN(4)]
	pos := r.Perm(N)[:m]
	slices.Sort(pos)
	q := make([]bool, m)
	for k, at := range pos {
		q[k] = float64(at) >= frac*float64(N)
		if r.Float64() < noise {
			q[k] = !q[k]
		}
	}
	p, err := NewPilot(N, pos, q)
	if err != nil {
		panic(err)
	}
	c = Constraints{MinStratumSize: 1 + r.IntN(3), MinPilotPerStratum: 2}
	if r.IntN(2) == 0 {
		c = Constraints{MinStratumSize: N / H * (60 + r.IntN(41)) / 100, MinPilotPerStratum: max(2, m/H*(50+r.IntN(51))/100)}
	}
	n = 1 + r.IntN(N)
	return p, H, n, c, eps
}

// checkSweepAgainstReference asserts the sweep equals the reference bit for
// bit — nil-ness, cuts and objective — for every bound of DynPgm and for
// DynPgmP, and that each design is feasible with V the objective of its
// cuts. It returns the number of feasible per-bound designs seen, or −1 when
// the designers reject the input outright, and the DynPgm sweep's late
// splits (lateSplits).
func checkSweepAgainstReference(t *testing.T, p *Pilot, H, n int, c Constraints, eps float64) (feasible, late int) {
	t.Helper()
	c = c.normalized()
	if validateDesignInput(p, H, n, c) != nil {
		if _, err := DynPgmEps(p, H, n, c, eps); err == nil {
			t.Fatal("DynPgmEps accepted invalid input")
		}
		return -1, 0
	}
	B, T := candidateBoundariesEps(p, eps), sumBounds(p.N, eps)
	s := new(sweepBuffers)
	got := s.run(p, B, H, c, eq5(n), T)
	late = lateSplits(s, H, len(B)+1)
	if len(got) != len(T) {
		t.Fatalf("sweep returned %d designs for %d bounds", len(got), len(T))
	}
	var best *Design
	for k, bound := range T {
		want := dynNeymanPass(p, B, H, n, c, bound)
		if !slices.Equal(got[k], want) || (got[k] == nil) != (want == nil) {
			t.Fatalf("bound %d (t=%v): sweep cuts %v, reference %v", k, bound, got[k], want)
		}
		if want == nil {
			continue
		}
		feasible++
		if !c.feasible(p, want) {
			t.Fatalf("bound %d: infeasible cuts %v under %+v", k, want, c)
		}
		if v := NeymanObjective(p, want, n); best == nil || v < best.V {
			best = &Design{Cuts: want, V: v}
		}
	}
	checkDesign(t, "DynPgm", best, NeymanObjective, p, H, n, c, func() (*Design, error) { return DynPgmEps(p, H, n, c, eps) })

	var prop *Design
	if cuts := dynPropPass(p, B, H, n, c); cuts != nil {
		prop = &Design{Cuts: cuts, V: PropObjective(p, cuts, n)}
	}
	checkDesign(t, "DynPgmP", prop, PropObjective, p, H, n, c, func() (*Design, error) { return DynPgmPEps(p, H, n, c, eps) })
	return feasible, late
}

// lateSplits counts the passes a sweep split off after cells were live:
// those whose column holds a reached cell (level 1 … H−1, a candidate row)
// below the row whose pair split them. Rows below that one were final when
// the column was copied and are never written again, so such a column's
// answer rests on a copy of relaxed cells.
func lateSplits(s *sweepBuffers, H, rows int) int {
	late := 0
	for _, k := range s.lead[1:] {
		col := s.tab[s.col[k]:]
		for at := 1; at < 1+(H-1)*rows; at++ {
			if r := (at - 1) % rows; r >= 1 && r < s.born[k] && !math.IsInf(col[at].a, 1) {
				late++
				break
			}
		}
	}
	return late
}

// checkDesign compares a designer's answer with the reference design (nil =
// infeasible) and re-derives its invariants.
func checkDesign(t *testing.T, name string, want *Design, eval func(*Pilot, []int, int) float64,
	p *Pilot, H, n int, c Constraints, run func() (*Design, error)) {

	t.Helper()
	got, err := run()
	if (err != nil) != (want == nil) {
		t.Fatalf("%s: err %v, reference design %v", name, err, want)
	}
	if want == nil {
		return
	}
	if !slices.Equal(got.Cuts, want.Cuts) || math.Float64bits(got.V) != math.Float64bits(want.V) {
		t.Fatalf("%s: cuts %v V %x, reference cuts %v V %x", name, got.Cuts, math.Float64bits(got.V), want.Cuts, math.Float64bits(want.V))
	}
	if len(got.Cuts) != H+1 || !c.feasible(p, got.Cuts) {
		t.Fatalf("%s: %v is not a feasible %d-stratification under %+v", name, got.Cuts, H, c)
	}
	if v := eval(p, got.Cuts, n); math.Float64bits(v) != math.Float64bits(got.V) {
		t.Fatalf("%s: V %v is not the objective %v of its cuts", name, got.V, v)
	}
}

func TestSweepMatchesReference(t *testing.T) {
	// A pass split off after cells are live starts from a copy of its
	// leader's relaxed column; at ε = ½ this shape splits ten such passes,
	// so each copied column's answer is checked against its bound's own
	// reference program.
	t.Run("late_splits", func(t *testing.T) {
		p, H, n, c, eps := fuzzDesignCase(t, lateSplitCase.seed, lateSplitCase.N, lateSplitCase.m, lateSplitCase.H,
			lateSplitCase.minSize, lateSplitCase.minPilot, lateSplitCase.halfEps)
		if f, late := checkSweepAgainstReference(t, p, H, n, c, eps); f <= 0 || late < 4 {
			t.Fatalf("%d feasible per-bound designs, %d passes split after cells were live; want designs and at least 4 such splits", f, late)
		}
	})

	const cases = 340
	r := xrand.New(1404)
	ran, designs, infeasible := 0, 0, 0
	for i := 0; i < cases; i++ {
		p, H, n, c, eps := randomDesignCase(r)
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			switch f, _ := checkSweepAgainstReference(t, p, H, n, c, eps); {
			case f > 0:
				ran, designs = ran+1, designs+f
			case f == 0:
				ran, infeasible = ran+1, infeasible+1
			}
		})
	}
	// The table must be large and exercise both outcomes, or it proves
	// nothing about one of them.
	if ran < 300 || designs < 2*ran || infeasible < 10 {
		t.Fatalf("thin table: %d pilots reached the sweep, %d feasible per-bound designs, %d wholly infeasible pilots",
			ran, designs, infeasible)
	}

	// Tight shapes, where the sweep's prefix and suffix bounds both bind
	// at every level: N_⊔ = ⌊N/H⌋ and m_⊔ = ⌊m/H⌋, so only near-equal
	// layouts are feasible, at ε = ½. Evenly spaced pilots admit some;
	// random ones mostly do not.
	tight := 0
	for H := 2; H <= 6; H++ {
		for _, sh := range []struct {
			N, m int
			even bool
		}{{200, 20, true}, {1000, 45, true}, {1000, 45, false}, {5000, 90, true}, {5000, 90, false}} {
			p := tightPilot(t, sh.N, sh.m, sh.even, r)
			c := Constraints{MinStratumSize: sh.N / H, MinPilotPerStratum: sh.m / H}
			t.Run(fmt.Sprintf("tight_H%d_N%d_m%d_even%v", H, sh.N, sh.m, sh.even), func(t *testing.T) {
				if f, _ := checkSweepAgainstReference(t, p, H, sh.N/10, c, 0.5); f > 0 {
					tight++
				}
			})
		}
	}
	if tight < 5 {
		t.Fatalf("only %d tight shapes have a feasible design", tight)
	}
}

// lateSplitCase is FuzzDesignSweep's arguments for a shape (N = 3000,
// m = 30, H = 4, ε = ½) whose DynPgm sweep splits ten passes off after
// cells are live.
var lateSplitCase = struct {
	seed              uint64
	N                 uint16
	m, H              uint8
	minSize, minPilot uint8
	halfEps           bool
}{1, 3000, 30, 2, 20, 2, true}

// tightPilot draws m pilot positions among N objects, evenly spaced or at
// random, labeled by a noisy step.
func tightPilot(tb testing.TB, N, m int, even bool, r *xrand.Rand) *Pilot {
	tb.Helper()
	labels := boundaryLabels(N, 0.6, 0.1, r)
	pos := r.Perm(N)[:m]
	if even {
		for k := range pos {
			pos[k] = k * N / m
		}
	}
	slices.Sort(pos)
	q := make([]bool, m)
	for k, at := range pos {
		q[k] = labels[at]
	}
	p, err := NewPilot(N, pos, q)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestSweepAtLedgerShape pins the differential check at the shape the
// benchmark ledger runs (udf_learn: N = 10 000, 45 pilot labels, H = 4).
func TestSweepAtLedgerShape(t *testing.T) {
	p, H, n, c := ledgerShape(t)
	if f, _ := checkSweepAgainstReference(t, p, H, n, c, 1); f == 0 {
		t.Fatal("ledger shape has no feasible design")
	}
}

// ledgerShape is the designer input of the ledger's udf_learn workload:
// 10 000 objects in score order, a 2 % budget of which a quarter trains the
// classifier and 30 % of the rest is the pilot, LSS's own constraints.
func ledgerShape(tb testing.TB) (p *Pilot, H, n int, c Constraints) {
	tb.Helper()
	const N, m = 10000, 45
	H, n = 4, 150-m
	labels := boundaryLabels(N, 0.72, 0.04, xrand.New(23))
	pos, q := make([]int, m), make([]bool, m)
	for k := range pos {
		pos[k] = k * N / m
		q[k] = labels[pos[k]]
	}
	p, err := NewPilot(N, pos, q)
	if err != nil {
		tb.Fatal(err)
	}
	return p, H, n, Constraints{MinStratumSize: N / (5 * H), MinPilotPerStratum: m / (3 * H)}
}

// FuzzDesignSweep drives the same differential check from fuzzer-chosen
// seeds and shapes (the seed expands into the pilot's positions and labels).
func FuzzDesignSweep(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(20), uint8(3), uint8(10), uint8(2), false)
	f.Add(uint64(7), uint16(5000), uint8(45), uint8(4), uint8(250), uint8(3), true)
	f.Add(uint64(9), uint16(64), uint8(8), uint8(2), uint8(1), uint8(2), true)
	// Tight shapes (N = 1000, m = 48): N_⊔ = ⌊N/H⌋ and m_⊔ = ⌊m/H⌋ for
	// H = 2…6, so the prefix and suffix bounds bind at every level.
	for h := 2; h <= 6; h++ {
		f.Add(uint64(10+h), uint16(950), uint8(40), uint8(h-2), uint8(200), uint8(48/h), true)
	}
	lc := lateSplitCase
	f.Add(lc.seed, lc.N, lc.m, lc.H, lc.minSize, lc.minPilot, lc.halfEps)
	f.Fuzz(func(t *testing.T, seed uint64, N uint16, m, H uint8, minSize, minPilot uint8, halfEps bool) {
		p, h, n, c, eps := fuzzDesignCase(t, seed, N, m, H, minSize, minPilot, halfEps)
		checkSweepAgainstReference(t, p, h, n, c, eps)
	})
}

// fuzzDesignCase expands FuzzDesignSweep's arguments into a designer input:
// a pilot of 8–128 labels at random positions among 50–20 000 objects,
// labeled by a noisy step, H = 2…6, and constraints scaled to the shape.
func fuzzDesignCase(tb testing.TB, seed uint64, N uint16, m, H uint8, minSize, minPilot uint8, halfEps bool) (p *Pilot, h, n int, c Constraints, eps float64) {
	tb.Helper()
	r := xrand.New(seed)
	objs, mm := 50+int(N)%19951, 8+int(m)%121
	h = 2 + int(H)%5
	if mm > objs/2 {
		mm = objs / 2
	}
	pos := r.Perm(objs)[:mm]
	slices.Sort(pos)
	q := make([]bool, mm)
	frac, noise := r.Float64(), r.Float64()/2
	for k, at := range pos {
		q[k] = (float64(at) >= frac*float64(objs)) != (r.Float64() < noise)
	}
	p, err := NewPilot(objs, pos, q)
	if err != nil {
		tb.Fatal(err)
	}
	eps = 1.0
	if halfEps {
		eps = 0.5
	}
	c = Constraints{MinStratumSize: int(minSize) * objs / (h * 200), MinPilotPerStratum: int(minPilot) % (mm/h + 2)}
	return p, h, 1 + r.IntN(objs), c, eps
}
