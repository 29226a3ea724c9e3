package stratify

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
)

// maxCandidates caps the candidate boundary set size. The paper's B has
// O(m log N) members; the dynamic programs evaluate one stratum per
// candidate pair (|B|²/2 of them, each followed by |T|·H table updates), so
// for very large pilots we thin the non-rank candidates to keep them
// affordable. Rank positions (the ı_k themselves) are always retained.
const maxCandidates = 1500

// candidateBoundariesEps builds B with offsets at powers of (1+ε) from each
// pilot rank — the paper's refinement trading running time for a tighter
// approximation ratio: for every pilot rank ı_k, positions ı_k + ⌈(1+ε)^t⌉
// (up to the next rank) and ı_k − ⌈(1+ε)^t⌉ (down to the previous rank),
// plus N. Returned positions are cut positions in [1, N].
func candidateBoundariesEps(p *Pilot, eps float64) []int {
	if eps <= 0 || eps > 1 {
		eps = 1
	}
	grow := func(step int) int {
		next := int(math.Ceil(float64(step) * (1 + eps)))
		if next <= step {
			next = step + 1
		}
		return next
	}
	out := []int{p.N}
	for k, pos := range p.Pos {
		cur := pos + 1 // 1-based rank
		prev, next := 0, p.N+1
		if k > 0 {
			prev = p.Pos[k-1] + 1
		}
		if k+1 < len(p.Pos) {
			next = p.Pos[k+1] + 1
		}
		out = append(out, cur)
		for step := 1; cur+step < next; step = grow(step) {
			out = append(out, cur+step)
		}
		for step := 1; cur-step > prev; step = grow(step) {
			out = append(out, cur-step)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if len(out) > maxCandidates {
		out = thinCandidates(out, p)
	}
	return out
}

// thinCandidates keeps all rank positions and N, and an even subsample of
// the rest, bounding |B| near maxCandidates.
func thinCandidates(b []int, p *Pilot) []int {
	keep := make(map[int]bool, p.M()+1)
	for _, pos := range p.Pos {
		keep[pos+1] = true
	}
	keep[p.N] = true
	var extras []int
	for _, v := range b {
		if !keep[v] {
			extras = append(extras, v)
		}
	}
	budget := maxCandidates - len(keep)
	if budget < 0 {
		budget = 0
	}
	out := make([]int, 0, maxCandidates)
	for v := range keep {
		out = append(out, v)
	}
	if budget > 0 && len(extras) > 0 {
		stride := (len(extras) + budget - 1) / budget
		for i := 0; i < len(extras); i += stride {
			out = append(out, extras[i])
		}
	}
	slices.Sort(out)
	return out
}

// DynPgm is the scalable Neyman-allocation designer of §4.2.1 and Appendix
// C. The objective (5) is not separable because of the auxiliary sum
// Σ_{h'<h} N_h' s_h'; the algorithm solves one dynamic program per guessed
// bound t ∈ T = {2^t ≤ mHN} under the constraint N_h s_h ≤ t, and returns
// the best design found across all t.
//
// All |T| programs run in one sweep over the candidate pairs: a stratum's
// size, variance and N_h s_h depend on the pair alone, so they are evaluated
// once per pair (|B|²/2 evaluations) and every bound that admits the pair
// and every level h then takes one multiply-add-compare from flat tables —
// |T|·H cheap updates per pair instead of |T|·H stratum evaluations.
//
// Theorem 3: assuming N_⊔ ≥ 4n, the result is within 14/3·(10H−9) of the
// optimum, in O(N log m + H m² log³ N) time.
func DynPgm(p *Pilot, H, n int, c Constraints) (*Design, error) {
	return DynPgmEps(p, H, n, c, 1)
}

// DynPgmEps is DynPgm with the paper's (1+ε) refinement: candidate
// boundaries at powers of (1+ε) and auxiliary-sum bounds T = {(1+ε)^i},
// improving the approximation ratio to 7(1+ε)/3·[5(1+ε)(H−1)+1] at
// O(1/ε³) extra cost. ε must lie in (0, 1]; ε = 1 recovers DynPgm.
func DynPgmEps(p *Pilot, H, n int, c Constraints, eps float64) (*Design, error) {
	c = c.normalized()
	if err := validateDesignInput(p, H, n, c); err != nil {
		return nil, err
	}
	if eps <= 0 || eps > 1 {
		eps = 1
	}
	B, T := candidateBoundariesEps(p, eps), sumBounds(p.N, eps)
	var best *Design
	for _, cuts := range sweep(p, B, H, c, eq5(n), T) {
		if cuts == nil {
			continue
		}
		if v := NeymanObjective(p, cuts, n); best == nil || v < best.V {
			best = &Design{Cuts: cuts, V: v, Candidates: len(B), Bounds: len(T)}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("stratify: DynPgm found no feasible %d-stratification", H)
	}
	return best, nil
}

// sumBounds is T, the guessed bounds on N_h·s_h: ascending powers of (1+ε).
// The paper bounds T by mHN, but N_h·s_h never exceeds N/2 (binary variance
// caps s at ~0.5), so every t ≥ N/2 yields the same unconstrained program —
// T stops at the first such t.
func sumBounds(N int, eps float64) []float64 {
	var T []float64
	for t, limit := 1.0, float64(N)/2; ; t *= 1 + eps {
		T = append(T, t)
		if t >= limit {
			return T
		}
	}
}

// DynPgmP is the proportional-allocation designer of §4.2.2 and Appendix D.
// Objective (6) is separable, so a single unbounded pass of the sweep
// suffices.
//
// Theorem 4: the result is within a factor 2 of the optimal proportional-
// allocation stratification, in O(N log m + H m² log² N) time.
func DynPgmP(p *Pilot, H, n int, c Constraints) (*Design, error) {
	return DynPgmPEps(p, H, n, c, 1)
}

// DynPgmPEps is DynPgmP with (1+ε)-spaced candidate boundaries, improving
// the approximation ratio from 2 to (1+ε) at O(1/ε²) extra cost. ε must lie
// in (0, 1]; ε = 1 recovers DynPgmP.
func DynPgmPEps(p *Pilot, H, n int, c Constraints, eps float64) (*Design, error) {
	c = c.normalized()
	if err := validateDesignInput(p, H, n, c); err != nil {
		return nil, err
	}
	B := candidateBoundariesEps(p, eps)
	cuts := sweep(p, B, H, c, eq6(p.N, n), []float64{0})[0]
	if cuts == nil {
		return nil, fmt.Errorf("stratify: DynPgmP found no feasible %d-stratification", H)
	}
	return &Design{Cuts: cuts, V: PropObjective(p, cuts, n), Candidates: len(B)}, nil
}

// objective prices one stratum for the sweep: eq. (5), whose auxiliary sum
// couples the strata, or the separable eq. (6).
type objective struct {
	n, scale  float64 // eq. (5): n and 2/n; eq. (6): scale = (N−n)/n
	separable bool
}

func eq5(n int) objective { return objective{n: float64(n), scale: 2 / float64(n)} }

func eq6(N, n int) objective {
	return objective{separable: true, scale: float64(N-n) / float64(n)}
}

// terms returns a stratum's load N_h·s_h on the auxiliary sum and the
// coefficients of the relaxation prevA + add − sub + cross·prevX. The
// products are rounded explicitly so that a fusing compiler cannot make the
// hoisted terms differ from the inline expression they replaced.
func (o objective) terms(size, s2, s float64) (load, add, sub, cross float64) {
	if o.separable {
		return 0, float64(o.scale * size * s2), 0, 0
	}
	load = float64(size * s)
	return load, float64(load * load / o.n), float64(size * s2), float64(o.scale * load)
}

// cell is one dynamic-program state: the best Σ-term value a for h strata
// ending at a boundary under one bound, and x, that design's auxiliary sum.
type cell struct{ a, x float64 }

// sweepBuffers is the scratch of one sweep, kept between designs on
// sweepScratch. Each pass's table is one column of R cells, R = level(H)+1
// in sweep's numbering: cell (level h, row r) of leader q sits at col[q] +
// level(h) + r in tab, and its parent row at the same place in parent.
// Passes that have admitted the same pairs so far are identical; only the
// first of each such run — its leader — has a column and is kept up to
// date, and a pass gets a column of its own, appended to tab as a copy of
// its leader's, when the first pair arrives that it admits and its leader
// does not.
type sweepBuffers struct {
	tab    []cell
	parent []int32
	lead   []int // leader passes, ascending; lead[0] = 0
	slot   []int // slot[k] = index of pass k in lead, −1 while k follows a leader
	col    []int // col[k]: the first cell of leader k's column in tab
	born   []int // born[k]: the row whose pair made pass k a leader (0 for pass 0); read by the tests

	pos, cnt, pre, suf, from []int

	terms []pairTerms // per parent row j of the row being relaxed
}

// pairTerms is the pair (j, i) of the row i being relaxed: its stratum's
// load and relaxation coefficients (objective.terms), and the first bound
// that admits it (|T| when none does).
type pairTerms struct {
	load, add, sub, cross float64
	bound                 int32
}

var sweepScratch = par.NewFreeList((*sweepBuffers).bytes)

// bytes is the heap s holds.
func (s *sweepBuffers) bytes() int {
	return 16*cap(s.tab) + 4*cap(s.parent) + 40*cap(s.terms) +
		8*(cap(s.lead)+cap(s.slot)+cap(s.col)+cap(s.born)+cap(s.pos)+cap(s.cnt)+cap(s.pre)+cap(s.suf)+cap(s.from))
}

// grow returns x with length n, on its own array when that is large enough.
// The contents are whatever the array held.
func grow[E any](x []E, n int) []E { return slices.Grow(x[:0], n)[:n] }

// split makes pass k a leader before row i is relaxed. Its column is a copy
// of its leader's: rows below i are final and row i is still +Inf, and every
// pair of an earlier row that the leader admitted k admits too.
func (s *sweepBuffers) split(k, i, R int) {
	li := 1
	for li < len(s.lead) && s.lead[li] < k {
		li++
	}
	from := s.lead[li-1]
	s.lead = slices.Insert(s.lead, li, k)
	for x, q := range s.lead[li:] {
		s.slot[q] = li + x
	}
	at := s.col[from]
	s.col[k], s.born[k] = len(s.tab), i
	s.tab = append(s.tab, s.tab[at:at+R]...)
	s.parent = append(s.parent, s.parent[at:at+R]...)
}

// sweep runs the design sweep (sweepBuffers.run) on scratch from
// sweepScratch.
func sweep(p *Pilot, B []int, H int, c Constraints, obj objective, T []float64) [][]int {
	s := sweepScratch.Get()
	defer sweepScratch.Put(s)
	return s.run(p, B, H, c, obj, T)
}

// run solves, for every bound T[k] (ascending) at once, the dynamic program
// min Σ_h cost(stratum h) over H-stratifications with cuts in B, subject to
// c and to load ≤ T[k] for every stratum, and returns the cuts of each (nil
// where no feasible design exists). Every candidate pair is evaluated once;
// ties resolve to the smallest parent boundary, exactly as a per-bound,
// per-level pass over ascending parents would.
//
// Only cells that can lie on a path to the answer are visited. Every stratum
// holds at least c.MinStratumSize objects and c.MinPilotPerStratum pilot
// labels, so at most pre[r] strata fit below candidate r and at most suf[r]
// above it: a cell above level pre[r] is unreachable (+Inf), and one below
// level H − suf[r] cannot be completed. A pair relaxes only the source levels
// between those bounds, and a row's parents start at the first row that can
// feed it. A cell kept live only ever reads live sources, and the skipped
// updates read +Inf or write cells no live one reads, so the cuts, values
// and tie-breaks are the unpruned program's.
//
// Row i is relaxed in two steps. The first prices each pair (j, i) once and
// finds the first bound that admits it. The second walks every leader's
// column, pass-major: for each source level, one scan over the parents j in
// ascending order, reading the column at consecutive rows, keeps the first
// strict minimum — the comparisons, in the order, that updating the cell
// pair by pair makes — and writes the cell once.
//
// A column is (H−1)·(|B|+1)+2 cells of 20 bytes (16 in tab, 4 in parent):
// 46 KB at the benchmark ledger's udf_learn shape (|B| = 758, H = 4), where
// 5 of the |T| = 14 passes lead, and 150 KB at the maxCandidates cap and
// H = 6, the most strata LSS hands DynPgm, for at most |T| = 20 columns.
func (s *sweepBuffers) run(p *Pilot, B []int, H int, c Constraints, obj objective, T []float64) [][]int {
	nb, nT := len(B), len(T)
	// Row 0 is the sentinel boundary 0; row r ≥ 1 is candidate B[r-1].
	rows := nb + 1
	s.pos, s.cnt = grow(s.pos, rows), grow(s.cnt, rows)
	pos, cnt := s.pos, s.cnt
	pos[0], cnt[0] = 0, 0
	for r, b := range B {
		pos[r+1], cnt[r+1] = b, p.CountUpTo(b)
	}
	// Level 0 is the single sentinel row (a = x = 0), levels 1..H−1 hold
	// every row, and level H only the last one: no other level-H cell, and
	// no lower cell of the last row, lies on a path to the answer.
	level := func(h int) int { return 1 + (h-1)*rows }
	R := level(H) + 1
	s.tab, s.parent = grow(s.tab, R), grow(s.parent, R)
	s.tab[0] = cell{}
	for i := 1; i < R; i++ {
		// +Inf, not MaxFloat64: relaxing from an unreachable cell then
		// yields +Inf and loses every comparison without a test.
		s.tab[i] = cell{a: math.Inf(1)}
	}
	s.lead = append(slices.Grow(s.lead[:0], nT), 0)
	s.slot, s.col, s.born = grow(s.slot, nT), grow(s.col, nT), grow(s.born, nT)
	for k := range s.slot {
		s.slot[k] = -1
	}
	s.slot[0], s.col[0], s.born[0] = 0, 0, 0
	// c is normalized: both minimums are positive.
	nu, mu := c.MinStratumSize, c.MinPilotPerStratum
	s.pre, s.suf = grow(s.pre, rows), grow(s.suf, rows)
	pre, suf := s.pre, s.suf
	for r := range rows {
		pre[r] = min(pos[r]/nu, cnt[r]/mu, H)
		suf[r] = min((p.N-pos[r])/nu, (p.M()-cnt[r])/mu, H)
	}
	// from[h] is the first row with pre ≥ h; pre only grows with the row.
	s.from = grow(s.from, H+1)
	from := s.from
	for h, r := 0, 0; h <= H; h++ {
		for r < rows && pre[r] < h {
			r++
		}
		from[h] = r
	}

	s.terms = grow(s.terms, rows)
	terms := s.terms
	jhi, k := -1, 0
	for i := 1; i <= nb; i++ {
		// Both constraints are monotone in the parent row, so the feasible
		// parents of row i are 0..jhi, and jhi only grows with i.
		for jhi+1 < i && pos[i]-pos[jhi+1] >= c.MinStratumSize && cnt[i]-cnt[jhi+1] >= c.MinPilotPerStratum {
			jhi++
		}
		// A stratum ending at i closes from source levels hl to at most
		// H−2, or from level H−1 into the answer; rows from first on reach
		// hl. The sentinel opens level 1 when the stratum can be the first
		// of a path.
		hl, hh := max(H-1-suf[i], 1), H-2
		if i == nb {
			hh = H - 1
		}
		first := from[hl]
		if hl > hh {
			first = jhi + 1 // no candidate row feeds i
		}
		sentinel := suf[i] >= H-1 && i < nb
		if !sentinel && first > jhi {
			continue
		}
		// Price every pair (j, i) once and find the first bound that
		// admits it, making that bound a leader if it is not one yet.
		// Row i is still +Inf in every column, so a split copies the rows
		// below it, all final.
		j := first
		if sentinel {
			j = 0
		}
		lo, s2, sd := -1, 0.0, 0.0
		for ; j <= jhi; j = max(j+1, first) {
			if cnt[j] != lo { // the variance changes only with the pilot count
				lo = cnt[j]
				_, s2 = p.SampleStats(lo, cnt[i])
				sd = math.Sqrt(s2)
			}
			t := &terms[j]
			t.load, t.add, t.sub, t.cross = obj.terms(float64(pos[i]-pos[j]), s2, sd)
			// k is the first bound that admits the pair (all later ones do
			// too); loads change little between neighbours, so the search
			// starts where the previous pair's ended.
			for k > 0 && t.load <= T[k-1] {
				k--
			}
			for k < nT && t.load > T[k] {
				k++
			}
			t.bound = int32(k)
			if k == nT {
				k--
				continue
			}
			if s.slot[k] < 0 {
				s.split(k, i, R)
			}
		}
		// Relax row i in every leader's column: a pass takes the pairs
		// its bound admits, and each cell keeps the first minimum over
		// its parents in ascending order — the sentinel into level 1,
		// and source level h from the rows with pre ≥ h into level h+1
		// (the answer's one cell when i is the last row).
		for _, q := range s.lead {
			base := s.col[q]
			tc, pc := s.tab[base:base+R], s.parent[base:base+R]
			if sentinel && terms[0].bound <= int32(q) {
				t, to := &terms[0], level(1)+i
				if cand := tc[0].a + t.add - t.sub + float64(t.cross*tc[0].x); cand < tc[to].a {
					tc[to], pc[to] = cell{cand, tc[0].x + t.load}, 0
				}
			}
			for h := hl; h <= hh; h++ {
				to := level(h+1) + i
				if i == nb {
					to = level(H)
				}
				pairs := terms[:jhi+1]
				src := tc[level(h):][:len(pairs)]
				best, bx, bj := tc[to].a, 0.0, -1
				for j := max(from[h], 1); j < len(pairs); j++ {
					t := &pairs[j]
					if t.bound > int32(q) {
						continue
					}
					f := src[j]
					if cand := f.a + t.add - t.sub + float64(t.cross*f.x); cand < best {
						best, bx, bj = cand, f.x+t.load, j
					}
				}
				if bj >= 0 {
					tc[to], pc[to] = cell{best, bx}, int32(bj)
				}
			}
		}
	}

	tab, parent, lead, col := s.tab, s.parent, s.lead, s.col
	out := make([][]int, nT)
	for pass, li := 0, 0; pass < nT; pass++ {
		if li+1 < len(lead) && lead[li+1] == pass {
			li++
		}
		q := lead[li]
		if q < pass { // never split from its leader: the same design
			out[pass] = out[q]
			continue
		}
		tc, pc, at := tab[col[q]:col[q]+R], parent[col[q]:col[q]+R], level(H)
		if math.IsInf(tc[at].a, 1) {
			continue
		}
		cuts := make([]int, H+1)
		cuts[H] = p.N
		for h := H; h >= 1; h-- {
			r := int(pc[at])
			cuts[h-1], at = pos[r], level(h-1)+r
		}
		out[pass] = cuts
	}
	return out
}
