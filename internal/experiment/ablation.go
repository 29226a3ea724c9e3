package experiment

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stratify"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// AblateDesigners compares the four stratification-design algorithms (plus
// their (1+ε)-refined variants) on identical pilots drawn from a real
// workload: achieved objective value V and design wall time. This is the
// ablation DESIGN.md calls out for the §4.2.1 speed/optimality trade-off.
func AblateDesigners(o Options) (*Report, error) {
	name := o.Dataset
	if name == "" {
		name = "neighbors"
	}
	suite, err := o.buildSuite(name)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "ablate-designers",
		Title:  "Stratification designers: objective value vs design time",
		Header: []string{"dataset", "size", "algo", "H", "pilot_m", "V", "design_ms"},
	}
	r := xrand.New(o.seed())
	for _, sz := range figureSizes {
		in := suite.Instances[sz]
		// Build a realistic pilot: order objects by a trained classifier's
		// score, then SRS a pilot and label it.
		obj := in.Objects()
		budget := budgetFor(in, o.fracs()[0])
		nLearn := budget / 4
		clf := forestClf(r.Uint64())
		trainIdx := sample.SRS(r, in.N(), nLearn)
		X := make([][]float64, len(trainIdx))
		y := make([]bool, len(trainIdx))
		for j, i := range trainIdx {
			X[j] = obj.Features[i]
			y[j] = obj.Pred.Eval(i)
		}
		if err := clf.Fit(X, y); err != nil {
			return nil, err
		}
		type scored struct {
			idx int
			g   float64
		}
		rest := make([]scored, 0, in.N()-nLearn)
		inTrain := make(map[int]bool, nLearn)
		for _, i := range trainIdx {
			inTrain[i] = true
		}
		for i := 0; i < in.N(); i++ {
			if !inTrain[i] {
				rest = append(rest, scored{i, clf.Score(obj.Features[i])})
			}
		}
		sort.SliceStable(rest, func(a, b int) bool {
			if rest[a].g != rest[b].g {
				return rest[a].g < rest[b].g
			}
			return rest[a].idx < rest[b].idx
		})
		M := len(rest)
		sampling := budget - nLearn
		nI := sampling * 3 / 10
		nII := sampling - nI
		pos := sample.SRS(r, M, nI)
		sort.Ints(pos)
		q := make([]bool, len(pos))
		for j, p := range pos {
			q[j] = obj.Pred.Eval(rest[p].idx)
		}
		pilot, err := stratify.NewPilot(M, pos, q)
		if err != nil {
			return nil, err
		}
		c := stratify.Constraints{MinStratumSize: max(2, M/20), MinPilotPerStratum: max(2, min(5, nI/12))}

		type algo struct {
			label string
			h     int
			run   func() (*stratify.Design, error)
		}
		algos := []algo{
			{"dirsol", 3, func() (*stratify.Design, error) { return stratify.DirSol(pilot, nII, c) }},
			{"logbdr", 3, func() (*stratify.Design, error) { return stratify.LogBdr(pilot, 3, nII, c) }},
			{"dynpgm", 3, func() (*stratify.Design, error) { return stratify.DynPgm(pilot, 3, nII, c) }},
			{"dynpgm", 4, func() (*stratify.Design, error) { return stratify.DynPgm(pilot, 4, nII, c) }},
			{"dynpgm(e=.5)", 4, func() (*stratify.Design, error) { return stratify.DynPgmEps(pilot, 4, nII, c, 0.5) }},
			{"dynpgmp", 4, func() (*stratify.Design, error) { return stratify.DynPgmP(pilot, 4, nII, c) }},
			{"dynpgmp(e=.5)", 4, func() (*stratify.Design, error) { return stratify.DynPgmPEps(pilot, 4, nII, c, 0.5) }},
		}
		for _, a := range algos {
			t0 := time.Now()
			d, err := a.run()
			dur := time.Since(t0)
			if err != nil {
				rep.AddRow(name, sz.String(), a.label, a.h, pilot.M(), "infeasible", float64(dur.Microseconds())/1000)
				continue
			}
			// Report every design under the Neyman objective so values are
			// comparable across algorithms.
			v := stratify.NeymanObjective(pilot, d.Cuts, nII)
			rep.AddRow(name, sz.String(), a.label, a.h, pilot.M(), v, float64(dur.Microseconds())/1000)
		}
		rep.Evals += obj.Pred.Evals()
	}
	return rep, nil
}

// AblateLWS sweeps LWS design choices: the ε probability floor and the
// with-replacement (Hansen-Hurwitz) variant versus the paper's
// without-replacement Des Raj estimator.
func AblateLWS(o Options) (*Report, error) {
	name := o.Dataset
	if name == "" {
		name = "neighbors"
	}
	rep := &Report{
		ID:     "ablate-lws",
		Title:  "LWS ablation: ε floor and with/without-replacement estimator",
		Header: append([]string{"variant"}, distHeader...),
	}
	return o.sweep(rep, []string{name}, func(sz workload.Size, _ float64, _ int) []arm {
		seed := o.seed() + uint64(sz)*61
		return []arm{
			{"desraj eps=.001", &core.LWS{NewClassifier: forestClf, Epsilon: 0.001}, seed},
			{"desraj eps=.01", &core.LWS{NewClassifier: forestClf, Epsilon: 0.01}, seed},
			{"desraj eps=.05", &core.LWS{NewClassifier: forestClf, Epsilon: 0.05}, seed},
			{"desraj eps=.2", &core.LWS{NewClassifier: forestClf, Epsilon: 0.2}, seed},
			{"hansen-hurwitz", &core.LWS{NewClassifier: forestClf, WithReplacement: true}, seed},
		}
	})
}
