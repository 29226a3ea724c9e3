package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/sample"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// figureSizes are the result-size columns shown in the paper's figures.
var figureSizes = []workload.Size{workload.XS, workload.S, workload.L}

// Table1 reproduces Table 1: result-set sizes (percent and exact) for both
// datasets across the six regimes.
func Table1(o Options) (*Report, error) {
	rep := &Report{
		ID:     "table1",
		Title:  "Result set sizes percent (exact) per dataset and regime",
		Header: []string{"dataset", "N"},
	}
	for _, sz := range workload.Sizes {
		rep.Header = append(rep.Header, sz.String())
	}
	for _, name := range []string{"sports", "neighbors"} {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		row := []any{name, suite.Table.NumRows()}
		for _, sz := range workload.Sizes {
			in := suite.Instances[sz]
			row = append(row, fmt.Sprintf("%.0f%% (%d)", in.Selectivity*100, in.TrueCount))
		}
		rep.AddRow(row...)
	}
	return rep, nil
}

// Fig1 reproduces Figure 1: uncertainty-sampling augmentation of a kNN
// classifier on the neighbors workload. It reports classifier quality after
// the initial fit and after each 100-object augmentation step; the paper's
// heat maps correspond to the score-grid CSV emitted by examples/activelearning.
func Fig1(o Options) (*Report, error) {
	suite, err := o.buildSuite("neighbors")
	if err != nil {
		return nil, err
	}
	in := suite.Instances[workload.S]
	r := xrand.New(o.seed())
	obj := in.Objects()

	initial := in.N() / 20 // 5% of O, as in the figure
	const step = 100
	rep := &Report{
		ID:     "fig1",
		Title:  "Active learning: kNN quality vs training-set growth (neighbors, S)",
		Notes:  []string{fmt.Sprintf("initial %d objects (5%%), +%d per uncertainty-sampling step", initial, step)},
		Header: []string{"step", "train size", "accuracy", "auc", "tpr", "fpr"},
	}

	evalClf := func(clf learn.Classifier) learn.Metrics {
		scores := make([]float64, in.N())
		for i := 0; i < in.N(); i++ {
			scores[i] = clf.Score(obj.Features[i])
		}
		return learn.EvaluateScores(scores, in.Labels)
	}

	factory := func() learn.Classifier { return learn.NewKNN(5) }
	initIdx := sample.SRS(r, in.N(), initial)
	clf, idx, labels, err := active.Train(context.Background(), active.Config{Factory: factory, Rounds: 0}, obj.Features, obj.Pred, initIdx, 0, r)
	if err != nil {
		return nil, err
	}
	m := evalClf(clf)
	rep.AddRow(0, len(idx), m.Accuracy, m.AUC, m.TPR, m.FPR)

	labeled := make(map[int]bool, len(idx))
	for _, i := range idx {
		labeled[i] = true
	}
	for stepNo := 1; stepNo <= 2; stepNo++ {
		sel := active.SelectUncertain(clf, obj.Features, labeled, step, r)
		for _, i := range sel {
			labeled[i] = true
			idx = append(idx, i)
			labels = append(labels, obj.Pred.Eval(i))
		}
		X := make([][]float64, len(idx))
		for j, i := range idx {
			X[j] = obj.Features[i]
		}
		clf = factory()
		if err := clf.Fit(X, labels); err != nil {
			return nil, err
		}
		m = evalClf(clf)
		rep.AddRow(stepNo, len(idx), m.Accuracy, m.AUC, m.TPR, m.FPR)
	}
	rep.Evals += obj.Pred.Evals()
	return rep, nil
}

// distRow appends one distribution row to a report.
func distRow(rep *Report, dataset string, sz workload.Size, frac float64, d *Dist) {
	rep.AddRow(dataset, sz.String(), pct(frac), d.Method,
		d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
}

var distHeader = []string{"dataset", "size", "sample", "method", "truth", "median", "iqr", "rel_iqr", "outliers"}

// Fig2 reproduces Figure 2: estimate distributions of SRS, SSP, LWS, and
// LSS across result sizes and sample fractions. The paper's finding: LWS
// and LSS have consistently smaller IQRs, LWS throws occasional outliers,
// LSS is the most robust.
func Fig2(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig2",
		Title:  "Sampling comparison: SRS / SSP vs LWS / LSS (RF-100, 25% split, 4 strata)",
		Header: distHeader,
	}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				methods := []core.Method{
					&core.SRS{},
					&core.SSP{Strata: 4},
					defaultLWS(),
					defaultLSS(),
				}
				for _, m := range methods {
					d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*31+uint64(frac*1000))
					if err != nil {
						return nil, err
					}
					distRow(rep, name, sz, frac, d)
				}
			}
		}
	}
	return rep, nil
}

// Fig3 reproduces Figure 3: LSS runtime broken into P1 learning, P1 sample
// design, and P2 overhead, against the total (predicate-dominated) runtime.
// This experiment uses the real O(N)-per-evaluation predicates.
func Fig3(o Options) (*Report, error) {
	name := o.Dataset
	if name == "" {
		name = "neighbors"
	}
	suite, err := o.buildSuite(name)
	if err != nil {
		return nil, err
	}
	in := suite.Instances[workload.S]
	// Emulate the paper's UDF cost regime: the in-process scan is ~10-50µs
	// per evaluation, while the paper's predicates (correlated SQL /
	// Python UDFs) cost milliseconds. Scale per-evaluation cost so that the
	// overhead percentage is measured against a realistic total.
	const predicateScale = 100
	rep := &Report{
		ID:    "fig3",
		Title: fmt.Sprintf("LSS overhead by phase (%s, S; expensive predicate ×%d)", name, predicateScale),
		Header: []string{"budget", "p1_learn_ms", "p1_design_ms", "p2_overhead_ms",
			"predicate_ms", "total_ms", "overhead_pct"},
	}
	r := xrand.New(o.seed())
	// The overhead experiment uses the paper's premier designer (DirSol,
	// H = 3); the H = 4 dynamic program costs more design time and is
	// covered by the ablate-designers experiment.
	method := defaultLSS()
	method.Strata = 3
	for _, frac := range o.fracs() {
		budget := budgetFor(in, frac)
		var learnD, designD, sampleD, predD, totalD time.Duration
		reps := 3
		for i := 0; i < reps; i++ {
			obj := in.ExpensiveObjectsScaled(predicateScale)
			res, err := method.Estimate(context.Background(), obj, budget, r.Split())
			if err != nil {
				return nil, err
			}
			rep.Evals += res.Evals
			tm := res.Timing
			predD += tm.Predicate
			totalD += tm.Total()
			learnD += tm.Learn
			designD += tm.Design
			sampleD += tm.Sample
		}
		n := float64(reps)
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / n }
		overhead := totalD - predD
		pctOver := 0.0
		if totalD > 0 {
			pctOver = float64(overhead) / float64(totalD) * 100
		}
		rep.AddRow(budget, ms(learnD), ms(designD), ms(sampleD), ms(predD), ms(totalD),
			fmt.Sprintf("%.2f%%", pctOver))
	}
	rep.Notes = append(rep.Notes,
		"phase columns are wall times (incl. labeling inside the phase); overhead_pct = (total − predicate)/total")
	return rep, nil
}

// Fig4Layout reproduces the §5.4.1 half of Figure 4: LSS with fixed-width,
// fixed-height (equal count), and optimal strata layouts.
func Fig4Layout(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig4a",
		Title:  "Strata layout strategy: fixed width vs fixed height vs optimal (LSS, 4 strata)",
		Header: append([]string{"layout"}, distHeader...),
	}
	layouts := []core.Layout{core.LayoutFixedWidth, core.LayoutEqualCount, core.LayoutOptimal}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				for _, lay := range layouts {
					m := defaultLSS()
					m.Layout = lay
					d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*37+uint64(lay))
					if err != nil {
						return nil, err
					}
					rep.AddRow(lay.String(), name, sz.String(), pct(frac), d.Method,
						d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
				}
			}
		}
	}
	return rep, nil
}

// Fig4Strata reproduces the §5.4.2 half of Figure 4: LSS vs SSP as the
// number of strata grows through {4, 9, 25, 49, 100}.
func Fig4Strata(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig4b",
		Title:  "Number of strata: LSS vs SSP across {4,9,25,49,100}",
		Header: append([]string{"strata"}, distHeader...),
	}
	counts := []int{4, 9, 25, 49, 100}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				for _, h := range counts {
					if h*4 > budget {
						continue // cannot meaningfully allocate
					}
					for _, m := range []core.Method{
						&core.SSP{Strata: h},
						&core.LSS{NewClassifier: forestClf, TrainFrac: 0.25, Strata: h},
					} {
						d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*41+uint64(h))
						if err != nil {
							return nil, err
						}
						rep.AddRow(h, name, sz.String(), pct(frac), d.Method,
							d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
					}
				}
			}
		}
	}
	return rep, nil
}

// Fig5 reproduces Figure 5: the learning/sampling budget split
// {10, 25, 50, 75}%.
func Fig5(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig5",
		Title:  "Sample split between learning and sampling phases (LSS)",
		Header: append([]string{"train_split"}, distHeader...),
	}
	splits := []float64{0.10, 0.25, 0.50, 0.75}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				for _, split := range splits {
					m := defaultLSS()
					m.TrainFrac = split
					d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*43+uint64(split*100))
					if err != nil {
						return nil, err
					}
					rep.AddRow(pct(split), name, sz.String(), pct(frac), d.Method,
						d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
				}
			}
		}
	}
	return rep, nil
}

// classifierLineup is the §5.4.4 classifier set.
func classifierLineup() []struct {
	label string
	newC  core.NewClassifierFunc
} {
	return []struct {
		label string
		newC  core.NewClassifierFunc
	}{
		{"knn", knnClf},
		{"nn", mlpClf},
		{"rf", forestClf},
		{"random", dummyClf},
	}
}

// Fig6 reproduces Figure 6: LSS quality under kNN, NN, RF, and a random
// classifier. Better-than-random classifiers must help; the random one must
// only degrade LSS to ordinary stratified sampling.
func Fig6(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig6",
		Title:  "Effect of classifier quality on LSS",
		Header: append([]string{"classifier"}, distHeader...),
	}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				for _, clf := range classifierLineup() {
					m := defaultLSS()
					m.NewClassifier = clf.newC
					d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*47)
					if err != nil {
						return nil, err
					}
					rep.AddRow(clf.label, name, sz.String(), pct(frac), d.Method,
						d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
				}
			}
		}
	}
	return rep, nil
}

// Fig7 reproduces Figure 7: quantification learning (QLCC) under different
// classifiers, with the equivalent LSS row for comparison — the paper's
// point being that a weak NN ruins QL while LSS stays usable.
func Fig7(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig7",
		Title:  "Quantification learning vs classifier quality (QLCC vs LSS)",
		Header: append([]string{"classifier"}, distHeader...),
	}
	lineup := classifierLineup()[:3] // knn, nn, rf
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				for _, clf := range lineup {
					for _, m := range []core.Method{
						&core.QLCC{NewClassifier: clf.newC},
						&core.LSS{NewClassifier: clf.newC, TrainFrac: 0.25, Strata: 4},
					} {
						d, err := o.distFor(rep, m, in, budget, o.seed()+uint64(sz)*53)
						if err != nil {
							return nil, err
						}
						rep.AddRow(clf.label, name, sz.String(), pct(frac), d.Method,
							d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
					}
				}
			}
		}
	}
	return rep, nil
}

// Fig8 reproduces Figure 8: Classify-and-Count vs Adjusted Count, with and
// without uncertainty-sampling augmentation (RF-100 base classifier).
func Fig8(o Options) (*Report, error) {
	rep := &Report{
		ID:     "fig8",
		Title:  "Quantification methods: CC vs AC, with and without augmentation",
		Header: append([]string{"variant"}, distHeader...),
	}
	for _, name := range o.datasets() {
		suite, err := o.buildSuite(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range o.fracs() {
			for _, sz := range figureSizes {
				in := suite.Instances[sz]
				budget := budgetFor(in, frac)
				variants := []struct {
					label string
					m     core.Method
				}{
					{"cc", &core.QLCC{NewClassifier: forestClf}},
					{"cc+aug", &core.QLCC{NewClassifier: forestClf, Augment: true}},
					{"ac", &core.QLAC{NewClassifier: forestClf}},
					{"ac+aug", &core.QLAC{NewClassifier: forestClf, Augment: true}},
				}
				for _, v := range variants {
					d, err := o.distFor(rep, v.m, in, budget, o.seed()+uint64(sz)*59)
					if err != nil {
						return nil, err
					}
					rep.AddRow(v.label, name, sz.String(), pct(frac), d.Method,
						d.Truth, d.Summary.Median, d.Summary.IQR, d.RelIQR(), d.Summary.Outliers)
				}
			}
		}
	}
	return rep, nil
}

// Run dispatches an experiment by id.
func Run(id string, o Options) (*Report, error) {
	switch id {
	case "table1":
		return Table1(o)
	case "fig1":
		return Fig1(o)
	case "fig2":
		return Fig2(o)
	case "fig3":
		return Fig3(o)
	case "fig4a":
		return Fig4Layout(o)
	case "fig4b":
		return Fig4Strata(o)
	case "fig5":
		return Fig5(o)
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "fig8":
		return Fig8(o)
	case "ablate-designers":
		return AblateDesigners(o)
	case "ablate-lws":
		return AblateLWS(o)
	}
	return nil, fmt.Errorf("experiment: unknown experiment %q (want table1, fig1..fig8, fig4a, fig4b, ablate-designers, ablate-lws)", id)
}

// IDs lists every experiment id in paper order, then the ablations.
func IDs() []string {
	return []string{"table1", "fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5",
		"fig6", "fig7", "fig8", "ablate-designers", "ablate-lws"}
}
