// Activelearning: reproduce the paper's Figure 1 — a kNN classifier on the
// neighbors workload, sharpened by two uncertainty-sampling augmentation
// steps of 100 objects each. Prints classifier quality per step, writes the
// score heat-map grids (the figure's panels) as CSV files, and finishes
// with a count estimate through the public repro/lsample SDK using the same
// kNN classifier.
//
// Run: go run ./examples/activelearning [outdir]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/active"
	"repro/internal/learn"
	"repro/internal/sample"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/lsample"
)

func main() {
	outdir := "."
	if len(os.Args) > 1 {
		outdir = os.Args[1]
	}
	suite, err := workload.BuildNeighbors(20000, 11)
	if err != nil {
		log.Fatal(err)
	}
	in := suite.Instances[workload.S]
	features := in.Features()
	pred := in.LabelFunc()
	r := xrand.New(31)

	// Initial training set: 5% of O, as in Figure 1.
	initial := in.N() / 20
	const step = 100
	factory := func() learn.Classifier { return learn.NewKNN(5) }

	idx := sample.SRS(r, in.N(), initial)
	labels := make([]bool, len(idx))
	labeled := make(map[int]bool, len(idx))
	for j, i := range idx {
		labels[j] = pred(i)
		labeled[i] = true
	}
	fit := func() learn.Classifier {
		X := make([][]float64, len(idx))
		for j, i := range idx {
			X[j] = features[i]
		}
		c := factory()
		if err := c.Fit(X, labels); err != nil {
			log.Fatal(err)
		}
		return c
	}

	clf := fit()
	fmt.Printf("%-5s %-11s %-9s %-7s\n", "step", "train size", "accuracy", "auc")
	report := func(stepNo int) {
		scores := make([]float64, in.N())
		for i := range scores {
			scores[i] = clf.Score(features[i])
		}
		m := learn.EvaluateScores(scores, in.Labels)
		fmt.Printf("%-5d %-11d %-9.4f %-7.4f\n", stepNo, len(idx), m.Accuracy, m.AUC)
		path := filepath.Join(outdir, fmt.Sprintf("heatmap_step%d.csv", stepNo))
		if err := writeHeatmap(path, clf, features); err != nil {
			log.Fatal(err)
		}
	}
	report(0)

	for stepNo := 1; stepNo <= 2; stepNo++ {
		sel := active.SelectUncertain(clf, features, labeled, step, r)
		for _, i := range sel {
			labeled[i] = true
			idx = append(idx, i)
			labels = append(labels, pred(i))
		}
		clf = fit()
		report(stepNo)
	}
	fmt.Printf("\nheat-map grids written to %s/heatmap_step{0,1,2}.csv\n", outdir)
	fmt.Println("(cells are classifier scores over a 60x60 grid of the feature plane;")
	fmt.Println(" red≈0, blue≈1, yellow≈0.5 in the paper's rendering)")

	// The same classifier family drives a learned count estimate through
	// the SDK: LSS with kNN, 2% budget.
	est, err := lsample.NewEstimator(
		lsample.WithMethod("lss"),
		lsample.WithClassifier("knn"),
		lsample.WithBudget(0.02),
		lsample.WithSeed(31),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), features, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLSS+kNN count estimate: %.0f [%.0f, %.0f], true %d (%d evaluations)\n",
		res.Count, res.CI.Lo, res.CI.Hi, in.TrueCount, res.SamplesUsed)
}

// writeHeatmap evaluates the scoring function over a 60×60 grid spanning
// the feature plane and writes it as CSV.
func writeHeatmap(path string, clf learn.Classifier, features [][]float64) error {
	minX, maxX := features[0][0], features[0][0]
	minY, maxY := features[0][1], features[0][1]
	for _, f := range features {
		if f[0] < minX {
			minX = f[0]
		}
		if f[0] > maxX {
			maxX = f[0]
		}
		if f[1] < minY {
			minY = f[1]
		}
		if f[1] > maxY {
			maxY = f[1]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const grid = 60
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			x := minX + (maxX-minX)*float64(gx)/(grid-1)
			y := minY + (maxY-minY)*float64(gy)/(grid-1)
			if gx > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprintf(f, "%.3f", clf.Score([]float64{x, y}))
		}
		fmt.Fprintln(f)
	}
	return nil
}
