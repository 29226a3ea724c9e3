package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// loadLedgers reads every result.json under dir: one run per file, so a
// directory of repeated runs (DIR/1/result.json, DIR/2/result.json, …)
// gives medians and spreads, and a single run gives just its values.
func loadLedgers(dir string) ([]*ledger, error) {
	var out []*ledger
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var l ledger
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &l)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no result.json under %s", dir)
	}
	return out, err
}

func valuesOf(ls []*ledger, workload, metric string) []float64 {
	var vs []float64
	for _, l := range ls {
		if w := l.Workloads[workload]; w != nil {
			if v, ok := w.EndToEnd[metric]; ok && !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// Verdicts of one (workload, metric) pairing.
const (
	verdictPass       = "PASS"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "UNRESOLVED"
)

// judge compares the runs of B against the runs of A for one metric. The
// change regresses when its median is worse than the base's by more than
// the bound. Where the base's own run-to-run spread (interquartile range
// over median) is wider than the bound the pairing is unresolved, not
// passed — unless every run of B reads better than every run of A.
func judge(m metricSpec, a, b []float64) (medA, medB float64, verdict string) {
	medA, medB = median(a), median(b)
	sign := 1.0 // worse = larger
	if m.Better == "higher" {
		sign = -1
	}
	worseBy := sign * (medB - medA)
	allowed := math.Max(m.Bound*math.Abs(medA), m.abs)
	if len(a) >= 4 {
		q1, q3 := quartiles(a)
		if spread := (q3 - q1) / math.Abs(medA); spread > m.Bound && medA != 0 {
			allBetter := true
			for _, x := range b {
				for _, y := range a {
					if sign*(x-y) >= 0 {
						allBetter = false
					}
				}
			}
			if allBetter {
				return medA, medB, verdictPass
			}
			return medA, medB, verdictUnresolved
		}
	}
	if worseBy > allowed {
		return medA, medB, verdictRegressed
	}
	return medA, medB, verdictPass
}

// compareDirs prints, per workload and end-to-end metric, both medians,
// the ratio with its base, and the verdict against the metric's bound. The
// exit status is non-zero when anything regressed.
func compareDirs(w io.Writer, dirA, dirB string) (int, error) {
	la, err := loadLedgers(dirA)
	if err != nil {
		return 2, err
	}
	lb, err := loadLedgers(dirB)
	if err != nil {
		return 2, err
	}
	bounded := true
	for _, l := range append(append([]*ledger(nil), la...), lb...) {
		if l.Smoke {
			bounded = false
		}
	}
	fmt.Fprintf(w, "A = %s (%d run(s))   B = %s (%d run(s))   ratio = median B / median A\n", dirA, len(la), dirB, len(lb))
	if !bounded {
		fmt.Fprintln(w, "smoke results carry no regression bounds: verdicts withheld")
	}
	fmt.Fprintf(w, "%-14s %-18s %-6s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "median A", "median B", "ratio", "bound", "verdict")
	regressed := 0
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a, b := valuesOf(la, name, m.Name), valuesOf(lb, name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			medA, medB, verdict := judge(m, a, b)
			if !bounded {
				verdict = "-"
			}
			if verdict == verdictRegressed {
				regressed++
			}
			ratio := "n/a"
			if medA != 0 {
				ratio = fmt.Sprintf("%.4f", medB/medA)
			}
			arrow := "+"
			if m.Better == "higher" {
				arrow = "-"
			}
			fmt.Fprintf(w, "%-14s %-18s %-6s %14.6g %14.6g %9s %6s%%  %s\n",
				name, m.Name, m.Unit, medA, medB, ratio, arrow+fmt.Sprintf("%g", 100*m.Bound), verdict)
		}
	}
	if regressed > 0 {
		return 1, fmt.Errorf("%d pairing(s) regressed", regressed)
	}
	return 0, nil
}
