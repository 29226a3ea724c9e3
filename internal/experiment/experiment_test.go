package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{Rows: 1500, Trials: 6, Seed: 3, SampleFracs: []float64{0.05}, Dataset: "neighbors"}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID:     "x",
		Title:  "demo",
		Notes:  []string{"a note"},
		Header: []string{"col1", "column_two"},
	}
	rep.AddRow("a", 1)
	rep.AddRow(2.5, int64(7))
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "col1", "column_two", "2.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "col1,column_two" {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		123456:  "123456",
		123.456: "123.5",
		1.2345:  "1.23",
		0.1234:  "0.1234",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRunDist(t *testing.T) {
	suite, err := workload.Build("neighbors", 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := suite.Instances[workload.S]
	d, err := RunDistP(&core.SRS{}, in, 150, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Estimates) != 8 {
		t.Fatalf("estimates = %d", len(d.Estimates))
	}
	if d.TotalEvals != 8*150 {
		t.Fatalf("TotalEvals = %v, want 150 a trial", d.TotalEvals)
	}
	if d.RelIQR() < 0 {
		t.Fatal("RelIQR negative")
	}
	if d.Truth != in.TrueCount {
		t.Fatal("truth mismatch")
	}
}

func TestDistRelMetricsZeroTruth(t *testing.T) {
	d := &Dist{Truth: 0, Summary: stats.Summarize([]float64{1, 2, 3})}
	if d.RelIQR() != d.Summary.IQR {
		t.Fatal("zero-truth RelIQR should fall back to raw IQR")
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(Options{Rows: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if len(rep.Header) != 2+len(workload.Sizes) {
		t.Fatalf("header = %v", rep.Header)
	}
	// Each cell of the form "p% (count)".
	for _, row := range rep.Rows {
		for _, cell := range row[2:] {
			if !strings.Contains(cell, "%") || !strings.Contains(cell, "(") {
				t.Fatalf("bad cell %q", cell)
			}
		}
	}
}

func TestFig1(t *testing.T) {
	rep, err := Fig1(Options{Rows: 1200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 steps", len(rep.Rows))
	}
}

func TestFig2Small(t *testing.T) {
	o := tiny()
	rep, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 1 frac × 3 sizes × 4 methods
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig3Small(t *testing.T) {
	o := tiny()
	rep, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Overhead percentage parses and is sane.
	cell := rep.Rows[0][len(rep.Rows[0])-1]
	if !strings.HasSuffix(cell, "%") {
		t.Fatalf("overhead cell %q", cell)
	}
}

func TestFig5Small(t *testing.T) {
	o := tiny()
	o.Trials = 4
	rep, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	// 1×1×3 sizes × 4 splits
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestRunDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs = %v", ids)
	}
	_, err := Run("nope", tiny())
	if err == nil {
		t.Fatal("unknown id should error")
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not name %s", err, id)
		}
	}
	o := Options{Rows: 600, Trials: 2, Seed: 1, SampleFracs: []float64{0.05}}
	for _, id := range ids {
		rep, err := Run(id, o)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if rep.ID != id || len(rep.Rows) == 0 {
			t.Errorf("Run(%s) = report %q with %d rows", id, rep.ID, len(rep.Rows))
		}
	}
}
