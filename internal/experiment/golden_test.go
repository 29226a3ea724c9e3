package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepFigures are the experiments whose tables are estimate distributions
// over datasets × fractions × result sizes.
var sweepFigures = []string{"fig2", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "ablate-lws"}

// TestFigureTablesGolden pins the fixed-seed CSV of every distribution figure
// across commits. testdata/figures.golden holds what lsbench -csv writes for
// these figures at the options below, under a header of "//" lines that says
// when and why the tables were recorded. The tables must never be regenerated
// to make a change pass; a change that is meant to move a figure rewrites the
// file with the header's command and says why in the header.
func TestFigureTablesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.HasPrefix(text, "//") {
		t.Fatal("testdata/figures.golden lacks the header that says why its tables were recorded")
	}
	for strings.HasPrefix(text, "//") {
		_, text, _ = strings.Cut(text, "\n")
	}
	want := splitBlocks(text)

	o := Options{Rows: 1500, Trials: 4, Seed: 3, SampleFracs: []float64{0.05}}
	for _, id := range sweepFigures {
		rep, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# %s: %s\n", rep.ID, rep.Title)
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		exp, ok := want[id]
		if !ok {
			t.Errorf("%s: no table in testdata/figures.golden", id)
			continue
		}
		for i := 0; i < max(len(got), len(exp)); i++ {
			g, e := lineAt(got, i), lineAt(exp, i)
			if g != e {
				t.Errorf("%s: line %d moved:\n got %q\nwant %q", id, i+1, g, e)
				break
			}
		}
	}
}

// splitBlocks cuts lsbench's CSV output into its per-experiment blocks, each
// keyed by id and starting with its "# id: title" line.
func splitBlocks(text string) map[string][]string {
	blocks := map[string][]string{}
	for _, block := range strings.Split(strings.TrimSpace(text), "\n\n") {
		lines := strings.Split(block, "\n")
		id, _, _ := strings.Cut(strings.TrimPrefix(lines[0], "# "), ":")
		blocks[id] = lines
	}
	return blocks
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of table>"
}
