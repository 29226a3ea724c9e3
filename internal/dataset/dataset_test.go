package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func sampleSchema() Schema {
	return Schema{
		{Name: "id", Kind: Int},
		{Name: "x", Kind: Float},
		{Name: "tag", Kind: String},
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tb := New("t", sampleSchema())
	if err := tb.AppendRow(int64(1), 2.5, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(int64(2), -1.0, "b"); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Int(0, 0) != 1 || tb.Float(1, 1) != -1.0 || tb.Str(1, 2) != "b" {
		t.Fatal("cell access wrong")
	}
	if v := tb.Value(0, 2); v != "a" {
		t.Fatalf("Value = %v", v)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tb := New("t", sampleSchema())
	if err := tb.AppendRow(int64(1), 2.5); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if err := tb.AppendRow("x", 2.5, "a"); err == nil {
		t.Fatal("type mismatch should error")
	}
	if err := tb.AppendRow(int64(1), 2, "a"); err == nil {
		t.Fatal("int where float expected should error")
	}
	if tb.NumRows() != 0 {
		t.Fatal("failed appends must not grow the table")
	}
}

func TestMustAppendRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppendRow did not panic")
		}
	}()
	New("t", sampleSchema()).MustAppendRow("bad")
}

func TestSchemaIndex(t *testing.T) {
	s := sampleSchema()
	if s.Index("x") != 1 || s.Index("nope") != -1 {
		t.Fatal("Schema.Index wrong")
	}
	tb := New("t", s)
	if tb.ColIndex("tag") != 2 {
		t.Fatal("ColIndex wrong")
	}
}

func TestFeatures(t *testing.T) {
	tb := New("t", sampleSchema())
	tb.MustAppendRow(int64(7), 1.5, "a")
	tb.MustAppendRow(int64(8), 2.5, "b")
	f, err := tb.Features("x", "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 || f[0][0] != 1.5 || f[0][1] != 7 || f[1][1] != 8 {
		t.Fatalf("Features = %v", f)
	}
	if _, err := tb.Features("tag"); err == nil {
		t.Fatal("string feature should error")
	}
	if _, err := tb.Features("missing"); err == nil {
		t.Fatal("missing feature should error")
	}
}

func TestColumnAccessors(t *testing.T) {
	tb := New("t", sampleSchema())
	tb.MustAppendRow(int64(7), 1.5, "a")
	if got := tb.FloatColumn("x"); len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("FloatColumn = %v", got)
	}
	if got := tb.IntsAt(tb.ColIndex("id")); len(got) != 1 || got[0] != 7 {
		t.Fatalf("IntsAt = %v", got)
	}
	func() {
		defer func() { recover() }()
		tb.FloatColumn("id")
		t.Fatal("FloatColumn on int column should panic")
	}()
}

func TestCSVRoundTrip(t *testing.T) {
	tb := New("t", sampleSchema())
	tb.MustAppendRow(int64(1), 2.5, "hello")
	tb.MustAppendRow(int64(2), -0.125, "world,with,commas")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t2", sampleSchema(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.Float(1, 1) != -0.125 || got.Str(1, 2) != "world,with,commas" {
		t.Fatal("round trip mismatch")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", sampleSchema(), strings.NewReader("id,x\n")); err == nil {
		t.Fatal("column count mismatch should error")
	}
	if _, err := ReadCSV("t", sampleSchema(), strings.NewReader("id,wrong,tag\n")); err == nil {
		t.Fatal("column name mismatch should error")
	}
	if _, err := ReadCSV("t", sampleSchema(), strings.NewReader("id,x,tag\nnotanint,1.5,a\n")); err == nil {
		t.Fatal("bad int should error")
	}
	if _, err := ReadCSV("t", sampleSchema(), strings.NewReader("id,x,tag\n1,notafloat,a\n")); err == nil {
		t.Fatal("bad float should error")
	}
}

func TestKindString(t *testing.T) {
	if Float.String() != "float" || Int.String() != "int" || String.String() != "string" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestSportsGenerator(t *testing.T) {
	tb := Sports(5000, 1)
	if tb.NumRows() != 5000 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	so := tb.FloatColumn("strikeouts")
	wins := tb.FloatColumn("wins")
	era := tb.FloatColumn("era")
	for i := range so {
		if so[i] < 0 || wins[i] < 0 || era[i] < 0.5 {
			t.Fatalf("row %d out of domain: so=%v wins=%v era=%v", i, so[i], wins[i], era[i])
		}
	}
	// Strikeouts and wins must be positively correlated (they share skill).
	if corr(so, wins) < 0.3 {
		t.Fatalf("strikeouts-wins correlation = %v, want clearly positive", corr(so, wins))
	}
	// Era is anti-correlated with skill, hence with strikeout rate.
	if corr(so, era) > 0 {
		t.Fatalf("strikeouts-era correlation = %v, want negative", corr(so, era))
	}
	// Right skew: mean above median.
	sm := stats.Summarize(so)
	if sm.Mean <= sm.Median {
		t.Fatalf("strikeouts should be right-skewed: mean %v median %v", sm.Mean, sm.Median)
	}
}

func TestSportsDeterministic(t *testing.T) {
	a := Sports(200, 7)
	b := Sports(200, 7)
	for i := 0; i < a.NumRows(); i++ {
		if a.Float(i, 2) != b.Float(i, 2) {
			t.Fatal("same seed must reproduce the dataset")
		}
	}
	c := Sports(200, 8)
	diff := false
	for i := 0; i < a.NumRows(); i++ {
		if a.Float(i, 2) != c.Float(i, 2) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestNeighborsGenerator(t *testing.T) {
	tb := Neighbors(5000, 2)
	if tb.NumRows() != 5000 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.NumCols() != NeighborsFeatures+2 {
		t.Fatalf("cols = %d, want %d", tb.NumCols(), NeighborsFeatures+2)
	}
	attacks := tb.IntsAt(tb.ColIndex("attack"))
	n1 := 0
	for _, a := range attacks {
		if a != 0 && a != 1 {
			t.Fatalf("attack label %d not binary", a)
		}
		if a == 1 {
			n1++
		}
	}
	frac := float64(n1) / float64(len(attacks))
	if frac < 0.05 || frac > 0.25 {
		t.Fatalf("outlier fraction = %v, want ~0.12", frac)
	}
	// The (f0, f1) plane must contain dense structure: the variance of
	// cluster points should be far below a uniform scatter over [0,100]².
	f, err := tb.Features("f0", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 5000 || len(f[0]) != 2 {
		t.Fatalf("feature dims wrong: %d x %d", len(f), len(f[0]))
	}
}

func corr(a, b []float64) float64 {
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := range a {
		num += (a[i] - ma) * (b[i] - mb)
		da += (a[i] - ma) * (a[i] - ma)
		db += (b[i] - mb) * (b[i] - mb)
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / (sqrt(da) * sqrt(db))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func BenchmarkSportsGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Sports(10000, 1)
	}
}

func BenchmarkNeighborsGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Neighbors(10000, 1)
	}
}
