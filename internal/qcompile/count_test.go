package qcompile

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// countTables returns D(id) = 0 … 40 and R(key), where key i repeats i
// times: object i's group has exactly i joined rows, and object 0 has none.
func countTables() engine.Catalog {
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}})
	r := dataset.New("R", dataset.Schema{{Name: "key", Kind: dataset.Int}})
	for i := int64(0); i <= 40; i++ {
		d.MustAppendRow(i)
		for j := int64(0); j < i; j++ {
			r.MustAppendRow(i)
		}
	}
	return engine.Catalog{"D": d, "R": r}
}

// countThresholds are integer, fractional and negative thresholds on both
// sides of every count 0 … 40.
var countThresholds = []engine.Value{
	engine.IntVal(-3), engine.IntVal(0), engine.IntVal(1), engine.IntVal(2), engine.IntVal(7),
	engine.IntVal(20), engine.IntVal(39), engine.IntVal(40), engine.IntVal(41), engine.IntVal(60),
	engine.FloatVal(-1.5), engine.FloatVal(0.5), engine.FloatVal(1.5), engine.FloatVal(6.5),
	engine.FloatVal(20.25), engine.FloatVal(39.5), engine.FloatVal(40.5),
}

// TestCountSettlesMatchesEvaluation is the settle rule's table test: for
// every comparison, every count 0 … 40 and every pair of thresholds (t, u),
// what a count-reporting evaluation at t reports must bound the object's
// true count, must settle t with the label the plain evaluation at t gives,
// and must settle u, when it does, with the label the evaluation at u gives.
// The settled pairs are counted so the rule is seen to settle more than the
// exact counts.
func TestCountSettlesMatchesEvaluation(t *testing.T) {
	cat := countTables()
	for _, op := range cmpOps {
		query := fmt.Sprintf("SELECT d.id FROM D d, R r WHERE r.key = d.id GROUP BY d.id HAVING COUNT(*) %s k", op)
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := engine.Decompose(engine.ExtractInner(stmt))
		if err != nil {
			t.Fatal(err)
		}
		objects, err := engine.NewEvaluator(cat).Run(dec.Objects, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(dec, cat)
		if err != nil {
			t.Fatal(err)
		}
		if name, gotOp, ok := prog.CountParam(); !ok || name != "k" || gotOp != op {
			t.Fatalf("%s: CountParam = %q %q %t, want k %s", op, name, gotOp, ok, op)
		}
		labels := make([][]bool, len(countThresholds)) // by threshold, by object
		counts := make([][][2]int64, len(countThresholds))
		for ti, thr := range countThresholds {
			b, err := prog.Bind(map[string]engine.Value{"k": thr}, objects)
			if err != nil {
				t.Fatal(err)
			}
			eval, count := b.NewEvalFn(), b.NewCountFn()
			for i := 0; i < objects.NumRows(); i++ {
				labels[ti] = append(labels[ti], eval(i))
				n, exact := count(i)
				e := int64(0)
				if exact {
					e = 1
				}
				counts[ti] = append(counts[ti], [2]int64{n, e})
			}
		}
		settled, exact := 0, 0
		for ti, thr := range countThresholds {
			for i := 0; i < objects.NumRows(); i++ {
				c := objects.Rows[i][0].I // object i has c joined rows
				n, isExact := counts[ti][i][0], counts[ti][i][1] == 1
				if (isExact && n != c) || n > c || (c == 0 && !isExact) {
					t.Fatalf("COUNT(*) %s %v, object with %d rows: reported %d (exact %t)", op, thr, c, n, isExact)
				}
				for ui, u := range countThresholds {
					label, ok := CountSettles(op, toFloat(u), n, isExact)
					if ui == ti && !ok {
						t.Fatalf("COUNT(*) %s %v, %d rows: the evaluation's own threshold is not settled by %d (exact %t)", op, thr, c, n, isExact)
					}
					if !ok {
						continue
					}
					if want := labels[ui][i]; label != want {
						t.Fatalf("COUNT(*) %s %v after an evaluation at %v (%d rows, reported %d exact %t): settled %t, evaluation says %t",
							op, u, thr, c, n, isExact, label, want)
					}
					if settled++; isExact {
						exact++
					}
				}
			}
		}
		if settled == exact {
			t.Errorf("COUNT(*) %s k: no early stop settled another threshold (%d settled pairs, all exact)", op, settled)
		}
		t.Logf("COUNT(*) %s k: %d of %d (t, u, object) triples settled, %d by an exact count", op, settled,
			len(countThresholds)*len(countThresholds)*objects.NumRows(), exact)
	}
}

func toFloat(v engine.Value) float64 {
	if v.Kind == engine.KInt {
		return float64(v.I)
	}
	return v.F
}

// TestCountParamShapes: only a bare parameter compared with COUNT(*), either
// way round, is a count parameter; the mirrored form reports the comparison
// with the count on the left.
func TestCountParamShapes(t *testing.T) {
	cat := countTables()
	for _, c := range []struct {
		having, name, op string
	}{
		{"COUNT(*) < k", "k", "<"},
		{"k > COUNT(*)", "k", "<"},
		{"k <= COUNT(*)", "k", ">="},
		{"COUNT(*) <> k", "k", "<>"},
		{"COUNT(*) < 8", "", ""},
		{"COUNT(*) < k + 1", "", ""},
		{"COUNT(*) < d.id", "", ""},
		{"COUNT(*) < k AND COUNT(*) > 1", "", ""},
		{"SUM(r.key) < k", "", ""},
	} {
		stmt, err := sql.Parse("SELECT d.id FROM D d, R r WHERE r.key = d.id GROUP BY d.id HAVING " + c.having)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := engine.Decompose(engine.ExtractInner(stmt))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(dec, cat)
		if err != nil {
			t.Fatalf("%s: %v", c.having, err)
		}
		name, op, ok := prog.CountParam()
		if ok != (c.name != "") || name != c.name || op != c.op {
			t.Errorf("HAVING %s: CountParam = %q %q %t, want %q %q", c.having, name, op, ok, c.name, c.op)
		}
	}
}
