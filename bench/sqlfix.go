package main

import (
	"context"
	"fmt"
	"strings"

	"repro/lsample"
)

// sqlBudget is the labeling budget of the SQL workloads: with 300 objects
// it buys 105 labels per count, over the 100 the sizing rule asks for (at
// 25 labels the estimate collapses to 0 with CI [0,0]).
const sqlBudget = 0.35

// queryKind selects one of the three SQL query shapes.
type queryKind int

const (
	kindSkyband queryKind = iota
	kindExists
	kindGrouped
)

var kindSQL = [...]string{skybandSQL, existsSQL, groupedSQL}

// variant is one parameter binding of a query kind; v=0 is the base.
// Skyband and grouped queries vary k; EXISTS varies (t, m). Every variant
// has selectivity between 10 and 40 % on uniform data.
type variant struct {
	kind queryKind
	v    int
}

const numVariants = 4

// sqlFixture is the generated D/R pair with the brute-force truth of every
// query variant.
type sqlFixture struct {
	data *sqlData
	n    int
	ks   [numVariants]int
	tms  [numVariants][2]float64 // (t, m)

	skyTruth    [numVariants]int
	regionTruth [numVariants]map[string]int
	exTruth     [numVariants]int
}

// newSQLFixture generates the tables and their truth, and enforces the data
// sizing rule: a seed that produced a degenerate table would make every
// later number meaningless, so it is an error instead.
func newSQLFixture(seed uint64, n int) (*sqlFixture, error) {
	f := &sqlFixture{data: genSQLData(seed, n), n: n}
	f.ks = [numVariants]int{n / 8, n / 12, n / 16, n / 24}
	f.tms = [numVariants][2]float64{{4, 4}, {5, 4}, {6, 3}, {6, 4}}
	for v := 0; v < numVariants; v++ {
		f.skyTruth[v], f.regionTruth[v] = skybandTruth(f.data.d, f.ks[v])
		f.exTruth[v] = existsTruth(f.data.d, f.data.r, f.tms[v][0], int(f.tms[v][1]))
		for _, t := range []int{f.skyTruth[v], f.exTruth[v]} {
			if sel := float64(t) / float64(n); sel < 0.05 || sel > 0.5 {
				return nil, fmt.Errorf("variant %d has selectivity %.2f, far outside the 10–40 %% sizing rule", v, sel)
			}
		}
	}
	return f, nil
}

func (f *sqlFixture) params(q variant) map[string]any {
	if q.kind == kindExists {
		return map[string]any{"t": f.tms[q.v][0], "m": int(f.tms[q.v][1])}
	}
	return map[string]any{"k": f.ks[q.v]}
}

// truth returns the total count of a variant and, for the grouped kind,
// the per-region counts.
func (f *sqlFixture) truth(q variant) (float64, map[string]int) {
	switch q.kind {
	case kindExists:
		return float64(f.exTruth[q.v]), nil
	case kindGrouped:
		return float64(f.skyTruth[q.v]), f.regionTruth[q.v]
	}
	return float64(f.skyTruth[q.v]), nil
}

// tables builds the in-process tables from the same CSV text the servers
// are given.
func (f *sqlFixture) tables() (d, r *lsample.Table, err error) {
	d, err = lsample.ReadCSV("D", schemaD, strings.NewReader(f.data.csvD()))
	if err != nil {
		return nil, nil, err
	}
	r, err = lsample.ReadCSV("R", schemaR, strings.NewReader(f.data.csvR()))
	return d, r, err
}

// prepared is the three SQL queries prepared in-process, by queryKind.
type prepared [3]*lsample.PreparedQuery

// prepare builds the in-process tables and prepares every query kind over
// them at parallelism 1 with no catalog.
func (f *sqlFixture) prepare() (prepared, error) {
	var q prepared
	d, r, err := f.tables()
	if err != nil {
		return q, err
	}
	sess, err := lsample.NewSession(lsample.NewMemorySource(d, r), lsample.WithParallelism(1))
	if err != nil {
		return q, err
	}
	for k := range q {
		if q[k], err = sess.Prepare(kindSQL[k]); err != nil {
			return q, err
		}
	}
	return q, nil
}

// execute runs one variant in-process and reduces the estimate to an answer.
func (f *sqlFixture) execute(ctx context.Context, q prepared, v variant, withEvals bool, opts ...lsample.Option) (*answer, error) {
	truth, byRegion := f.truth(v)
	if v.kind == kindGrouped {
		g, err := q[v.kind].ExecuteGroups(ctx, f.params(v), opts...)
		if err != nil {
			return nil, err
		}
		return answerFromGroups(g, truth, byRegion, f.n, withEvals)
	}
	e, err := q[v.kind].Execute(ctx, f.params(v), opts...)
	if err != nil {
		return nil, err
	}
	return answerFromEstimate(e, truth, f.n, withEvals), nil
}

// answerFromEstimate reduces a plain SDK estimate; withEvals as in seal.
func answerFromEstimate(e *lsample.Estimate, truth float64, wantN int, withEvals bool) *answer {
	a := &answer{
		estimate: e.Count,
		truth:    truth,
		objects:  e.Objects,
		wantN:    wantN,
		evals:    e.SamplesUsed,
		budget:   e.Budget,
	}
	iv := interval{est: e.Count, objects: e.Objects, truth: truth}
	if e.CI != nil {
		iv.hasCI, iv.lo, iv.hi = true, e.CI.Lo, e.CI.Hi
	}
	a.intervals = []interval{iv}
	a.seal(e.Method, e.Fingerprint, withEvals)
	return a
}

// groupTopUp is the program's documented per-group sample floor: a rare
// group may add up to this many labels on top of the shared budget.
const groupTopUp = 10

func answerFromGroups(g *lsample.GroupedEstimate, truth float64, byRegion map[string]int, wantN int, withEvals bool) (*answer, error) {
	a := &answer{
		estimate: g.Total,
		truth:    truth,
		objects:  g.Objects,
		wantN:    wantN,
		evals:    g.SamplesUsed,
		budget:   g.Budget,
		slack:    groupTopUp * len(g.Groups),
	}
	seen := 0
	for _, gr := range g.Groups {
		if len(gr.Key) != 1 {
			return nil, fmt.Errorf("group key %v: want one column", gr.Key)
		}
		iv := interval{key: gr.Key[0], est: gr.Count, objects: gr.Objects, sampled: gr.Sampled, truth: float64(byRegion[gr.Key[0]])}
		if gr.CI != nil {
			iv.hasCI, iv.lo, iv.hi = true, gr.CI.Lo, gr.CI.Hi
		}
		a.intervals = append(a.intervals, iv)
		seen += gr.Objects
	}
	if seen != g.Objects {
		return nil, fmt.Errorf("groups hold %d objects, total says %d", seen, g.Objects)
	}
	a.seal(g.Method, g.Fingerprint, withEvals)
	return a, nil
}
