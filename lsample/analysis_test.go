package lsample

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestOneAnalysis: Prepare, PrepareLive and QueryShape read a query's text
// through one analysis, so a text they all reject is rejected in the same
// words by all three, QueryShape rejects only what its parse-and-tables half
// can see, and PrepareLive adds exactly two rejections of its own: a grouped
// query and a non-integer object key. The object-key check Prepare defers to
// the first execution that needs it (a feature-using method, the hash plan)
// is the one PrepareLive makes up front, keeping the words it has always
// had for a key of several columns ("live queries must GROUP BY …").
func TestOneAnalysis(t *testing.T) {
	d := testTable(t, 20, 1)
	s, err := NewTable("S", "name:string,x:float")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "d"} {
		if err := s.AppendRow(name, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(NewMemorySource(d, s, groupedTable(t, 20)))
	if err != nil {
		t.Fatal(err)
	}
	const ok = ""
	for _, tc := range []struct {
		name, sql                  string
		shape, prepare, live, exec string // the error's text past "lsample: invalid request: "; ok for none
	}{
		{name: "empty", sql: "",
			shape: "missing sql", prepare: "missing sql", live: "missing sql"},
		{name: "unparsable", sql: "SELEC nope",
			shape:   "parse: sql: expected SELECT, found SELEC (offset 0)",
			prepare: "parse: sql: expected SELECT, found SELEC (offset 0)",
			live:    "parse: sql: expected SELECT, found SELEC (offset 0)"},
		{name: "no FROM", sql: "SELECT 1", // the parser's to reject: a statement it accepts names a table
			shape:   "parse: sql: expected FROM, found end of input (offset 8)",
			prepare: "parse: sql: expected FROM, found end of input (offset 8)",
			live:    "parse: sql: expected FROM, found end of input (offset 8)"},
		{name: "FROM subquery", sql: `SELECT o.id FROM (SELECT id, x FROM D) o, D o2 WHERE o2.x >= o.x
				GROUP BY o.id HAVING COUNT(*) < k`,
			shape: ok, prepare: "FROM subqueries are not supported", live: "FROM subqueries are not supported"},
		{name: "two-column key", sql: `SELECT o1.id, o1.x FROM D o1, D o2 WHERE o2.x >= o1.x
				GROUP BY o1.id, o1.x HAVING COUNT(*) < k`,
			shape: ok, prepare: ok,
			live: "live queries must GROUP BY a single key column; got 2",
			exec: "queries must GROUP BY a single key column; got 2"},
		{name: "non-integer key", sql: "SELECT o1.name FROM S o1, S o2 WHERE o2.x >= o1.x GROUP BY o1.name HAVING COUNT(*) < k",
			shape: ok, prepare: ok,
			live: `live queries require an integer object key; "S"."name" is string`,
			exec: `group key "name" must be an integer column`},
		{name: "grouped", sql: groupedSQL,
			shape: ok, prepare: ok, live: "GROUP BY counting queries are not supported by PrepareLive"},
		{name: "plain", sql: skybandQuery, shape: ok, prepare: ok, live: ok},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(who, want string, err error) {
				t.Helper()
				switch {
				case want == ok && err != nil:
					t.Errorf("%s: %v, want no error", who, err)
				case want != ok && (err == nil || !errors.Is(err, ErrInvalid) ||
					strings.TrimPrefix(err.Error(), "lsample: invalid request: ") != want):
					t.Errorf("%s: %v, want ErrInvalid %q", who, err, want)
				}
			}
			_, _, err := QueryShape(tc.sql)
			check("QueryShape", tc.shape, err)
			q, err := sess.Prepare(tc.sql)
			check("Prepare", tc.prepare, err)
			_, err = sess.PrepareLive(tc.sql)
			check("PrepareLive", tc.live, err)
			if tc.exec != ok {
				// What PrepareLive checks up front, a prepared query reports
				// when a feature-using method first needs the key.
				_, err := q.Execute(context.Background(), map[string]any{"k": 3}, WithMethod("lss"))
				check("Execute(lss)", tc.exec, err)
			}
		})
	}
}
