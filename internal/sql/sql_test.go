package sql

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT COUNT(*) FROM D WHERE x >= 1.5 AND y <> 'a''b' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "COUNT", "(", "*", ")", "FROM", "D", "WHERE",
		"x", ">=", "1.5", "AND", "y", "<>", "a'b", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[10] != TokNumber {
		t.Fatal("token kinds wrong")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("1 2.5 .5 1e3 2.5E-2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", ".5", "1e3", "2.5E-2"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Fatalf("number token %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := Lex("a ! b"); err == nil {
		t.Fatal("lone ! should fail")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Fatal("# should fail")
	}
}

func TestParseExample1(t *testing.T) {
	// The paper's Example 1: counting points with few neighbors.
	q := `SELECT COUNT(*) FROM
	  (SELECT o1.id FROM D o1, D o2
	   WHERE SQRT(POWER(o1.x-o2.x,2) + POWER(o1.y-o2.y,2)) <= d
	   GROUP BY o1.id HAVING COUNT(*) <= k);`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 1 || stmt.From[0].Subquery == nil {
		t.Fatal("expected derived table")
	}
	inner := stmt.From[0].Subquery
	if len(inner.From) != 2 || inner.From[0].Alias != "o1" || inner.From[1].Alias != "o2" {
		t.Fatalf("inner FROM = %+v", inner.From)
	}
	if inner.Having == nil || len(inner.GroupBy) != 1 {
		t.Fatal("expected GROUP BY and HAVING")
	}
	fc, ok := stmt.Select[0].Expr.(*FuncCall)
	if !ok || fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("outer select = %+v", stmt.Select[0].Expr)
	}
}

func TestParseExample2Predicate(t *testing.T) {
	// The paper's Example 2 predicate: k-skyband membership test.
	e, err := ParseExpr(`(SELECT COUNT(*) FROM D
	  WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < k`)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := e.(*BinaryExpr)
	if !ok || cmp.Op != "<" {
		t.Fatalf("top = %+v", e)
	}
	sub, ok := cmp.L.(*SubqueryExpr)
	if !ok || sub.Exists {
		t.Fatalf("lhs = %+v", cmp.L)
	}
	if sub.Query.Where == nil {
		t.Fatal("subquery needs WHERE")
	}
	// The predicate references the outer alias o.
	found := false
	WalkExpr(sub.Query.Where, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.Qualifier == "o" {
			found = true
		}
	})
	if !found {
		t.Fatal("expected correlated reference o.*")
	}
}

func TestParseExists(t *testing.T) {
	e, err := ParseExpr(`EXISTS(SELECT id FROM D WHERE id = o.id GROUP BY id HAVING COUNT(*) < 5)`)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := e.(*SubqueryExpr)
	if !ok || !sub.Exists {
		t.Fatalf("got %+v", e)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c < d OR NOT e > f AND g = h")
	if err != nil {
		t.Fatal(err)
	}
	// Expect: OR( <(+(a,*(b,c)), d), AND(NOT(>(e,f)), =(g,h)) )
	or, ok := e.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top should be OR: %v", e)
	}
	lt, ok := or.L.(*BinaryExpr)
	if !ok || lt.Op != "<" {
		t.Fatalf("left of OR should be <: %v", or.L)
	}
	plus, ok := lt.L.(*BinaryExpr)
	if !ok || plus.Op != "+" {
		t.Fatalf("should be +: %v", lt.L)
	}
	if mul, ok := plus.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("b*c should bind tighter: %v", plus.R)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR should be AND: %v", or.R)
	}
	if not, ok := and.L.(*UnaryExpr); !ok || not.Op != "NOT" {
		t.Fatalf("NOT should bind the comparison: %v", and.L)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	e, err := ParseExpr("-x + 3")
	if err != nil {
		t.Fatal(err)
	}
	plus := e.(*BinaryExpr)
	if _, ok := plus.L.(*UnaryExpr); !ok {
		t.Fatalf("expected unary minus: %v", plus.L)
	}
}

func TestParseAliases(t *testing.T) {
	stmt, err := Parse("SELECT x AS a, y b, COUNT(*) FROM t1 AS u, t2 v WHERE u.x = v.y")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Select[0].Alias != "a" || stmt.Select[1].Alias != "b" {
		t.Fatalf("select aliases: %+v", stmt.Select)
	}
	if stmt.From[0].BindName() != "u" || stmt.From[1].BindName() != "v" {
		t.Fatalf("from aliases: %+v", stmt.From)
	}
	if (TableRef{Name: "t"}).BindName() != "t" {
		t.Fatal("BindName without alias")
	}
}

func TestParseDistinct(t *testing.T) {
	stmt, err := Parse("SELECT DISTINCT id FROM D WHERE x > 0")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Distinct {
		t.Fatal("DISTINCT not parsed")
	}
	stmt2, err := Parse("SELECT COUNT(DISTINCT id) FROM D")
	if err != nil {
		t.Fatal(err)
	}
	fc := stmt2.Select[0].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Fatal("COUNT(DISTINCT ...) not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t extra junk here ,",
		"FROM t",
		"SELECT f( FROM t",
		"SELECT a. FROM t",
		"SELECT (SELECT x FROM t FROM u",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected parse error for %q", q)
		}
	}
	if _, err := ParseExpr("a b c"); err == nil {
		t.Fatal("trailing junk in expression should error")
	}
}

func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM D",
		"SELECT DISTINCT id FROM D WHERE x > 0",
		"SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id HAVING COUNT(*) < 3",
		"SELECT COUNT(*) FROM (SELECT o1.id FROM D o1, D o2 WHERE SQRT(POWER(o1.x - o2.x, 2) + POWER(o1.y - o2.y, 2)) <= 5 GROUP BY o1.id HAVING COUNT(*) <= 2) s",
		"SELECT a, SUM(b) AS total FROM t WHERE NOT a = 1 OR b <> 2 GROUP BY a HAVING SUM(b) > 10",
	}
	for _, q := range queries {
		stmt1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := stmt1.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if stmt2.String() != rendered {
			t.Fatalf("round trip unstable:\n1: %s\n2: %s", rendered, stmt2.String())
		}
	}
}

func TestSplitConjoin(t *testing.T) {
	e, err := ParseExpr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	if err != nil {
		t.Fatal(err)
	}
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("got %d conjuncts", len(parts))
	}
	back := Conjoin(parts)
	if back.String() != e.String() {
		t.Fatalf("conjoin mismatch: %s vs %s", back.String(), e.String())
	}
	if Conjoin(nil) != nil {
		t.Fatal("Conjoin(nil) should be nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Fatal("SplitConjuncts(nil) should be nil")
	}
}

func TestStringEscaping(t *testing.T) {
	e, err := ParseExpr("name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if !strings.Contains(s, "'it''s'") {
		t.Fatalf("rendered string literal should re-escape: %s", s)
	}
	e2, err := ParseExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	lit := e2.(*BinaryExpr).R.(*StringLit)
	if lit.Value != "it's" {
		t.Fatalf("value = %q", lit.Value)
	}
}

func BenchmarkParseExample1(b *testing.B) {
	q := `SELECT COUNT(*) FROM
	  (SELECT o1.id FROM D o1, D o2
	   WHERE SQRT(POWER(o1.x-o2.x,2) + POWER(o1.y-o2.y,2)) <= 5
	   GROUP BY o1.id HAVING COUNT(*) <= 10)`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
