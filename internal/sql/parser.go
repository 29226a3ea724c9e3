package sql

import (
	"fmt"
	"math"
	"strconv"
)

// Parse parses a single SELECT statement (an optional trailing semicolon is
// allowed) and returns its AST.
func Parse(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokPunct && p.peek().Text == ";" {
		p.next()
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseExpr parses a standalone expression, such as the paper's per-object
// predicate conditions (e.g. Example 2's aggregate-subquery comparison).
func ParseExpr(input string) (Expr, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("sql: unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.Kind != TokKeyword || t.Text != kw {
		return fmt.Errorf("sql: expected %s, found %s (offset %d)", kw, t, t.Pos)
	}
	p.next()
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.Kind != TokPunct || t.Text != s {
		return fmt.Errorf("sql: expected %q, found %s (offset %d)", s, t, t.Pos)
	}
	p.next()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.atKeyword("DISTINCT") {
		p.next()
		stmt.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if p.peek().Kind == TokPunct && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if p.peek().Kind == TokPunct && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}
	if p.atKeyword("WHERE") {
		p.next()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if p.peek().Kind == TokPunct && p.peek().Text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("HAVING") {
		p.next()
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.atKeyword("ASC") {
				p.next()
			} else if p.atKeyword("DESC") {
				p.next()
				item.Desc = true
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.peek().Kind == TokPunct && p.peek().Text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("LIMIT") {
		p.next()
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: expected number after LIMIT, found %s", t)
		}
		p.next()
		lit, err := parseNumber(t.Text)
		if err != nil || !lit.IsInt || lit.Int < 0 {
			return nil, fmt.Errorf("sql: LIMIT wants a nonnegative integer, got %q", t.Text)
		}
		stmt.Limit = int(lit.Int)
		stmt.HasLimit = true
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Kind == TokOp && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.atKeyword("AS") {
		p.next()
		t := p.peek()
		if t.Kind != TokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS, found %s", t)
		}
		item.Alias = p.next().Text
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.peek()
	var ref TableRef
	switch {
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return TableRef{}, err
		}
		ref = TableRef{Subquery: sub}
	case t.Kind == TokIdent:
		ref = TableRef{Name: p.next().Text}
	default:
		return TableRef{}, fmt.Errorf("sql: expected table name or subquery, found %s", t)
	}
	if p.atKeyword("AS") {
		p.next()
	}
	if p.peek().Kind == TokIdent {
		ref.Alias = p.next().Text
	}
	// Canonicalize a self-alias (FROM t t) away: BindName is unchanged and
	// the rendered SQL round-trips to the identical AST.
	if ref.Alias == ref.Name {
		ref.Alias = ""
	}
	if ref.Subquery != nil && ref.Alias == "" {
		ref.Alias = "_sub"
	}
	return ref, nil
}

// parseExpr parses a full boolean expression: OR has the lowest precedence.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			op := p.next().Text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-") {
			op := p.next().Text
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/") {
			op := p.next().Text
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokOp && t.Text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.next()
		lit, err := parseNumber(t.Text)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q at offset %d", t.Text, t.Pos)
		}
		return lit, nil
	case t.Kind == TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "EXISTS":
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &SubqueryExpr{Exists: true, Query: sub}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		if p.atKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Query: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		name := p.next().Text
		// Function call?
		if p.peek().Kind == TokPunct && p.peek().Text == "(" {
			return p.parseFuncCall(name)
		}
		// Qualified column?
		if p.peek().Kind == TokPunct && p.peek().Text == "." {
			p.next()
			col := p.peek()
			if col.Kind != TokIdent {
				return nil, fmt.Errorf("sql: expected column name after %q., found %s", name, col)
			}
			p.next()
			return &ColumnRef{Qualifier: name, Name: col.Name()}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %s at offset %d", t, t.Pos)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: upper(name)}
	if p.peek().Kind == TokOp && p.peek().Text == "*" {
		p.next()
		fc.Star = true
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.atKeyword("DISTINCT") {
		p.next()
		fc.Distinct = true
	}
	if !(p.peek().Kind == TokPunct && p.peek().Text == ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, a)
			if p.peek().Kind == TokPunct && p.peek().Text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

// Name returns the token text; a helper so parsePrimary reads naturally.
func (t Token) Name() string { return t.Text }

func parseNumber(s string) (*NumberLit, error) {
	// A digit string is an integer literal, read exactly; one too large for
	// int64 is only representable as a float, which also keeps
	// parse→String→reparse the identity on ASTs.
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return &NumberLit{Value: float64(i), IsInt: true, Int: i}, nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	if err != nil {
		return nil, err
	}
	// Values outside the finite range cannot round-trip through the
	// renderer (and make no sense as literals); reject them outright.
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil, fmt.Errorf("sql: number %q overflows", s)
	}
	return &NumberLit{Value: v}, nil
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}
