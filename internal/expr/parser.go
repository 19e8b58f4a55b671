package expr

import (
	"fmt"
	"strconv"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// Parse parses a SQL-like predicate such as
//
//	l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30'
//	  AND (l_quantity + 2) * 3 >= 10
//	  AND p_comment CONTAINS 'promo'
//
// Supported: comparison operators (=, <>, !=, <, <=, >, >=), BETWEEN..AND,
// AND/OR/NOT, parentheses, + - * /, unary minus, integer/float/string
// literals, DATE 'YYYY-MM-DD' literals, and optionally table-qualified
// column names. Keywords are case-insensitive; the SQL clause words
// SELECT, FROM, WHERE, GROUP, ORDER and LIMIT are reserved and cannot
// name a column.
//
// Whether the result is a valid predicate (rather than a bare scalar) is
// checked by Bind, which performs name and type resolution.
func Parse(input string) (Expr, error) {
	p, err := NewParser(input)
	if err != nil {
		return nil, err
	}
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if !p.AtEnd() {
		return nil, fmt.Errorf("expr: unexpected trailing input at %q", p.peek().text)
	}
	return e, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // punctuation operators
	tokKeyword
)

type token struct {
	kind tokKind
	text string // keywords upper-cased, idents as written
	pos  int
}

// keywords are the reserved words, upper-cased: the predicate grammar's
// own and the SQL clause words, so no identifier can be mistaken for a
// clause boundary.
var keywords = []string{
	"AND", "OR", "NOT", "BETWEEN", "IN", "CONTAINS", "LIKE", "DATE", "TRUE", "FALSE",
	"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "LIMIT",
}

// keyword returns the reserved word word spells, ignoring case.
func keyword(word string) (string, bool) {
	for _, kw := range keywords {
		if len(kw) == len(word) && strings.EqualFold(kw, word) {
			return kw, true
		}
	}
	return "", false
}

func lex(input string) ([]token, error) {
	toks := make([]token, 0, len(input)/4+1)
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == '+' || c == '-' || c == '*' || c == '/' || c == ',':
			toks = append(toks, token{tokOp, input[i : i+1], i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{tokOp, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("expr: stray '!' at offset %d", i)
			}
		case c == '\'':
			text, j, err := lexString(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{tokString, text, i})
			i = j
		case c >= '0' && c <= '9' || c == '.':
			j := i
			seenDot := false
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.' && !seenDot) {
				if input[j] == '.' {
					seenDot = true
				}
				j++
			}
			if input[i:j] == "." || j < n && isIdentStart(input[j]) {
				return nil, fmt.Errorf("expr: bad number at offset %d", i)
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentPart(input[j]) {
				j++
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{tokKeyword, kw, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("expr: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// lexString reads the string literal whose opening quote is at i and
// returns its value and the offset just past the closing quote. A doubled
// quote escapes one; a literal without one is a substring of the input.
func lexString(input string, i int) (string, int, error) {
	j := i + 1
	var sb strings.Builder
	for start := j; ; {
		k := strings.IndexByte(input[j:], '\'')
		if k < 0 {
			return "", 0, fmt.Errorf("expr: unterminated string starting at offset %d", i)
		}
		j += k
		if j+1 < len(input) && input[j+1] == '\'' {
			sb.WriteString(input[start : j+1])
			j += 2
			start = j
			continue
		}
		if sb.Len() == 0 {
			return input[start:j], j + 1, nil
		}
		sb.WriteString(input[start:j])
		return sb.String(), j + 1, nil
	}
}

func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || c == '.' || c >= '0' && c <= '9' }

// Parser is a recursive-descent cursor over one lexed input. Parse is a
// Parser plus an end-of-input check; package sqlparse drives a Parser
// clause by clause over a whole statement, reading predicates and
// aggregate arguments with Expr and the words, names and numbers between
// them with the other methods, so a statement is lexed once.
type Parser struct {
	toks []token
	pos  int
}

// NewParser lexes input and returns a cursor at its first token.
func NewParser(input string) (*Parser, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Expr parses one expression at the cursor, stopping at the first token
// that cannot continue it.
func (p *Parser) Expr() (Expr, error) { return p.parseOr() }

// Word accepts the keyword or identifier w (upper-case), ignoring case.
func (p *Parser) Word(w string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == w || t.kind == tokIdent && strings.EqualFold(t.text, w) {
		p.pos++
		return true
	}
	return false
}

// Op accepts the operator or punctuation op.
func (p *Parser) Op(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

// Name reads an unqualified identifier, such as a table name or an alias.
func (p *Parser) Name() (string, bool) {
	t := p.peek()
	if t.kind != tokIdent || strings.Contains(t.text, ".") {
		return "", false
	}
	p.pos++
	return t.text, true
}

// Column reads an identifier as an optionally table-qualified column
// reference.
func (p *Parser) Column() (ColumnRef, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return ColumnRef{}, fmt.Errorf("expr: expected a column at offset %d, found %q", t.pos, t.text)
	}
	p.pos++
	table, col, qualified := strings.Cut(t.text, ".")
	if !qualified {
		return ColumnRef{Column: t.text}, nil
	}
	if table == "" || col == "" || strings.Contains(col, ".") {
		return ColumnRef{}, fmt.Errorf("expr: bad column reference %q", t.text)
	}
	return ColumnRef{Table: table, Column: col}, nil
}

// Call accepts an identifier followed by '(' — the head of a function
// call — and returns the identifier.
func (p *Parser) Call() (string, bool) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", false
	}
	if open := p.toks[p.pos+1]; open.kind != tokOp || open.text != "(" {
		return "", false
	}
	p.pos += 2
	return t.text, true
}

// Int reads an unsigned integer literal.
func (p *Parser) Int() (int, bool) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, false
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, false
	}
	p.pos++
	return n, true
}

// Offset returns the byte offset of the token at the cursor (the input's
// length at the end).
func (p *Parser) Offset() int { return p.peek().pos }

// AtEnd reports whether the whole input has been consumed.
func (p *Parser) AtEnd() bool { return p.peek().kind == tokEOF }

func (p *Parser) peek() token { return p.toks[p.pos] }
func (p *Parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.Word(kw) {
		return fmt.Errorf("expr: expected %s at offset %d, found %q", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil || !p.Word("OR") {
		return left, err
	}
	terms := []Expr{left}
	for more := true; more; more = p.Word("OR") {
		t, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return Or{Terms: terms}, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil || !p.Word("AND") {
		return left, err
	}
	terms := []Expr{left}
	for more := true; more; more = p.Word("AND") {
		t, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return And{Terms: terms}, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.Word("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]CmpOp{
	"=": EQ, "<>": NE, "<": LT, "<=": LE, ">": GT, ">=": GE,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return Cmp{Op: op, L: left, R: right}, nil
		}
	}
	if p.Word("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Between{E: left, Lo: lo, Hi: hi}, nil
	}
	if p.Word("IN") {
		if !p.Op("(") {
			return nil, fmt.Errorf("expr: IN requires a parenthesized value list at offset %d", p.peek().pos)
		}
		var vals []value.Value
		for {
			elem, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			lit, ok := elem.(Lit)
			if !ok {
				return nil, fmt.Errorf("expr: IN list elements must be literals, got %s", elem)
			}
			vals = append(vals, lit.Val)
			if p.Op(",") {
				continue
			}
			if p.Op(")") {
				break
			}
			return nil, fmt.Errorf("expr: expected ',' or ')' in IN list at offset %d", p.peek().pos)
		}
		return In{E: left, Vals: vals}, nil
	}
	if p.Word("CONTAINS") || p.Word("LIKE") {
		t := p.peek()
		if t.kind != tokString {
			return nil, fmt.Errorf("expr: CONTAINS/LIKE requires a string literal at offset %d", t.pos)
		}
		p.next()
		pattern := t.text
		// LIKE patterns are restricted to the '%sub%' form the engine
		// supports; strip the wildcards.
		pattern = strings.TrimPrefix(pattern, "%")
		pattern = strings.TrimSuffix(pattern, "%")
		if strings.ContainsAny(pattern, "%_") {
			return nil, fmt.Errorf("expr: only '%%substring%%' LIKE patterns are supported, got %q", t.text)
		}
		return Contains{E: left, Substr: pattern}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.Op("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: Add, L: left, R: r}
		case p.Op("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: Sub, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.Op("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: Mul, L: left, R: r}
		case p.Op("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: Div, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.Op("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negated literals.
		if l, ok := e.(Lit); ok {
			v := l.Val
			if v.Kind == catalog.Float {
				v.F = -v.F
			} else {
				v.I = -v.I
			}
			return Lit{Val: v}, nil
		}
		return Arith{Op: Sub, L: IntLit(0), R: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("expr: bad float %q: %v", t.text, err)
			}
			return FloatLit(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad integer %q: %v", t.text, err)
		}
		return IntLit(i), nil
	case tokString:
		p.next()
		return StrLit(t.text), nil
	case tokKeyword:
		if t.text == "DATE" {
			p.next()
			s := p.peek()
			if s.kind != tokString {
				return nil, fmt.Errorf("expr: DATE requires a 'YYYY-MM-DD' string at offset %d", s.pos)
			}
			p.next()
			days, err := value.ParseDate(s.text)
			if err != nil {
				return nil, err
			}
			return DateLit(days), nil
		}
		return nil, fmt.Errorf("expr: unexpected keyword %s at offset %d", t.text, t.pos)
	case tokIdent:
		ref, err := p.Column()
		if err != nil {
			return nil, err
		}
		return Col{Ref: ref}, nil
	case tokOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.Op(")") {
				return nil, fmt.Errorf("expr: missing ')' at offset %d", p.peek().pos)
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected token %q at offset %d", t.text, t.pos)
}
