package expr

import (
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

func TestParseComparisons(t *testing.T) {
	cases := []struct {
		in string
		op CmpOp
	}{
		{"a = 1", EQ}, {"a <> 1", NE}, {"a != 1", NE},
		{"a < 1", LT}, {"a <= 1", LE}, {"a > 1", GT}, {"a >= 1", GE},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		cmp, ok := e.(Cmp)
		if !ok || cmp.Op != c.op {
			t.Errorf("Parse(%q) = %v", c.in, e)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	e := mustParse("a = 42")
	if lit := e.(Cmp).R.(Lit); lit.Val.Kind != catalog.Int || lit.Val.I != 42 {
		t.Errorf("int literal = %v", lit)
	}
	e = mustParse("a = 2.5")
	if lit := e.(Cmp).R.(Lit); lit.Val.Kind != catalog.Float || lit.Val.F != 2.5 {
		t.Errorf("float literal = %v", lit)
	}
	e = mustParse("a = 'it''s'")
	if lit := e.(Cmp).R.(Lit); lit.Val.S != "it's" {
		t.Errorf("string literal = %v", lit)
	}
	e = mustParse("a = DATE '1997-07-01'")
	want := mustDate("1997-07-01")
	if lit := e.(Cmp).R.(Lit); lit.Val.Kind != catalog.Date || lit.Val.I != want {
		t.Errorf("date literal = %v, want %d", lit, want)
	}
	e = mustParse("a = -7")
	if lit := e.(Cmp).R.(Lit); lit.Val.I != -7 {
		t.Errorf("negative literal = %v", lit)
	}
	e = mustParse("a = -2.5")
	if lit := e.(Cmp).R.(Lit); lit.Val.F != -2.5 {
		t.Errorf("negative float literal = %v", lit)
	}
}

func TestParseBetween(t *testing.T) {
	e := mustParse("d BETWEEN DATE '1997-07-01' AND DATE '1997-09-30'")
	b, ok := e.(Between)
	if !ok {
		t.Fatalf("not Between: %v", e)
	}
	if b.Lo.(Lit).Val.I >= b.Hi.(Lit).Val.I {
		t.Error("bounds out of order")
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	// AND binds tighter than OR.
	e := mustParse("a = 1 OR b = 2 AND c = 3")
	or, ok := e.(Or)
	if !ok || len(or.Terms) != 2 {
		t.Fatalf("top = %v", e)
	}
	if _, ok := or.Terms[1].(And); !ok {
		t.Errorf("right term = %v", or.Terms[1])
	}
	// NOT binds tighter than AND.
	e = mustParse("NOT a = 1 AND b = 2")
	and, ok := e.(And)
	if !ok {
		t.Fatalf("top = %v", e)
	}
	if _, ok := and.Terms[0].(Not); !ok {
		t.Errorf("left term = %v", and.Terms[0])
	}
}

func TestParseParenthesesOverride(t *testing.T) {
	e := mustParse("(a = 1 OR b = 2) AND c = 3")
	and, ok := e.(And)
	if !ok {
		t.Fatalf("top = %v", e)
	}
	if _, ok := and.Terms[0].(Or); !ok {
		t.Errorf("left = %v", and.Terms[0])
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	e := mustParse("a + 2 * 3 = 7")
	add, ok := e.(Cmp).L.(Arith)
	if !ok || add.Op != Add {
		t.Fatalf("L = %v", e.(Cmp).L)
	}
	mul, ok := add.R.(Arith)
	if !ok || mul.Op != Mul {
		t.Errorf("R = %v", add.R)
	}
	// Parenthesized arithmetic inside a comparison.
	e = mustParse("(a + 2) * 3 >= 10")
	outer := e.(Cmp).L.(Arith)
	if outer.Op != Mul {
		t.Errorf("outer op = %v", outer.Op)
	}
	if inner := outer.L.(Arith); inner.Op != Add {
		t.Errorf("inner op = %v", inner.Op)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	e := mustParse("lineitem.l_shipdate < orders.o_orderdate")
	c := e.(Cmp)
	l := c.L.(Col)
	if l.Ref.Table != "lineitem" || l.Ref.Column != "l_shipdate" {
		t.Errorf("left ref = %v", l.Ref)
	}
	r := c.R.(Col)
	if r.Ref.Table != "orders" || r.Ref.Column != "o_orderdate" {
		t.Errorf("right ref = %v", r.Ref)
	}
}

func TestParseContainsAndLike(t *testing.T) {
	e := mustParse("comment CONTAINS 'promo'")
	if got := e.(Contains); got.Substr != "promo" {
		t.Errorf("Contains = %v", got)
	}
	e = mustParse("comment LIKE '%promo%'")
	if got := e.(Contains); got.Substr != "promo" {
		t.Errorf("LIKE = %v", got)
	}
	if _, err := Parse("comment LIKE 'a%b'"); err == nil {
		t.Error("interior wildcard accepted")
	}
	if _, err := Parse("comment LIKE x"); err == nil {
		t.Error("non-string LIKE pattern accepted")
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	e, err := Parse("a between 1 and 2 or not b = 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(Or); !ok {
		t.Errorf("parsed = %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a =",
		"a = 'unterminated",
		"a = 1 extra",
		"a BETWEEN 1",
		"a BETWEEN 1 OR 2",
		"(a = 1",
		"a = 1)",
		"a ! b",
		"a = 1..2",
		"DATE 42 = a",
		"DATE 'nope' = a",
		"a = @",
		"AND a = 1",
		"order = 1",      // clause words are reserved
		"a = 1AND b = 2", // a number glued to a word
		"\xc2\xaa = 1",   // identifiers are ASCII
		"a = 'x' OR limit > 2",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

// mustParse and mustDate are test-local conveniences for
// compile-time-constant inputs; the library itself only returns errors.
func mustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

func mustDate(s string) int64 {
	d, err := value.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

func TestParseUnbalancedParens(t *testing.T) {
	if _, err := Parse("(("); err == nil {
		t.Error("Parse(\"((\") succeeded")
	}
}

func TestParseUnaryMinusExpression(t *testing.T) {
	// Unary minus over a column becomes 0 - col.
	e := mustParse("-a < 0")
	sub, ok := e.(Cmp).L.(Arith)
	if !ok || sub.Op != Sub {
		t.Fatalf("L = %v", e.(Cmp).L)
	}
	if lit, ok := sub.L.(Lit); !ok || lit.Val.I != 0 {
		t.Errorf("base = %v", sub.L)
	}
}

func TestParseEndToEndEval(t *testing.T) {
	schema := RelSchema{Fields: []Field{
		{Table: "l", Column: "ship", Type: catalog.Date},
		{Table: "l", Column: "receipt", Type: catalog.Date},
		{Table: "l", Column: "qty", Type: catalog.Float},
	}}
	e := mustParse("ship BETWEEN DATE '1997-07-01' AND DATE '1997-09-30' AND receipt >= ship + 2 AND qty * 2 > 5")
	b, err := Bind(e, schema)
	if err != nil {
		t.Fatal(err)
	}
	ship := mustDate("1997-08-15")
	row := value.Row{value.Date(ship), value.Date(ship + 3), value.Float(3)}
	ok, err := evalRow(b, row)
	if err != nil || !ok {
		t.Errorf("eval = %v, %v", ok, err)
	}
	row[1] = value.Date(ship + 1) // violates receipt >= ship + 2
	ok, err = evalRow(b, row)
	if err != nil || ok {
		t.Errorf("eval2 = %v, %v", ok, err)
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// The String rendering of a parsed expression must re-parse to an
	// equivalent tree (checked structurally via another String pass).
	inputs := []string{
		"a = 1 AND b < 2.5 OR NOT c >= 3",
		"d BETWEEN 1 AND 10 AND s CONTAINS 'x'",
		"(a + 2) * 3 - 1 >= b / 4",
	}
	for _, in := range inputs {
		e1 := mustParse(in)
		s1 := e1.String()
		e2, err := Parse(strings.ReplaceAll(s1, "\"", "'"))
		if err != nil {
			t.Fatalf("re-parse %q: %v", s1, err)
		}
		if s2 := e2.String(); s1 != s2 {
			t.Errorf("round trip: %q -> %q", s1, s2)
		}
	}
}

func TestParseIn(t *testing.T) {
	e := mustParse("a IN (1, 2, 3)")
	in, ok := e.(In)
	if !ok || len(in.Vals) != 3 || in.Vals[1].I != 2 {
		t.Fatalf("parsed = %v", e)
	}
	// Mixed literal kinds and dates.
	e = mustParse("d IN (DATE '1997-07-01', DATE '1997-07-02')")
	in = e.(In)
	if len(in.Vals) != 2 || in.Vals[1].I-in.Vals[0].I != 1 {
		t.Fatalf("date list = %v", in)
	}
	// Negative numbers via unary folding.
	e = mustParse("a IN (-1, -2.5)")
	in = e.(In)
	if in.Vals[0].I != -1 || in.Vals[1].F != -2.5 {
		t.Fatalf("negative list = %v", in)
	}
	// NOT IN via NOT precedence.
	e = mustParse("NOT a IN (1)")
	if _, ok := e.(Not); !ok {
		t.Fatalf("NOT IN = %v", e)
	}
	// String rendering re-parses.
	if !strings.Contains(mustParse("a IN (1, 2)").String(), "IN (1, 2)") {
		t.Error("String rendering")
	}
	for _, bad := range []string{
		"a IN",
		"a IN 1",
		"a IN ()",
		"a IN (1, )",
		"a IN (1; 2)",
		"a IN (b)",
		"a IN (1, 2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
