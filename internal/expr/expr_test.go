package expr

import (
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

func testRelSchema() RelSchema {
	return RelSchema{Fields: []Field{
		{Table: "t", Column: "a", Type: catalog.Int},
		{Table: "t", Column: "b", Type: catalog.Float},
		{Table: "t", Column: "s", Type: catalog.String},
		{Table: "t", Column: "d", Type: catalog.Date},
		{Table: "u", Column: "a", Type: catalog.Int},
	}}
}

func evalPred(t *testing.T, e Expr, row value.Row) bool {
	t.Helper()
	b, err := Bind(e, testRelSchema())
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	ok, err := evalRow(b, row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return ok
}

// evalRow evaluates a bound predicate over one row, as a one-row batch.
func evalRow(b *Bound, row value.Row) (bool, error) {
	cols := make([]value.Vec, len(row))
	for c, v := range row {
		cols[c] = value.Vec{Kind: v.Kind}
		cols[c].Append(v)
	}
	keep, err := b.EvalBatch(cols, []int{0})
	return len(keep) == 1, err
}

func sampleRow() value.Row {
	return value.Row{value.Int(10), value.Float(2.5), value.Str("hello world"), value.Date(100), value.Int(7)}
}

func TestResolve(t *testing.T) {
	rs := testRelSchema()
	if i, err := rs.Resolve(ColumnRef{Table: "t", Column: "b"}); err != nil || i != 1 {
		t.Errorf("Resolve(t.b) = %d, %v", i, err)
	}
	if i, err := rs.Resolve(ColumnRef{Column: "s"}); err != nil || i != 2 {
		t.Errorf("Resolve(s) = %d, %v", i, err)
	}
	if _, err := rs.Resolve(ColumnRef{Column: "a"}); err == nil {
		t.Error("ambiguous unqualified 'a' resolved")
	}
	if _, err := rs.Resolve(ColumnRef{Column: "zz"}); err == nil {
		t.Error("unknown column resolved")
	}
	if _, err := rs.Resolve(ColumnRef{Table: "x", Column: "a"}); err == nil {
		t.Error("wrong qualifier resolved")
	}
}

func TestSchemaForTableAndConcat(t *testing.T) {
	ts := &catalog.TableSchema{Name: "z", Columns: []catalog.Column{
		{Name: "c1", Type: catalog.Int}, {Name: "c2", Type: catalog.String},
	}}
	rs := SchemaForTable(ts)
	if len(rs.Fields) != 2 || rs.Fields[0].Table != "z" || rs.Fields[1].Column != "c2" {
		t.Errorf("SchemaForTable = %v", rs)
	}
	both := rs.Concat(testRelSchema())
	if len(both.Fields) != 7 {
		t.Errorf("Concat len = %d", len(both.Fields))
	}
	if !strings.Contains(both.String(), "z.c1") {
		t.Errorf("String = %s", both)
	}
}

func TestComparisonOps(t *testing.T) {
	row := sampleRow()
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{EQ, TC("t", "a"), IntLit(10)}, true},
		{Cmp{EQ, TC("t", "a"), IntLit(11)}, false},
		{Cmp{NE, TC("t", "a"), IntLit(11)}, true},
		{Cmp{LT, TC("t", "a"), IntLit(11)}, true},
		{Cmp{LE, TC("t", "a"), IntLit(10)}, true},
		{Cmp{GT, TC("t", "a"), IntLit(10)}, false},
		{Cmp{GE, TC("t", "a"), IntLit(10)}, true},
		{Cmp{LT, C("b"), FloatLit(3)}, true},
		{Cmp{EQ, C("s"), StrLit("hello world")}, true},
		{Cmp{GT, C("d"), DateLit(50)}, true},
	}
	for _, c := range cases {
		if got := evalPred(t, c.e, row); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	row := sampleRow()
	if !evalPred(t, Between{C("d"), DateLit(100), DateLit(200)}, row) {
		t.Error("inclusive lower bound failed")
	}
	if !evalPred(t, Between{C("d"), DateLit(0), DateLit(100)}, row) {
		t.Error("inclusive upper bound failed")
	}
	if evalPred(t, Between{C("d"), DateLit(101), DateLit(200)}, row) {
		t.Error("out-of-range BETWEEN matched")
	}
}

func TestBooleanConnectives(t *testing.T) {
	row := sampleRow()
	tr := Cmp{EQ, TC("t", "a"), IntLit(10)}
	fa := Cmp{EQ, TC("t", "a"), IntLit(0)}
	if !evalPred(t, Conj(tr, tr), row) || evalPred(t, Conj(tr, fa), row) {
		t.Error("AND wrong")
	}
	if !evalPred(t, Or{[]Expr{fa, tr}}, row) || evalPred(t, Or{[]Expr{fa, fa}}, row) {
		t.Error("OR wrong")
	}
	if !evalPred(t, Not{fa}, row) || evalPred(t, Not{tr}, row) {
		t.Error("NOT wrong")
	}
}

func TestConjFlattening(t *testing.T) {
	a := Cmp{EQ, C("s"), StrLit("x")}
	if Conj() != nil {
		t.Error("Conj() != nil")
	}
	if got := Conj(a); got.(Cmp) != a {
		t.Error("Conj(a) should unwrap")
	}
	nested := Conj(Conj(a, a), a, nil)
	and, ok := nested.(And)
	if !ok || len(and.Terms) != 3 {
		t.Errorf("Conj flattening = %v", nested)
	}
}

func TestArithmetic(t *testing.T) {
	row := sampleRow()
	// (a + 2) * 3 = 36
	e := Cmp{EQ, Arith{Mul, Arith{Add, TC("t", "a"), IntLit(2)}, IntLit(3)}, IntLit(36)}
	if !evalPred(t, e, row) {
		t.Error("integer arithmetic wrong")
	}
	// b / 2 = 1.25
	e2 := Cmp{EQ, Arith{Div, C("b"), IntLit(2)}, FloatLit(1.25)}
	if !evalPred(t, e2, row) {
		t.Error("float arithmetic wrong")
	}
	// date + int keeps date-ness and exactness: d + 5 = 105.
	e3 := Cmp{EQ, Arith{Add, C("d"), IntLit(5)}, DateLit(105)}
	if !evalPred(t, e3, row) {
		t.Error("date shift wrong")
	}
	// Division by zero is an error.
	b, err := Bind(Cmp{EQ, Arith{Div, TC("t", "a"), IntLit(0)}, IntLit(1)}, testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalRow(b, row); err == nil {
		t.Error("integer division by zero succeeded")
	}
	b2, err := Bind(Cmp{EQ, Arith{Div, C("b"), FloatLit(0)}, FloatLit(1)}, testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalRow(b2, row); err == nil {
		t.Error("float division by zero succeeded")
	}
}

func TestContains(t *testing.T) {
	row := sampleRow()
	if !evalPred(t, Contains{C("s"), "lo wo"}, row) {
		t.Error("substring not found")
	}
	if evalPred(t, Contains{C("s"), "xyz"}, row) {
		t.Error("absent substring found")
	}
	b, _ := Bind(Contains{TC("t", "a"), "x"}, testRelSchema())
	if _, err := evalRow(b, row); err == nil {
		t.Error("CONTAINS over int succeeded")
	}
}

func TestBindErrors(t *testing.T) {
	rs := testRelSchema()
	if _, err := Bind(C("zz"), rs); err == nil {
		t.Error("bare column as predicate accepted")
	}
	if _, err := Bind(Cmp{EQ, C("zz"), IntLit(1)}, rs); err == nil {
		t.Error("unknown column bound")
	}
	if _, err := Bind(IntLit(1), rs); err == nil {
		t.Error("literal as predicate accepted")
	}
	if _, err := Bind(And{}, rs); err == nil {
		t.Error("empty AND accepted")
	}
	if _, err := BindScalar(Cmp{EQ, IntLit(1), IntLit(1)}, rs); err == nil {
		t.Error("predicate as scalar accepted")
	}
}

func TestBindNilIsTrue(t *testing.T) {
	b, err := Bind(nil, testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := evalRow(b, sampleRow())
	if err != nil || !ok {
		t.Errorf("nil predicate = %v, %v", ok, err)
	}
}

func TestTypeMismatchAtEval(t *testing.T) {
	b, err := Bind(Cmp{EQ, C("s"), IntLit(1)}, testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalRow(b, sampleRow()); err == nil {
		t.Error("string = int comparison succeeded")
	}
	b2, _ := Bind(Cmp{GT, Arith{Add, C("s"), IntLit(1)}, IntLit(0)}, testRelSchema())
	if _, err := evalRow(b2, sampleRow()); err == nil {
		t.Error("string arithmetic succeeded")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := mustParse("t.a = 1 AND (b + d > 5 OR NOT s CONTAINS 'x')")
	cols := Columns(e)
	if len(cols) != 4 {
		t.Fatalf("Columns = %v", cols)
	}
	if cols[0] != (ColumnRef{Table: "t", Column: "a"}) {
		t.Errorf("first ref = %v", cols[0])
	}
}

func TestSplitConjuncts(t *testing.T) {
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil) != nil")
	}
	single := Cmp{EQ, C("a"), IntLit(1)}
	if got := SplitConjuncts(single); len(got) != 1 {
		t.Errorf("single = %v", got)
	}
	three := Conj(single, single, single)
	if got := SplitConjuncts(three); len(got) != 3 {
		t.Errorf("three = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	e := Conj(
		Between{C("d"), DateLit(1), DateLit(2)},
		Or{[]Expr{Not{Cmp{NE, C("a"), IntLit(3)}}, Contains{C("s"), "q"}}},
	)
	s := e.String()
	for _, want := range []string{"BETWEEN", "OR", "NOT", "<>", "CONTAINS", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestEvalShortRow(t *testing.T) {
	b, err := Bind(Cmp{EQ, TC("u", "a"), IntLit(7)}, testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalRow(b, value.Row{value.Int(1)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestInEvaluation(t *testing.T) {
	row := sampleRow() // t.a=10, b=2.5, s="hello world", d=100, u.a=7
	if !evalPred(t, mustParse("t.a IN (5, 10, 15)"), row) {
		t.Error("member not found")
	}
	if evalPred(t, mustParse("t.a IN (5, 15)"), row) {
		t.Error("non-member found")
	}
	if !evalPred(t, mustParse("s IN ('x', 'hello world')"), row) {
		t.Error("string member not found")
	}
	// Numeric cross-kind membership: d (Date 100) matches integer 100.
	if !evalPred(t, mustParse("d IN (100)"), row) {
		t.Error("date/int member not found")
	}
	// Type mismatch inside the list is an error.
	b, err := Bind(mustParse("t.a IN ('text')"), testRelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalRow(b, row); err == nil {
		t.Error("int IN strings accepted")
	}
	// Empty lists rejected at bind time.
	if _, err := Bind(In{E: C("a")}, testRelSchema()); err == nil {
		t.Error("empty IN accepted")
	}
	// IN as scalar rejected.
	if _, err := BindScalar(mustParse("t.a IN (1)"), testRelSchema()); err == nil {
		t.Error("IN as scalar accepted")
	}
	// Columns are collected through IN.
	if cols := Columns(mustParse("t.a IN (1, 2)")); len(cols) != 1 || cols[0].Column != "a" {
		t.Errorf("Columns = %v", cols)
	}
}
