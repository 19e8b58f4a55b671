package expr

import (
	"fmt"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/stats"
	"robustqo/internal/value"
)

// intn draws from [0, n); bounds here are always positive, so the error
// path is unreachable.
func intn(rng *stats.RNG, n int) int {
	v, _ := rng.Intn(n)
	return v
}

// batchColumns builds n rows of the testRelSchema shape as column vectors
// plus the same data as rows, so batch evaluation can be compared with the
// reference interpreter on identical inputs.
func batchColumns(rng *stats.RNG, n int) ([]value.Vec, []value.Row) {
	words := []string{"hello world", "alpha", "robust plan", "hello", ""}
	cols := []value.Vec{{Kind: catalog.Int}, {Kind: catalog.Float}, {Kind: catalog.String}, {Kind: catalog.Date}, {Kind: catalog.Int}}
	rows := make([]value.Row, n)
	for r := 0; r < n; r++ {
		row := value.Row{
			value.Int(int64(intn(rng, 20)) - 5),
			value.Float(rng.Float64()*10 - 5),
			value.Str(words[intn(rng, len(words))]),
			value.Date(int64(intn(rng, 50))),
			value.Int(int64(intn(rng, 10))),
		}
		rows[r] = row
		for c, v := range row {
			cols[c].Append(v)
		}
	}
	return cols, rows
}

// vecs turns value columns into typed vectors, each of its first value's
// kind (Int when empty).
func vecs(cols [][]value.Value) []value.Vec {
	out := make([]value.Vec, len(cols))
	for c, col := range cols {
		if len(col) > 0 {
			out[c].Kind = col[0].Kind
		}
		for _, v := range col {
			out[c].Append(v)
		}
	}
	return out
}

// refPred is the differential tests' reference: a direct interpreter of
// the Expr AST over one row, with no binding, no closures and no shared
// evaluation code.
func refPred(e Expr, schema RelSchema, row value.Row) (bool, error) {
	switch n := e.(type) {
	case Cmp:
		l, err := refScalar(n.L, schema, row)
		if err != nil {
			return false, err
		}
		r, err := refScalar(n.R, schema, row)
		if err != nil {
			return false, err
		}
		c, err := value.Compare(l, r)
		if err != nil {
			return false, err
		}
		return map[CmpOp]bool{EQ: c == 0, NE: c != 0, LT: c < 0, LE: c <= 0, GT: c > 0, GE: c >= 0}[n.Op], nil
	case Between:
		return refPred(And{Terms: []Expr{Cmp{Op: GE, L: n.E, R: n.Lo}, Cmp{Op: LE, L: n.E, R: n.Hi}}}, schema, row)
	case And:
		for _, t := range n.Terms {
			if ok, err := refPred(t, schema, row); err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case Or:
		for _, t := range n.Terms {
			if ok, err := refPred(t, schema, row); err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case Not:
		ok, err := refPred(n.E, schema, row)
		return !ok, err
	case Contains:
		v, err := refScalar(n.E, schema, row)
		if err != nil {
			return false, err
		}
		if v.Kind != catalog.String {
			return false, fmt.Errorf("expr: CONTAINS over non-string value %s", v)
		}
		return strings.Contains(v.S, n.Substr), nil
	case In:
		for _, c := range n.Vals {
			if ok, err := refPred(Cmp{Op: EQ, L: n.E, R: Lit{Val: c}}, schema, row); err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("reference: %T is not a predicate", e)
}

// refScalar interprets a scalar subtree over one row. Arithmetic is
// integral when neither operand is a float, with date-ness kept.
func refScalar(e Expr, schema RelSchema, row value.Row) (value.Value, error) {
	switch n := e.(type) {
	case Col:
		idx, err := schema.Resolve(n.Ref)
		if err != nil {
			return value.Value{}, err
		}
		return row[idx], nil
	case Lit:
		return n.Val, nil
	case Arith:
		l, err := refScalar(n.L, schema, row)
		if err != nil {
			return value.Value{}, err
		}
		r, err := refScalar(n.R, schema, row)
		if err != nil {
			return value.Value{}, err
		}
		if !l.Numeric() || !r.Numeric() {
			return value.Value{}, fmt.Errorf("reference: arithmetic over %v, %v", l, r)
		}
		if l.Kind != catalog.Float && r.Kind != catalog.Float {
			kind := l.Kind
			if r.Kind == catalog.Date {
				kind = catalog.Date
			}
			switch n.Op {
			case Add:
				return value.Value{Kind: kind, I: l.I + r.I}, nil
			case Sub:
				return value.Value{Kind: kind, I: l.I - r.I}, nil
			case Mul:
				return value.Value{Kind: kind, I: l.I * r.I}, nil
			}
			if r.I == 0 {
				return value.Value{}, fmt.Errorf("reference: division by zero")
			}
			return value.Value{Kind: kind, I: l.I / r.I}, nil
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch n.Op {
		case Add:
			return value.Float(lf + rf), nil
		case Sub:
			return value.Float(lf - rf), nil
		case Mul:
			return value.Float(lf * rf), nil
		}
		if rf == 0 {
			return value.Value{}, fmt.Errorf("reference: division by zero")
		}
		return value.Float(lf / rf), nil
	}
	return value.Value{}, fmt.Errorf("reference: %T is not a scalar", e)
}

// batchPredCases enumerates predicate shapes covering every vectorized
// node — comparisons, BETWEEN, AND/OR/NOT nesting, CONTAINS, IN, and
// arithmetic inside comparisons — plus the Col-vs-Lit kernels on every
// operator, the shapes that must fall back to the generic path, and a
// kernel that fails on every row.
func batchPredCases() []Expr {
	cases := []Expr{
		Cmp{Op: LT, L: TC("t", "a"), R: IntLit(5)},
		Cmp{Op: GE, L: C("b"), R: FloatLit(0)},
		Cmp{Op: EQ, L: TC("u", "a"), R: IntLit(3)},
		Cmp{Op: NE, L: C("d"), R: IntLit(25)},
		Between{E: TC("t", "a"), Lo: IntLit(-2), Hi: IntLit(8)},
		Between{E: C("d"), Lo: TC("t", "a"), Hi: Arith{Op: Add, L: TC("t", "a"), R: IntLit(30)}},
		Conj(
			Cmp{Op: GT, L: TC("t", "a"), R: IntLit(0)},
			Cmp{Op: LT, L: C("b"), R: FloatLit(3)},
		),
		Or{Terms: []Expr{
			Cmp{Op: LT, L: TC("t", "a"), R: IntLit(-3)},
			Cmp{Op: GT, L: C("d"), R: IntLit(40)},
			Contains{E: C("s"), Substr: "hello"},
		}},
		Not{E: Cmp{Op: LE, L: TC("t", "a"), R: IntLit(7)}},
		Not{E: Or{Terms: []Expr{
			Cmp{Op: LT, L: TC("t", "a"), R: IntLit(2)},
			Between{E: C("d"), Lo: IntLit(10), Hi: IntLit(20)},
		}}},
		In{E: TC("u", "a"), Vals: []value.Value{value.Int(1), value.Int(4), value.Int(8)}},
		Cmp{Op: GT, L: Arith{Op: Mul, L: TC("t", "a"), R: IntLit(2)}, R: Arith{Op: Sub, L: C("d"), R: IntLit(5)}},
		// Literal on the left: the generic path.
		Cmp{Op: GT, L: IntLit(3), R: TC("t", "a")},
		// An empty interval.
		Between{E: TC("t", "a"), Lo: IntLit(8), Hi: IntLit(-2)},
		Between{E: C("s"), Lo: StrLit("alpha"), Hi: StrLit("hello")},
		// Kernels under OR and NOT.
		Or{Terms: []Expr{
			Between{E: C("d"), Lo: DateLit(5), Hi: DateLit(9)},
			Not{E: Between{E: TC("t", "a"), Lo: IntLit(-5), Hi: IntLit(10)}},
		}},
		// A string column against an int literal errors on every row.
		Cmp{Op: EQ, L: C("s"), R: IntLit(1)},
	}
	for op := EQ; op <= GE; op++ {
		cases = append(cases,
			Cmp{Op: op, L: TC("t", "a"), R: IntLit(4)},
			Cmp{Op: op, L: C("b"), R: IntLit(1)},
			Cmp{Op: op, L: C("s"), R: StrLit("hello")},
			// An Int column against a Float literal compares as float64.
			Cmp{Op: op, L: TC("t", "a"), R: FloatLit(2.5)},
			// Column against column, Int and Float against Int; a String
			// literal against a column; computed against a column.
			Cmp{Op: op, L: TC("t", "a"), R: TC("u", "a")},
			Cmp{Op: op, L: C("b"), R: TC("t", "a")},
			Cmp{Op: op, L: StrLit("hello"), R: C("s")},
			Cmp{Op: op, L: Arith{Op: Mul, L: C("b"), R: TC("t", "a")}, R: C("d")})
	}
	cases = append(cases,
		// IN over a Float list, and over a list whose String candidate
		// fails only the rows no earlier candidate matches.
		In{E: TC("t", "a"), Vals: []value.Value{value.Float(2), value.Float(3.5)}},
		In{E: TC("u", "a"), Vals: []value.Value{value.Int(1), value.Int(2), value.Str("x")}},
		Cmp{Op: EQ, L: C("s"), R: C("d")},
		// CONTAINS over an Int column fails at the first selected row.
		Contains{E: TC("t", "a"), Substr: "1"},
	)
	return cases
}

// TestEvalBatchAgreesWithEval: for every predicate shape, the batch
// evaluator over full and partial selection vectors must select exactly
// the rows the reference interpreter accepts, and fail with the
// reference's first error when a selected row errors.
func TestEvalBatchAgreesWithEval(t *testing.T) {
	rng := stats.NewRNG(777)
	schema := testRelSchema()
	for ci, e := range batchPredCases() {
		b, err := Bind(e, schema)
		if err != nil {
			t.Fatalf("case %d Bind(%s): %v", ci, e, err)
		}
		for trial := 0; trial < 10; trial++ {
			n := 1 + intn(rng, 60)
			cols, rows := batchColumns(rng, n)
			// Random subset selection vector (ascending), sometimes full.
			var sel []int
			for r := 0; r < n; r++ {
				if trial%3 == 0 || intn(rng, 3) > 0 {
					sel = append(sel, r)
				}
			}
			var want []int
			var wantErr error
			for _, r := range sel {
				ok, err := refPred(e, schema, rows[r])
				if err != nil {
					wantErr = err
					break
				}
				if ok {
					want = append(want, r)
				}
			}
			got, err := b.EvalBatch(cols, sel)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("case %d (%s): EvalBatch error %v, reference error %v", ci, e, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("case %d (%s): EvalBatch: %v", ci, e, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("case %d (%s): batch selected %v, reference selected %v", ci, e, got, want)
			}
		}
	}
}

// TestEvalBatchScalarAgreesWithEval compares the vectorized scalar path
// (column loads and arithmetic) against the reference interpreter.
func TestEvalBatchScalarAgreesWithEval(t *testing.T) {
	rng := stats.NewRNG(778)
	schema := testRelSchema()
	// u.a + 1 is never zero, and u.a + 0.5 never zero as a float.
	nonZero := Arith{Op: Add, L: TC("u", "a"), R: IntLit(1)}
	cases := []Expr{
		TC("t", "a"),
		C("b"),
		C("s"),
		IntLit(42),
		Arith{Op: Add, L: TC("t", "a"), R: TC("u", "a")},
		Arith{Op: Mul, L: C("b"), R: FloatLit(1.5)},
		Arith{Op: Sub, L: Arith{Op: Add, L: C("d"), R: IntLit(3)}, R: TC("t", "a")},
		// Division, integral (truncating, negative dividends included)
		// and float.
		Arith{Op: Div, L: TC("t", "a"), R: nonZero},
		Arith{Op: Div, L: C("b"), R: Arith{Op: Add, L: TC("u", "a"), R: FloatLit(0.5)}},
		// A Date shifted by an Int stays a Date, on either side.
		Arith{Op: Sub, L: C("d"), R: TC("u", "a")},
		Arith{Op: Add, L: TC("u", "a"), R: C("d")},
		// An Int times a Float is a Float.
		Arith{Op: Mul, L: TC("t", "a"), R: C("b")},
		Arith{Op: Div, L: C("d"), R: FloatLit(4)},
		// A literal on the left.
		Arith{Op: Sub, L: IntLit(100), R: TC("t", "a")},
		Arith{Op: Mul, L: FloatLit(2.5), R: C("d")},
		// Nested on both sides.
		Arith{Op: Mul, L: Arith{Op: Add, L: TC("t", "a"), R: TC("u", "a")}, R: Arith{Op: Div, L: C("d"), R: nonZero}},
	}
	const n = 40
	for ci, e := range cases {
		b, err := BindScalar(e, schema)
		if err != nil {
			t.Fatalf("case %d BindScalar(%s): %v", ci, e, err)
		}
		// Every row, then random gaps, then a few rows far apart, each
		// over fresh columns through the same bound scalar.
		for _, step := range []int{1, 2, 9} {
			cols, rows := batchColumns(rng, n)
			var sel []int
			for r := intn(rng, step); r < n; r += 1 + intn(rng, step) {
				sel = append(sel, r)
			}
			got, err := b.EvalBatch(cols, sel)
			if err != nil {
				t.Fatalf("case %d (%s): EvalBatch: %v", ci, e, err)
			}
			for _, r := range sel {
				want, err := refScalar(e, schema, rows[r])
				if err != nil {
					t.Fatalf("case %d (%s): reference row %d: %v", ci, e, r, err)
				}
				if v := got.At(r); v != want {
					t.Fatalf("case %d (%s): row %d batch=%v reference=%v", ci, e, r, v, want)
				}
			}
		}
	}
}

// TestEvalBatchErrorParity: data-dependent errors surface only for rows a
// term actually sees — a row already rejected by an earlier AND term (or
// accepted by an earlier OR term) must not have later terms evaluated
// against it — and the kernels report exactly the generic path's errors.
func TestEvalBatchErrorParity(t *testing.T) {
	schema := testRelSchema()
	// a / u.a errors when u.a == 0; the guard term filters those rows out.
	guarded := Conj(
		Cmp{Op: GT, L: TC("u", "a"), R: IntLit(0)},
		Cmp{Op: GT, L: Arith{Op: Div, L: TC("t", "a"), R: TC("u", "a")}, R: IntLit(1)},
	)
	b, err := Bind(guarded, schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.Int(10), value.Float(0), value.Str(""), value.Date(0), value.Int(0)}, // guard filters row
		{value.Int(10), value.Float(0), value.Str(""), value.Date(0), value.Int(2)}, // 10/2 > 1
	}
	cols := make([][]value.Value, 5)
	for _, r := range rows {
		for c, v := range r {
			cols[c] = append(cols[c], v)
		}
	}
	got, err := b.EvalBatch(vecs(cols), []int{0, 1})
	if err != nil {
		t.Fatalf("guarded batch eval must not divide by zero on filtered rows: %v", err)
	}
	if fmt.Sprint(got) != "[1]" {
		t.Fatalf("got %v, want [1]", got)
	}
	// Unguarded, the division error must surface.
	unguarded := Cmp{Op: GT, L: Arith{Op: Div, L: TC("t", "a"), R: TC("u", "a")}, R: IntLit(1)}
	ub, err := Bind(unguarded, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ub.EvalBatch(vecs(cols), []int{0, 1}); err == nil {
		t.Fatal("unguarded division by zero must error in the batch path too")
	}

	// The Col-vs-Lit kernels report exactly the generic path's errors:
	// type mismatches, a hi bound that fails only on rows clearing lo,
	// and batches too narrow or too short for the column. Wrapping an
	// operand in "+ 0" forces the generic path without changing values.
	generic := func(e Expr) Expr { return Arith{Op: Add, L: e, R: IntLit(0)} }
	pairs := [][2]Expr{
		{Cmp{Op: EQ, L: C("s"), R: IntLit(1)}, Cmp{Op: EQ, L: C("s"), R: generic(IntLit(1))}},
		{Cmp{Op: LT, L: TC("u", "a"), R: IntLit(1)}, Cmp{Op: LT, L: TC("u", "a"), R: generic(IntLit(1))}},
		{Between{E: TC("t", "a"), Lo: IntLit(5), Hi: StrLit("x")}, Between{E: generic(TC("t", "a")), Lo: IntLit(5), Hi: StrLit("x")}},
		{Between{E: TC("u", "a"), Lo: IntLit(0), Hi: IntLit(9)}, Between{E: generic(TC("u", "a")), Lo: IntLit(0), Hi: IntLit(9)}},
	}
	inputs := []struct {
		cols [][]value.Value
		sel  []int
	}{
		{cols, []int{0, 1}},
		{cols[:3], []int{0, 1}}, // too narrow for u.a
		{[][]value.Value{cols[0][:1], cols[1], cols[2], cols[3], cols[4][:1]}, []int{0, 1}}, // too short
		{cols, nil},
	}
	for _, p := range pairs {
		kb, err := Bind(p[0], schema)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := Bind(p[1], schema)
		if err != nil {
			t.Fatal(err)
		}
		for ii, in := range inputs {
			kgot, kerr := kb.EvalBatch(vecs(in.cols), in.sel)
			ggot, gerr := gb.EvalBatch(vecs(in.cols), in.sel)
			if fmt.Sprint(kerr) != fmt.Sprint(gerr) || fmt.Sprint(kgot) != fmt.Sprint(ggot) {
				t.Errorf("%s input %d: kernel (%v, %v), generic (%v, %v)", p[0], ii, kgot, kerr, ggot, gerr)
			}
		}
	}

	// Arithmetic fails only at a row inside the selection: a zero
	// divisor on an unselected row divides nothing, a String operand
	// fails at the first selected row, worded with that row's values,
	// and an empty selection fails nothing.
	zeros := vecs([][]value.Value{
		{value.Int(10), value.Int(10), value.Int(10), value.Int(10)},
		{value.Float(1.5), value.Float(0), value.Float(2), value.Float(0)},
		{value.Str("w"), value.Str("x"), value.Str("y"), value.Str("z")},
		{value.Date(1), value.Date(2), value.Date(3), value.Date(4)},
		{value.Int(2), value.Int(0), value.Int(5), value.Int(0)},
	})
	intDiv := Cmp{Op: GT, L: Arith{Op: Div, L: TC("t", "a"), R: TC("u", "a")}, R: IntLit(1)}
	floatDiv := Cmp{Op: GT, L: Arith{Op: Div, L: TC("t", "a"), R: C("b")}, R: IntLit(1)}
	strArith := Cmp{Op: GT, L: Arith{Op: Add, L: C("s"), R: IntLit(1)}, R: IntLit(0)}
	for _, tc := range []struct {
		e       Expr
		sel     []int
		want    string
		wantErr string
	}{
		{intDiv, []int{0, 2}, "[0 2]", ""},
		{intDiv, []int{0, 2, 3}, "", "expr: integer division by zero"},
		{intDiv, nil, "[]", ""},
		{floatDiv, []int{0, 2}, "[0 2]", ""},
		{floatDiv, []int{2, 3}, "", "expr: division by zero"},
		{floatDiv, nil, "[]", ""},
		{strArith, []int{2, 3}, "", `expr: arithmetic over non-numeric values "y" + 1`},
		{strArith, nil, "[]", ""},
		{Contains{E: TC("u", "a"), Substr: "1"}, []int{1, 3}, "", "expr: CONTAINS over non-string value 0"},
	} {
		b, err := Bind(tc.e, schema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.EvalBatch(zeros, tc.sel)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s over %v: error %v, want %q", tc.e, tc.sel, err, tc.wantErr)
			}
		} else if err != nil || fmt.Sprint(got) != tc.want {
			t.Errorf("%s over %v: (%v, %v), want %s", tc.e, tc.sel, got, err, tc.want)
		}
	}
}
