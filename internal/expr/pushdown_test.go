package expr

import (
	"math"
	"testing"

	"robustqo/internal/catalog"
)

func pushSchema() RelSchema {
	return RelSchema{Fields: []Field{
		{Table: "t", Column: "a", Type: catalog.Int},
		{Table: "t", Column: "d", Type: catalog.Date},
		{Table: "t", Column: "s", Type: catalog.String},
		{Table: "t", Column: "f", Type: catalog.Float},
	}}
}

func TestSplitPushdownIntShapes(t *testing.T) {
	rs := pushSchema()
	cases := []struct {
		e      Expr
		lo, hi int64
	}{
		{Cmp{EQ, C("a"), IntLit(7)}, 7, 7},
		{Cmp{LT, C("a"), IntLit(7)}, math.MinInt64, 6},
		{Cmp{LE, C("a"), IntLit(7)}, math.MinInt64, 7},
		{Cmp{GT, C("a"), IntLit(7)}, 8, math.MaxInt64},
		{Cmp{GE, C("a"), IntLit(7)}, 7, math.MaxInt64},
		{Cmp{GT, IntLit(7), C("a")}, math.MinInt64, 6}, // 7 > a  ⇒  a < 7
		{Between{C("d"), DateLit(100), DateLit(200)}, 100, 200},
		{Cmp{EQ, C("d"), DateLit(150)}, 150, 150},
	}
	for _, tc := range cases {
		bounds, residual := SplitPushdown(tc.e, rs)
		if len(bounds) != 1 || residual != nil {
			t.Fatalf("%s: bounds=%v residual=%v, want one bound, nil residual", tc.e, bounds, residual)
		}
		if bounds[0].IsStr || bounds[0].Lo != tc.lo || bounds[0].Hi != tc.hi {
			t.Errorf("%s: bound %+v, want [%d,%d]", tc.e, bounds[0], tc.lo, tc.hi)
		}
	}
}

func TestSplitPushdownSaturation(t *testing.T) {
	rs := pushSchema()
	for _, e := range []Expr{
		Cmp{LT, C("a"), IntLit(math.MinInt64)},
		Cmp{GT, C("a"), IntLit(math.MaxInt64)},
	} {
		bounds, residual := SplitPushdown(e, rs)
		if len(bounds) != 1 || residual != nil {
			t.Fatalf("%s: want one bound", e)
		}
		if bounds[0].Lo <= bounds[0].Hi {
			t.Errorf("%s: bound %+v should be the empty interval", e, bounds[0])
		}
	}
}

func TestSplitPushdownStringShapes(t *testing.T) {
	rs := pushSchema()
	b, res := SplitPushdown(Cmp{EQ, C("s"), StrLit("x")}, rs)
	if res != nil || len(b) != 1 || !b[0].IsStr || !b[0].HasStrLo || !b[0].HasStrHi || b[0].StrLo != "x" || b[0].StrHi != "x" {
		t.Fatalf("string EQ: bounds=%+v residual=%v", b, res)
	}
	b, res = SplitPushdown(Between{C("s"), StrLit("a"), StrLit("m")}, rs)
	if res != nil || len(b) != 1 || b[0].StrLo != "a" || b[0].StrHi != "m" {
		t.Fatalf("string BETWEEN: bounds=%+v residual=%v", b, res)
	}
	b, res = SplitPushdown(Cmp{GE, C("s"), StrLit("k")}, rs)
	if res != nil || len(b) != 1 || !b[0].HasStrLo || b[0].HasStrHi {
		t.Fatalf("string GE: bounds=%+v residual=%v", b, res)
	}
	// Strict string inequality stays residual.
	e := Expr(Cmp{LT, C("s"), StrLit("k")})
	if b, res := SplitPushdown(e, rs); b != nil || res == nil {
		t.Fatalf("string LT should not push: bounds=%+v residual=%v", b, res)
	}
}

// TestSplitPushdownExclusionShapes: <> pushes as the exclusion of one
// point over Int, Date and String columns, in either orientation.
func TestSplitPushdownExclusionShapes(t *testing.T) {
	rs := pushSchema()
	for _, e := range []Expr{Cmp{NE, C("a"), IntLit(3)}, Cmp{NE, IntLit(3), C("a")}} {
		b, res := SplitPushdown(e, rs)
		if res != nil || len(b) != 1 || !b[0].Not || b[0].IsStr || b[0].IsFloat || b[0].Lo != 3 || b[0].Hi != 3 {
			t.Errorf("%s: bounds=%+v residual=%v, want the exclusion of [3,3]", e, b, res)
		}
	}
	b, res := SplitPushdown(Cmp{NE, C("d"), DateLit(150)}, rs)
	if res != nil || len(b) != 1 || !b[0].Not || b[0].Lo != 150 || b[0].Hi != 150 {
		t.Errorf("date <>: bounds=%+v residual=%v", b, res)
	}
	b, res = SplitPushdown(Cmp{NE, C("s"), StrLit("x")}, rs)
	if res != nil || len(b) != 1 || !b[0].Not || !b[0].IsStr || !b[0].HasStrLo || !b[0].HasStrHi || b[0].StrLo != "x" || b[0].StrHi != "x" {
		t.Errorf("string <>: bounds=%+v residual=%v", b, res)
	}
}

// TestSplitPushdownFloatShapes: a Float column pushes against any
// numeric literal but NaN, converted as value.Compare converts it; strict
// sides move one float inward and saturate to the empty interval past an
// infinity; NaN passes the operators Compare's 0 satisfies.
func TestSplitPushdownFloatShapes(t *testing.T) {
	rs := pushSchema()
	inf := math.Inf(1)
	cases := []struct {
		e        Expr
		lo, hi   float64
		not, nan bool
	}{
		{Cmp{EQ, C("f"), FloatLit(1.5)}, 1.5, 1.5, false, true},
		{Cmp{NE, C("f"), FloatLit(1.5)}, 1.5, 1.5, true, false},
		{Cmp{LT, C("f"), FloatLit(1.5)}, -inf, math.Nextafter(1.5, -inf), false, false},
		{Cmp{LE, C("f"), FloatLit(1.5)}, -inf, 1.5, false, true},
		{Cmp{GT, C("f"), FloatLit(1.5)}, math.Nextafter(1.5, inf), inf, false, false},
		{Cmp{GE, C("f"), FloatLit(1.5)}, 1.5, inf, false, true},
		{Cmp{GT, FloatLit(1.5), C("f")}, -inf, math.Nextafter(1.5, -inf), false, false}, // 1.5 > f  ⇒  f < 1.5
		{Cmp{LT, C("f"), IntLit(7)}, -inf, math.Nextafter(7, -inf), false, false},
		{Cmp{EQ, C("f"), IntLit(math.MaxInt64)}, float64(math.MaxInt64), float64(math.MaxInt64), false, true},
		{Cmp{GE, C("f"), DateLit(10)}, 10, inf, false, true},
		{Cmp{LT, C("f"), FloatLit(0)}, -inf, -math.SmallestNonzeroFloat64, false, false},
		{Cmp{LT, C("f"), FloatLit(inf)}, -inf, math.MaxFloat64, false, false},
		{Cmp{GT, C("f"), FloatLit(-inf)}, -math.MaxFloat64, inf, false, false},
		{Cmp{LT, C("f"), FloatLit(-inf)}, 1, 0, false, false},
		{Cmp{GT, C("f"), FloatLit(inf)}, 1, 0, false, false},
		{Between{C("f"), IntLit(1), IntLit(5)}, 1, 5, false, true},
		{Between{C("f"), FloatLit(0.5), IntLit(5)}, 0.5, 5, false, true},
		{Between{C("f"), IntLit(5), IntLit(1)}, 5, 1, false, true},
	}
	for _, tc := range cases {
		b, res := SplitPushdown(tc.e, rs)
		if res != nil || len(b) != 1 {
			t.Fatalf("%s: bounds=%+v residual=%v, want one bound", tc.e, b, res)
		}
		got := b[0]
		if !got.IsFloat || got.IsStr || got.Col != 3 || got.FLo != tc.lo || got.FHi != tc.hi || got.Not != tc.not || got.NaN != tc.nan {
			t.Errorf("%s: bound %+v, want [%g,%g] not=%v nan=%v", tc.e, got, tc.lo, tc.hi, tc.not, tc.nan)
		}
	}
}

func TestSplitPushdownRejections(t *testing.T) {
	rs := pushSchema()
	nan := FloatLit(math.NaN())
	for _, e := range []Expr{
		Cmp{LT, C("a"), FloatLit(2.5)},          // float literal on int column
		Cmp{NE, C("d"), FloatLit(2)},            // float literal on date column
		Between{C("a"), IntLit(1), FloatLit(5)}, // float literal on int column
		Cmp{EQ, C("f"), nan},                    // NaN literal
		Cmp{LT, nan, C("f")},                    // NaN literal, flipped
		Between{C("f"), IntLit(1), nan},         // NaN literal
		Cmp{EQ, C("f"), StrLit("1")},            // kind mismatch
		Cmp{LT, C("s"), StrLit("k")},            // strict string inequality
		Cmp{EQ, C("s"), IntLit(1)},              // kind mismatch
		Cmp{EQ, C("zz"), IntLit(1)},             // unknown column
		Or{Terms: []Expr{Cmp{EQ, C("a"), IntLit(1)}, Cmp{EQ, C("a"), IntLit(2)}}},
		Contains{E: C("s"), Substr: "x"},
		Cmp{EQ, Arith{Add, C("a"), IntLit(1)}, IntLit(5)}, // computed column
	} {
		bounds, residual := SplitPushdown(e, rs)
		if bounds != nil || residual == nil {
			t.Errorf("%s: pushed %+v, want full residual", e, bounds)
		}
	}
}

// TestSplitPushdownPrefixOnly pins the prefix rule: extraction stops at
// the first non-pushable conjunct even if later conjuncts are pushable,
// preserving the row path's left-to-right short-circuit order.
func TestSplitPushdownPrefixOnly(t *testing.T) {
	rs := pushSchema()
	p1 := Expr(Cmp{GE, C("a"), IntLit(10)})
	p2 := Expr(Contains{E: C("s"), Substr: "x"})
	p3 := Expr(Cmp{LE, C("d"), DateLit(99)})
	bounds, residual := SplitPushdown(Conj(p1, p2, p3), rs)
	if len(bounds) != 1 || bounds[0].Col != 0 {
		t.Fatalf("bounds = %+v, want just the a>=10 prefix", bounds)
	}
	res := SplitConjuncts(residual)
	if len(res) != 2 || res[0].String() != p2.String() || res[1].String() != p3.String() {
		t.Fatalf("residual = %v, want [%v %v] in order", res, p2, p3)
	}

	bounds, residual = SplitPushdown(Conj(p1, p3, p2), rs)
	if len(bounds) != 2 || residual.String() != p2.String() {
		t.Fatalf("bounds=%+v residual=%v, want two bounds and Contains residual", bounds, residual)
	}
	if bounds[1].Col != 1 || bounds[1].Hi != 99 {
		t.Errorf("second bound = %+v, want d<=99", bounds[1])
	}
}

func TestSplitPushdownNil(t *testing.T) {
	bounds, residual := SplitPushdown(nil, pushSchema())
	if bounds != nil || residual != nil {
		t.Fatalf("nil predicate: bounds=%v residual=%v", bounds, residual)
	}
}
