package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/value"
)

func TestBinValueBins(t *testing.T) {
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Int(0), "b0"},
		{value.Int(1), "b1"},
		{value.Int(25), "b5"},
		{value.Int(30), "b5"},    // same bin as 25: [16, 32)
		{value.Int(3000), "b12"}, // far bin
		{value.Int(-7), "-b3"},
		{value.Date(9800), "b14"},
		{value.Float(0), "f0"},
		{value.Float(0.75), "f-1"},
		{value.Float(-2.5), "-f1"},
		{value.Str("abc"), "s2"},
		{value.Str(""), "s0"},
	}
	for _, c := range cases {
		if got := binValue(c.v); got != c.want {
			t.Errorf("binValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestFingerprintExprShapes(t *testing.T) {
	lt25 := expr.Cmp{Op: expr.LT, L: expr.C("l_quantity"), R: expr.IntLit(25)}
	lt30 := expr.Cmp{Op: expr.LT, L: expr.C("l_quantity"), R: expr.IntLit(30)}
	lt3000 := expr.Cmp{Op: expr.LT, L: expr.C("l_quantity"), R: expr.IntLit(3000)}
	if fingerprintExpr(lt25) != fingerprintExpr(lt30) {
		t.Errorf("same-bin literals split: %q vs %q", fingerprintExpr(lt25), fingerprintExpr(lt30))
	}
	if fingerprintExpr(lt25) == fingerprintExpr(lt3000) {
		t.Errorf("far-bin literals collide: %q", fingerprintExpr(lt25))
	}
	if got := fingerprintExpr(lt25); got != "l_quantity<b5" {
		t.Errorf("cmp shape = %q", got)
	}
	bt := expr.Between{E: expr.C("l_shipdate"), Lo: expr.DateLit(600), Hi: expr.DateLit(900)}
	if got := fingerprintExpr(bt); got != "l_shipdate between b10..b10" {
		t.Errorf("between shape = %q", got)
	}
	// Commutative connectives normalize term order.
	ab := expr.Or{Terms: []expr.Expr{lt25, bt}}
	ba := expr.Or{Terms: []expr.Expr{bt, lt25}}
	if fingerprintExpr(ab) != fingerprintExpr(ba) {
		t.Errorf("OR term order split: %q vs %q", fingerprintExpr(ab), fingerprintExpr(ba))
	}
	in := expr.In{E: expr.C("p_size"), Vals: []value.Value{value.Int(1), value.Int(9), value.Int(3)}}
	if got := fingerprintExpr(in); got != "p_size in#b2" {
		t.Errorf("in shape = %q", got)
	}
	ct := expr.Contains{E: expr.C("p_attr1"), Substr: "green"}
	if got := fingerprintExpr(ct); got != "p_attr1~s3" {
		t.Errorf("contains shape = %q", got)
	}
	not := expr.Not{E: lt25}
	if got := fingerprintExpr(not); got != "!l_quantity<b5" {
		t.Errorf("not shape = %q", got)
	}
}

func TestFingerprintForMask(t *testing.T) {
	// Build an analysis by hand: two tables, one single-table conjunct on
	// each, one cross conjunct.
	a := &analysis{tables: []string{"orders", "lineitem"}}
	for _, c := range []conjunct{
		{pred: expr.Cmp{Op: expr.LT, L: expr.C("o_totalprice"), R: expr.IntLit(400)}, tables: 1},
		{pred: expr.Cmp{Op: expr.GE, L: expr.C("l_quantity"), R: expr.IntLit(20)}, tables: 2},
		{pred: expr.Cmp{Op: expr.LT, L: expr.C("l_extendedprice"), R: expr.C("o_totalprice")}, tables: 3},
	} {
		c.shape = fingerprintExpr(c.pred)
		a.conjuncts = append(a.conjuncts, c)
	}
	if got := a.fingerprint(1); got != "orders|o_totalprice<b9" {
		t.Errorf("mask 1 = %q", got)
	}
	if got := a.fingerprint(2); got != "lineitem|l_quantity>=b5" {
		t.Errorf("mask 2 = %q", got)
	}
	full := a.fingerprint(3)
	// Tables sorted, all three conjuncts present, sorted.
	if !strings.HasPrefix(full, "lineitem,orders|") {
		t.Errorf("mask 3 tables not sorted: %q", full)
	}
	if got := len(strings.Split(strings.SplitN(full, "|", 2)[1], ";")); got != 3 {
		t.Errorf("mask 3 has %d conjuncts, want 3: %q", got, full)
	}
	// A mask with no conjuncts is the bare table list.
	b := &analysis{tables: []string{"part"}}
	if got := b.fingerprint(1); got != "part" {
		t.Errorf("predicate-free fingerprint = %q", got)
	}
}
