package plancache

import (
	"testing"

	"robustqo/internal/optimizer"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

func TestNormalizeSameShapeSharesKey(t *testing.T) {
	q1 := &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 100 AND 300 AND l_qty < 10"),
	}
	q2 := &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 700 AND 900 AND l_qty < 42"),
	}
	t1, t2 := Normalize(q1), Normalize(q2)
	if t1.Key != t2.Key {
		t.Errorf("same shape produced different keys:\n%s\n%s", t1.Key, t2.Key)
	}
	if len(t1.Params) != 3 || len(t2.Params) != 3 {
		t.Fatalf("want 3 slots, got %d and %d", len(t1.Params), len(t2.Params))
	}
	if t1.Params[0].I != 100 || t1.Params[1].I != 300 || t1.Params[2].I != 10 {
		t.Errorf("slot values wrong: %v", t1.Params)
	}
}

func TestNormalizeDistinguishesShapes(t *testing.T) {
	base := &optimizer.Query{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10")}
	variants := []*optimizer.Query{
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty <= 10")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10.0")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_price < 10")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10"), Limit: 5},
		{Tables: []string{"orders"}, Pred: testkit.Expr("l_qty < 10")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10 AND l_qty > 2")},
	}
	key := Normalize(base).Key
	for i, v := range variants {
		if Normalize(v).Key == key {
			t.Errorf("variant %d collided with base key", i)
		}
	}
}

func TestBindSubstitutesPositionally(t *testing.T) {
	q := &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 100 AND 300 AND l_qty < 10"),
	}
	tpl := Normalize(q)
	bound, err := tpl.Bind([]value.Value{value.Date(200), value.Date(400), value.Int(25)})
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.Expr("l_ship BETWEEN 200 AND 400 AND l_qty < 25").String()
	if got := bound.Pred.String(); got != want {
		t.Errorf("bound pred = %s, want %s", got, want)
	}
	// The template's own query must be untouched.
	if q.Pred.String() != testkit.Expr("l_ship BETWEEN 100 AND 300 AND l_qty < 10").String() {
		t.Errorf("Bind mutated the template query: %s", q.Pred)
	}
	// Re-normalizing the bound query yields the same key.
	if Normalize(bound).Key != tpl.Key {
		t.Error("bound query normalizes to a different template")
	}
}

func TestBindRejectsBadParams(t *testing.T) {
	tpl := Normalize(&optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_qty < 10"),
	})
	if _, err := tpl.Bind(nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tpl.Bind([]value.Value{value.Str("x")}); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestLiteralsMatchesSlotOrder(t *testing.T) {
	q := &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 100 AND 300 AND l_qty < 10"),
	}
	tpl := Normalize(q)
	lits := Literals(q.Pred)
	if len(lits) != len(tpl.Params) {
		t.Fatalf("Literals found %d values, template has %d slots", len(lits), len(tpl.Params))
	}
	for i := range lits {
		if lits[i] != tpl.Params[i] {
			t.Errorf("slot %d: Literals %v != Params %v", i, lits[i], tpl.Params[i])
		}
	}
}
