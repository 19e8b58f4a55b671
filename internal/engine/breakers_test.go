package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// allocSlack absorbs the few allocations that are not per row: the
// scan's morsel list grows by doubling, and under -race sync.Pool drops
// pooled batches at random, so a run may allocate a few fresh ones.
const allocSlack = 20

// allocsAt returns the allocations of one Run of plan over the engine
// fixture with orders*3 lineitem rows.
func allocsAt(t *testing.T, orders int, plan Node) float64 {
	t.Helper()
	_, ctx := testDB(t, orders, 3, 10)
	return testing.AllocsPerRun(5, func() {
		if _, _, _, err := Run(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSortTopKAllocs: a top-K sort copies out only the rows that enter
// its heap, so its allocations do not grow with the input: 60k rows cost
// what 6k do, up to allocSlack.
func TestSortTopKAllocs(t *testing.T) {
	plan := &Sort{Input: &SeqScan{Table: "lineitem"}, By: []SortKey{{Col: lprice, Desc: true}}, TopK: 10}
	small, large := allocsAt(t, 2000, plan), allocsAt(t, 20000, plan)
	if large > small+allocSlack {
		t.Errorf("top-10 allocs %.0f at 6k rows, %.0f at 60k rows: they grow with the input", small, large)
	}
	t.Logf("allocs per run: %.0f at 6k rows, %.0f at 60k rows", small, large)
}

// TestGlobalAggregateAllocs: a global COUNT and SUM keep one state and
// allocate nothing per input row.
func TestGlobalAggregateAllocs(t *testing.T) {
	plan := &Aggregate{Input: &SeqScan{Table: "lineitem"},
		Aggs: []AggSpec{{Func: Count, As: "n"}, {Func: Sum, Arg: expr.C("l_price"), As: "s"}}}
	small, large := allocsAt(t, 2000, plan), allocsAt(t, 20000, plan)
	if large > small+allocSlack {
		t.Errorf("global aggregate allocs %.0f at 6k rows, %.0f at 60k rows: they grow with the input", small, large)
	}
	t.Logf("allocs per run: %.0f at 6k rows, %.0f at 60k rows", small, large)
}

// groupRows is a Node over canned rows: key, then a float value.
func groupRows(keyType catalog.Type, keys []value.Value) *benchRowsNode {
	n := &benchRowsNode{schema: expr.RelSchema{Fields: []expr.Field{
		{Table: "g", Column: "g_key", Type: keyType},
		{Table: "g", Column: "g_val", Type: catalog.Float},
	}}}
	for i, k := range keys {
		n.rows = append(n.rows, value.Row{k, value.Float(float64(i%17) / 4)})
	}
	return n
}

// groupPlan groups rows by their key under every aggregate function.
func groupPlan(rows Node) *Aggregate {
	v := expr.C("g_val")
	return &Aggregate{Input: rows, GroupBy: []expr.ColumnRef{{Table: "g", Column: "g_key"}}, Aggs: []AggSpec{
		{Func: Count, As: "n"}, {Func: Sum, Arg: v, As: "s"}, {Func: Min, Arg: v, As: "lo"},
		{Func: Max, Arg: v, As: "hi"}, {Func: Avg, Arg: v, As: "avg"}, {Func: Count, Arg: v, As: "nv"}}}
}

// sameAsReference fails unless Run returns the reference engine's rows,
// in its order, and its counters.
func sameAsReference(t *testing.T, label string, plan Node) {
	t.Helper()
	ctx := &Context{}
	got, gc, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var rc cost.Counters
	ref, err := ExecuteMaterialized(ctx, plan, &rc)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	rc.Output += int64(len(ref.Rows))
	sameResult(t, label, got, gc, ref, rc, true)
}

// TestAggregateIntGroupOrder: groups keyed by an Int or Date payload come
// out in the reference engine's order — the order of their String()
// forms, where "-10" precedes "-9" and "100" precedes "99" — with its
// aggregates.
func TestAggregateIntGroupOrder(t *testing.T) {
	var ints, dates []value.Value
	for i := 0; i < 3000; i++ {
		k := int64(i*37%1300) - 300 // -300 .. 999: negatives and 1-3 digits
		ints = append(ints, value.Int(k))
		dates = append(dates, value.Date(k))
	}
	sameAsReference(t, "int key", groupPlan(groupRows(catalog.Int, ints)))
	sameAsReference(t, "date key", groupPlan(groupRows(catalog.Date, dates)))
	// Two keys, the first an Int, take the string keys.
	two := groupPlan(groupRows(catalog.Int, ints))
	two.GroupBy = append(two.GroupBy, expr.ColumnRef{Table: "g", Column: "g_val"})
	sameAsReference(t, "two keys", two)
}

// TestJoinTableIntChains: the open-addressed int64 table finds each key's
// build positions in build order, and nothing for an absent key — over
// negatives, zero and the int64 extremes.
func TestJoinTableIntChains(t *testing.T) {
	rng := stats.NewRNG(2005)
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	var keys []int64
	want := map[int64][]int32{}
	var distinct []int64
	for i := 0; i < 6*MorselSize; i++ {
		k := int64(testkit.Intn(rng, 5000)) - 2500
		if i%97 == 0 {
			k = extremes[i/97%len(extremes)]
		}
		keys = append(keys, k)
		if want[k] == nil {
			distinct = append(distinct, k)
		}
		want[k] = append(want[k], int32(i))
	}
	absent := []int64{2500, 2501, -2501, math.MinInt64 + 1, math.MaxInt64 - 1}
	tbl := buildJoinTable(keys)
	for _, k := range append(distinct, absent...) {
		var got []int32
		for idx := tbl.first(k); idx >= 0; idx = tbl.next[idx] {
			got = append(got, idx)
		}
		if !slices.Equal(got, want[k]) {
			t.Fatalf("key %d chains rows %v, want %v", k, got, want[k])
		}
	}
}

// foldRows builds the input of TestGlobalAggregateFold over n rows:
// Float column a, with NaN, ±Inf and -0 among its values, Float column b,
// with runs of -0, Int column i, Date column d, and String column s.
func foldRows(n int) *benchRowsNode {
	rng := stats.NewRNG(43)
	node := &benchRowsNode{schema: expr.RelSchema{Fields: []expr.Field{
		{Table: "f", Column: "a", Type: catalog.Float},
		{Table: "f", Column: "b", Type: catalog.Float},
		{Table: "f", Column: "i", Type: catalog.Int},
		{Table: "f", Column: "d", Type: catalog.Date},
		{Table: "f", Column: "s", Type: catalog.String},
	}}}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e-300}
	float := func() float64 {
		if x := rng.Uint64(); x%4 == 0 {
			return odd[(x>>8)%uint64(len(odd))]
		}
		return rng.Float64()*1e6 - 3e5
	}
	for r := 0; r < n; r++ {
		b := rng.Float64()*2e3 - 1e3
		if r%300 == 7 {
			b = math.Copysign(0, -1)
		}
		node.rows = append(node.rows, value.Row{
			value.Float(float()), value.Float(b), value.Int(int64(rng.Uint64()>>8)%2001 - 1000),
			value.Date(int64(rng.Uint64()>>8) % 9000), value.Str(fmt.Sprint("s", r%5)),
		})
	}
	return node
}

// TestGlobalAggregateFold: a global aggregate folds every argument from
// one typed vector a batch — a plain Int, Date or Float column from the
// batch column's payload, a computed one from its bound scalar's vector
// — and its output is bit for bit the reference engine's
// value-at-a-time fold: the same exact sums, and the same MIN/MAX over
// NaN, ±Inf and -0. Over a non-numeric argument it fails with the
// row-major loop's first error: the first row, and the earliest such
// aggregate on it.
func TestGlobalAggregateFold(t *testing.T) {
	a, b, i, d, str := expr.C("a"), expr.C("b"), expr.C("i"), expr.C("d"), expr.C("s")
	plan := func(rows Node, extra ...AggSpec) *Aggregate {
		return &Aggregate{Input: rows, Aggs: append([]AggSpec{
			{Func: Count, As: "n"}, {Func: Sum, Arg: a, As: "sa"}, {Func: Min, Arg: b, As: "lb"},
			{Func: Max, Arg: b, As: "hb"}, {Func: Avg, Arg: d, As: "vd"}, {Func: Count, Arg: d, As: "nd"},
			{Func: Min, Arg: a, As: "la"}, {Func: Sum, Arg: i, As: "si"}, {Func: Max, Arg: i, As: "hi"},
		}, extra...)}
	}
	for _, n := range []int{0, 1, BatchSize - 1, 3*BatchSize + 17} {
		// A computed argument, evaluated a vector at a time.
		p := plan(foldRows(n), AggSpec{Func: Sum, Arg: expr.Arith{Op: expr.Mul, L: a, R: i}, As: "sai"})
		got, _, _, err := Run(&Context{}, p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ExecuteMaterialized(&Context{}, p, &cost.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Rows[0] {
			if w := ref.Rows[0][i]; v.Kind != w.Kind || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) {
				t.Errorf("n=%d: %s = %v (%x), reference %v (%x)", n, got.Schema.Fields[i].Column, v, math.Float64bits(v.F), w, math.Float64bits(w.F))
			}
		}
	}
	for _, bad := range [][]AggSpec{
		{{Func: Min, Arg: str}},
		{{Func: Avg, Arg: str}, {Func: Max, Arg: str}},
		{{Func: Count, Arg: str}},
		{{Func: Sum, Arg: expr.StrLit("x")}},
	} {
		for _, n := range []int{0, 3*BatchSize + 17} {
			p := plan(foldRows(n), bad...)
			_, _, _, err := Run(&Context{}, p)
			_, refErr := ExecuteMaterialized(&Context{}, p, &cost.Counters{})
			if (n > 0) != (err != nil) || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("n=%d %v: error %v, reference %v", n, bad, err, refErr)
			}
		}
	}
}
