package engine

import (
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

// TestAggregateOddKindGroup: a group column holding a value of another
// kind — a Date in an Int column, sharing an Int group's payload — moves
// the grouping to the generic string keys mid-input, where the two stay
// apart, and the output is the reference engine's.
func TestAggregateOddKindGroup(t *testing.T) {
	var keys []value.Value
	for i := 0; i < 3000; i++ {
		keys = append(keys, value.Int(int64(i%40)-20))
	}
	keys[1500] = value.Date(7)
	rows := groupRows(catalog.Int, keys)
	sameAsReference(t, "odd kind", groupPlan(rows))
	res, _, _, err := Run(&Context{}, groupPlan(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 41 {
		t.Errorf("%d groups, want 41: date(7) must not merge with 7", len(res.Rows))
	}
}

// TestJoinTableIntChains: the open-addressed int64 key class finds each
// key's build rows in build order, and nothing for an absent key, in a
// serial and a partitioned build — over negatives, zero, the int64
// extremes, and Int and Date values sharing payloads.
func TestJoinTableIntChains(t *testing.T) {
	rng := stats.NewRNG(2005)
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	var rows []value.Row
	want := map[int64][]int32{}
	var keys []int64
	for i := 0; i < 3*joinPartitionThreshold; i++ {
		k := int64(testkit.Intn(rng, 5000)) - 2500
		if i%97 == 0 {
			k = extremes[i/97%len(extremes)]
		}
		v := value.Int(k)
		if i%3 == 0 {
			v = value.Date(k)
		}
		rows = append(rows, value.Row{v})
		if want[k] == nil {
			keys = append(keys, k)
		}
		want[k] = append(want[k], int32(i))
	}
	absent := []int64{2500, 2501, -2501, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, dop := range []int{1, 4} {
		tbl := buildJoinTable(rows, 0, 0, dop)
		for _, k := range append(keys, absent...) {
			var got []int32
			for idx := tbl.first(value.Int(k)); idx >= 0; idx = tbl.next[idx] {
				got = append(got, idx)
			}
			if !slices.Equal(got, want[k]) {
				t.Fatalf("dop %d: key %d chains rows %v, want %v", dop, k, got, want[k])
			}
		}
	}
}
