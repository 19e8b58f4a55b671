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

// TestJoinTableIntChains: the open-addressed int64 table finds each key's
// build rows in build order, and nothing for an absent key — over
// negatives, zero, the int64 extremes, and Int and Date values sharing
// payloads.
func TestJoinTableIntChains(t *testing.T) {
	rng := stats.NewRNG(2005)
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	var rows []value.Row
	want := map[int64][]int32{}
	var keys []int64
	for i := 0; i < 6*MorselSize; i++ {
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
	tbl := buildJoinTable(rows, 0)
	for _, k := range append(keys, absent...) {
		var got []int32
		for idx := tbl.first(k); idx >= 0; idx = tbl.next[idx] {
			got = append(got, idx)
		}
		if !slices.Equal(got, want[k]) {
			t.Fatalf("key %d chains rows %v, want %v", k, got, want[k])
		}
	}
}

// foldRows builds the input of TestGlobalAggregateFold: columns a, b
// and c of mixed numeric kinds — Int, Date and Float values, NaN, ±Inf
// and -0 among the floats — over n rows, with bad[col] = row planting a
// non-numeric value there.
func foldRows(n int, bad map[int]int) *benchRowsNode {
	rng := stats.NewRNG(43)
	node := &benchRowsNode{schema: expr.RelSchema{Fields: []expr.Field{
		{Table: "f", Column: "a", Type: catalog.Float},
		{Table: "f", Column: "b", Type: catalog.Float},
		{Table: "f", Column: "c", Type: catalog.Float},
	}}}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e-300}
	for r := 0; r < n; r++ {
		row := make(value.Row, 3)
		for c := range row {
			switch x := rng.Uint64(); x % 8 {
			case 0:
				row[c] = value.Int(int64(x>>8)%2001 - 1000)
			case 1:
				row[c] = value.Date(int64(x>>8) % 9000)
			case 2:
				row[c] = value.Float(odd[(x>>8)%uint64(len(odd))])
			default:
				row[c] = value.Float(rng.Float64()*1e6 - 3e5)
			}
			if r%300 == 7 && c == 1 {
				row[c] = value.Float(math.Copysign(0, -1))
			}
		}
		node.rows = append(node.rows, row)
	}
	for c, r := range bad {
		node.rows[r][c] = value.Str(fmt.Sprintf("bad-%c", 'a'+c))
	}
	return node
}

// TestGlobalAggregateFold: a global aggregate folds its batches
// aggregate by aggregate, and its output is bit for bit the reference
// engine's row-major fold — the same sums in the same order, and the
// same MIN/MAX over NaN, ±Inf and -0 — and over bad input it fails with
// the row-major loop's first error: the earliest bad row, and the
// earliest aggregate on it, whichever aggregate reaches its bad row first.
func TestGlobalAggregateFold(t *testing.T) {
	a, b, c := expr.C("a"), expr.C("b"), expr.C("c")
	plan := func(rows Node) *Aggregate {
		return &Aggregate{Input: rows, Aggs: []AggSpec{
			{Func: Count, As: "n"}, {Func: Sum, Arg: a, As: "sa"}, {Func: Min, Arg: b, As: "lb"},
			{Func: Max, Arg: b, As: "hb"}, {Func: Avg, Arg: c, As: "vc"}, {Func: Count, Arg: c, As: "nc"},
			{Func: Min, Arg: a, As: "la"},
		}}
	}
	for _, n := range []int{0, 1, BatchSize - 1, 3*BatchSize + 17} {
		p := plan(foldRows(n, nil))
		// A computed argument, evaluated a vector at a time.
		p.Aggs = append(p.Aggs, AggSpec{Func: Sum, Arg: expr.Arith{Op: expr.Mul, L: a, R: c}, As: "sac"})
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
	// Column a feeds aggregates 1 and 6, b aggregates 2 and 3, c
	// aggregates 4 and 5.
	for _, bad := range []map[int]int{
		{0: 2500},
		{0: 2500, 2: 1300},          // c's row comes first, in an earlier batch
		{0: 1300, 2: 1300},          // one row: a's aggregate 1 comes first
		{1: 1301, 2: 1300},          // c's row comes first within a batch
		{0: 1301, 1: 1301, 2: 1302}, // a and b tie on a row: a's aggregate 1 fails first
		{2: 0},
	} {
		p := plan(foldRows(3*BatchSize+17, bad))
		_, _, _, err := Run(&Context{}, p)
		_, refErr := ExecuteMaterialized(&Context{}, p, &cost.Counters{})
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("bad %v: error %v, reference %v", bad, err, refErr)
		}
	}
}
