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

// TestJoinTableIntChains: the join table finds each key's build
// positions in build order, and nothing for an absent key, in both of its
// modes. The hashed key set mixes negatives, zero and the int64
// extremes; the dense ones hold duplicates, a negative lo, and lo near
// each int64 extreme, and are probed at lo−1, hi+1 and both extremes. The
// mode rule is pinned on both sides: a span of 4× the slot count is
// direct-addressed, one more is hashed.
func TestJoinTableIntChains(t *testing.T) {
	rng := stats.NewRNG(2005)
	gen := func(n int, key func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = key(i)
		}
		return out
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	// 100 keys take 256 slots: dense up to a span of 1,024.
	spread := func(span int64) []int64 {
		return gen(100, func(i int) int64 { return -7 + int64(i)*(span-1)/99 })
	}
	for _, tc := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"hashed-extremes", gen(24576, func(i int) int64 {
			if i%97 == 0 {
				return extremes[i/97%len(extremes)]
			}
			return int64(testkit.Intn(rng, 5000)) - 2500
		}), false},
		{"dense-duplicates", gen(3000, func(int) int64 { return int64(testkit.Intn(rng, 700)) }), true},
		{"dense-negative-lo", gen(3000, func(int) int64 { return int64(testkit.Intn(rng, 5000)) - 9000 }), true},
		{"dense-near-max", gen(2000, func(int) int64 { return math.MaxInt64 - int64(testkit.Intn(rng, 900)) }), true},
		{"dense-near-min", gen(2000, func(int) int64 { return math.MinInt64 + int64(testkit.Intn(rng, 900)) }), true},
		{"span-4x-slots", spread(1024), true},
		{"span-4x-slots+1", spread(1025), false},
	} {
		keys := tc.keys
		want := map[int64][]int32{}
		var probes []int64
		for i, k := range keys {
			if want[k] == nil {
				probes = append(probes, k)
			}
			want[k] = append(want[k], int32(i))
		}
		lo, hi := slices.Min(keys), slices.Max(keys)
		probes = append(probes, lo-1, hi+1, math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1)
		tbl := buildJoinTable(keys)
		if tbl.dense() != tc.dense {
			t.Errorf("%s: span %d over %d keys: dense = %v, want %v", tc.name, uint64(hi)-uint64(lo)+1, len(keys), tbl.dense(), tc.dense)
		}
		for _, k := range probes {
			if got := tableChain(tbl, k); !slices.Equal(got, want[k]) {
				t.Fatalf("%s: key %d chains rows %v, want %v", tc.name, k, got, want[k])
			}
		}
	}
}

// tableChain walks key's chain in tbl, reading either mode as
// hashJoinOp.probeInto does.
func tableChain(tbl *joinTable, key int64) []int32 {
	idx := int32(-1)
	if tbl.dense() {
		if d := uint64(key) - uint64(tbl.lo); d < uint64(len(tbl.heads)) {
			idx = tbl.heads[d]
		}
	} else {
		idx = tbl.first(key)
	}
	var out []int32
	for ; idx >= 0; idx = tbl.next[idx] {
		out = append(out, idx)
	}
	return out
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
