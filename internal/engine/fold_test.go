package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// specialRows is the row count of specialTable: four shards of 5,000
// rows, two morsels each.
const specialRows = 20000

// specialCols are specialTable's Float columns; each holds what naive
// summation or a careless merge gets wrong.
var specialCols = []string{"a", "b", "c", "d", "e", "nan", "z"}

// specialValue is row i's value of Float column col.
func specialValue(col string, i int) float64 {
	negZero := math.Copysign(0, -1)
	switch col {
	case "a": // cancellation across morsels, subnormals, -0
		switch i {
		case 17:
			return 1e16
		case 9000:
			return -1e16
		case 12001:
			return math.SmallestNonzeroFloat64
		case 19999:
			return -math.Ldexp(1, -1022)
		case 3:
			return negZero
		}
		return float64(i%100) / 100
	case "b": // an intermediate overflow with a finite sum
		switch i {
		case 100, 6000:
			return math.MaxFloat64
		case 11000:
			return -math.MaxFloat64
		case 16000:
			return -math.MaxFloat64 / 2
		}
		return math.Ldexp(float64(i%7), -1060)
	case "c": // a NaN, and ±0 as the least values, +0 first
		switch i {
		case 7000:
			return math.NaN()
		case 10:
			return 0
		case 9050:
			return negZero
		case 2000, 15000:
			return 1e300
		}
		return float64(1 + i%50)
	case "d": // both infinities
		switch i {
		case 50:
			return math.Inf(1)
		case 14000:
			return math.Inf(-1)
		}
		return float64(i)
	case "e": // a sum past the float64 range
		if i%4000 == 1 {
			return math.MaxFloat64 / 3
		}
		return 1
	case "nan": // NaN only
		return math.NaN()
	default: // "z": ±0 only, -0 first
		if i%2 == 0 {
			return negZero
		}
		return 0
	}
}

// specialContexts returns specialTable partitioned into four range
// shards on k, and its unpartitioned twin in the same row order.
func specialContexts(t testing.TB) (parted, flat *Context) {
	build := func(shards bool) *Context {
		db := storage.NewDatabase(catalog.NewCatalog())
		s := &catalog.TableSchema{Name: "special", PrimaryKey: "k", Columns: []catalog.Column{{Name: "k", Type: catalog.Int}}}
		for _, c := range specialCols {
			s.Columns = append(s.Columns, catalog.Column{Name: c, Type: catalog.Float})
		}
		if shards {
			s.Partition = &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{5000, 10000, 15000}}
		}
		tbl, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < specialRows; i++ {
			row := value.Row{value.Int(int64(i))}
			for _, c := range specialCols {
				row = append(row, value.Float(specialValue(c, i)))
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		ctx, err := NewContext(db)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	return build(true), build(false)
}

// specialAggs is COUNT(*) and SUM, AVG, MIN and MAX of every column.
func specialAggs() []AggSpec {
	aggs := []AggSpec{{Func: Count, As: "n"}}
	for _, c := range append([]string{"k"}, specialCols...) {
		for _, fn := range []AggFunc{Sum, Avg, Min, Max} {
			aggs = append(aggs, AggSpec{Func: fn, Arg: expr.C(c), As: fmt.Sprintf("%s_%s", fn, c)})
		}
	}
	return aggs
}

// bigSum is the float64 nearest the real sum of xs, from math/big, with
// IEEE addition's special values.
func bigSum(xs []float64) float64 {
	var nan, pos, neg bool
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := acc.Float64()
	return f
}

// bits renders a result row bit for bit.
func bits(r value.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.Kind == catalog.Float {
			fmt.Fprintf(&b, "%#x|", math.Float64bits(v.F))
		} else {
			fmt.Fprintf(&b, "%d|", v.I)
		}
	}
	return b.String()
}

// TestFusedAggregateSpecialValues holds a fused global aggregate's SUM,
// AVG, MIN and MAX over NaN, ±Inf, ±0, subnormals, values near
// MaxFloat64 and a cancellation to the same bits at DOP 0/1/2/4, over
// the partitioned and the flat layout, bare and instrumented, on the
// batch path (the scan under a Filter that keeps every row), and in the
// reference engine; and every SUM to the math/big oracle. The filters
// keep every row, some, and none.
func TestFusedAggregateSpecialValues(t *testing.T) {
	parted, flat := specialContexts(t)
	for _, filter := range []expr.Expr{nil, testkit.Expr("k BETWEEN 40 AND 17000"), testkit.Expr("k > 30000")} {
		var want string
		var wantCounters cost.Counters
		for _, layout := range []struct {
			name string
			ctx  *Context
		}{{"partitioned", parted}, {"flat", flat}} {
			for _, dop := range dops {
				for _, inst := range []bool{false, true} {
					var in Node = &SeqScan{Table: "special", Filter: filter}
					if dop > 0 {
						in = &Exchange{Source: in, DOP: dop}
					}
					var plan Node = &Aggregate{Input: in, Aggs: specialAggs()}
					if newAggFold(plan.(*Aggregate), mustSchema(t, layout.ctx, in)) == nil {
						t.Fatal("the special-value aggregate does not fold")
					}
					if inst {
						plan = Instrument(plan)
					}
					res, c, _, err := Run(layout.ctx, plan)
					if err != nil {
						t.Fatal(err)
					}
					got := bits(res.Rows[0])
					label := fmt.Sprintf("filter=%v %s dop=%d instrumented=%v", filter, layout.name, dop, inst)
					if want == "" {
						want, wantCounters = got, c
						var rc cost.Counters
						ref, err := ExecuteMaterialized(layout.ctx, plan, &rc)
						if err != nil {
							t.Fatal(err)
						}
						if r := bits(ref.Rows[0]); r != got {
							t.Fatalf("%s: reference %s, fused %s", label, r, got)
						}
						checkOracle(t, label, layout.ctx, filter, res)
					} else if got != want || c != wantCounters {
						t.Fatalf("%s:\n got %s %+v\nwant %s %+v", label, got, c, want, wantCounters)
					}
					batch := &Aggregate{Input: &Filter{Input: in, Pred: testkit.Expr("k >= 0")}, Aggs: specialAggs()}
					if res, _, _, err = Run(layout.ctx, batch); err != nil {
						t.Fatal(err)
					}
					if got := bits(res.Rows[0]); got != want {
						t.Fatalf("%s batch path:\n got %s\nwant %s", label, got, want)
					}
				}
			}
		}
	}
}

// TestGroupedAggregateSpecialValues is TestFusedAggregateSpecialValues'
// grouped twin: SUM, AVG, MIN, MAX and COUNT of every column over NaN,
// ±Inf, ±0, subnormals and values near MaxFloat64, grouped by the Int
// key k (the int64-keyed states, one per row) and by the two Float
// columns e and z (the string-keyed states, three groups), are bit for
// bit the reference engine's at DOP 0/1/2/4 over both layouts.
func TestGroupedAggregateSpecialValues(t *testing.T) {
	parted, flat := specialContexts(t)
	aggs := specialAggs()
	for _, c := range append([]string{"k"}, specialCols...) {
		aggs = append(aggs, AggSpec{Func: Count, Arg: expr.C(c), As: "COUNT_" + c})
	}
	// rowsBits is every payload of res, float bits and all, in row order.
	rowsBits := func(res *Result) string {
		var b []byte
		for _, r := range res.Rows {
			for _, v := range r {
				x := uint64(v.I)
				if v.Kind == catalog.Float {
					x = math.Float64bits(v.F)
				}
				b = binary.LittleEndian.AppendUint64(b, x)
			}
		}
		return string(b)
	}
	// One state per row makes the Int key the slow case, so it runs
	// unfiltered only.
	for _, c := range []struct {
		keys    []string
		filters []expr.Expr
	}{
		{[]string{"k"}, []expr.Expr{nil}},
		{[]string{"e", "z"}, []expr.Expr{nil, testkit.Expr("k BETWEEN 40 AND 17000")}},
	} {
		groupBy := make([]expr.ColumnRef, len(c.keys))
		for i, k := range c.keys {
			groupBy[i] = expr.ColumnRef{Column: k}
		}
		for _, filter := range c.filters {
			var want string
			for _, layout := range []struct {
				name string
				ctx  *Context
			}{{"partitioned", parted}, {"flat", flat}} {
				for _, dop := range dops {
					var in Node = &SeqScan{Table: "special", Filter: filter}
					if dop > 0 {
						in = &Exchange{Source: in, DOP: dop}
					}
					plan := &Aggregate{Input: in, GroupBy: groupBy, Aggs: aggs}
					res, _, _, err := Run(layout.ctx, plan)
					if err != nil {
						t.Fatal(err)
					}
					got := rowsBits(res)
					label := fmt.Sprintf("by %v filter=%v %s dop=%d", c.keys, filter, layout.name, dop)
					if want == "" {
						var rc cost.Counters
						ref, err := ExecuteMaterialized(layout.ctx, plan, &rc)
						if err != nil {
							t.Fatal(err)
						}
						if want = rowsBits(ref); got != want {
							t.Fatalf("%s: engine and reference differ", label)
						}
						if n := len(res.Rows); c.keys[0] == "e" && n != 3 {
							t.Fatalf("%s: %d groups, want 3", label, n)
						}
					} else if got != want {
						t.Fatalf("%s: differs from DOP 0 over the partitioned layout", label)
					}
				}
			}
		}
	}
}

func mustSchema(t *testing.T, ctx *Context, n Node) expr.RelSchema {
	t.Helper()
	s, err := n.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkOracle holds every SUM of res to bigSum over the rows the filter
// keeps, and, unfiltered, pins what a naive running sum gets wrong.
func checkOracle(t *testing.T, label string, ctx *Context, filter expr.Expr, res *Result) {
	t.Helper()
	rows, _, _, err := Run(ctx, &SeqScan{Table: "special", Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	out := func(name string) float64 {
		for i, f := range res.Schema.Fields {
			if f.Column == name {
				return res.Rows[0][i].F
			}
		}
		t.Fatalf("no output %s", name)
		return 0
	}
	for c, col := range specialCols {
		xs := make([]float64, len(rows.Rows))
		for i, r := range rows.Rows {
			xs[i] = r[1+c].F
		}
		if got, want := out("SUM_"+col), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: SUM(%s) = %v, oracle %v", label, col, got, want)
		}
	}
	if len(rows.Rows) == 0 {
		for _, f := range res.Schema.Fields {
			if got := out(f.Column); math.Float64bits(got) != 0 {
				t.Errorf("%s: %s = %v over no rows, want 0", label, f.Column, got)
			}
		}
	}
	if filter != nil {
		return
	}
	if got := out("MIN_d"); !math.IsInf(got, -1) {
		t.Errorf("%s: MIN(d) = %v, want -Inf", label, got)
	}
	if got := out("MAX_d"); !math.IsInf(got, 1) {
		t.Errorf("%s: MAX(d) = %v, want +Inf", label, got)
	}
	for _, fn := range []AggFunc{Sum, Avg, Min, Max} {
		if got := out(fmt.Sprintf("%s_nan", fn)); !math.IsNaN(got) {
			t.Errorf("%s: %s(nan) = %v over NaN only, want NaN", label, fn, got)
		}
	}
	if got := out("SUM_b"); got != math.MaxFloat64/2 {
		t.Errorf("%s: SUM(b) = %v past an intermediate overflow, want MaxFloat64/2", label, got)
	}
	if got := out("SUM_e"); !math.IsInf(got, 1) {
		t.Errorf("%s: SUM(e) = %v, want +Inf", label, got)
	}
	if got := out("SUM_c"); !math.IsNaN(got) {
		t.Errorf("%s: SUM(c) = %v, want NaN", label, got)
	}
	if got := out("MIN_c"); math.Signbit(got) || got != 0 {
		t.Errorf("%s: MIN(c) = %v, want the first zero, +0", label, got)
	}
	if got := out("MAX_z"); !math.Signbit(got) || got != 0 {
		t.Errorf("%s: MAX(z) = %v, want the first zero, -0", label, got)
	}
}

// TestFusedAggregateFeedsInstrumentation holds the wrappers a fused
// aggregate bypasses — its SeqScan's, and its Exchange's — to the rows and
// batches they count when the same input is drained as batches, and the
// Exchange's row and morsel totals to the batch drain's, at every DOP.
func TestFusedAggregateFeedsInstrumentation(t *testing.T) {
	ctx := fixture{orders: 2000, lines: 4, parts: 10, shards: 4, clustered: true}.build(t)
	ctx.Metrics = obs.NewRegistry()
	input := func(dop int) Node {
		var n Node = &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship BETWEEN 20 AND 70 AND l_status <> 'void'")}
		if dop > 0 {
			n = &Exchange{Source: n, DOP: dop}
		}
		return n
	}
	exchangeTotals := func() [2]int64 {
		return [2]int64{ctx.Metrics.Counter("robustqo_exchange_rows_total").Value(), ctx.Metrics.Counter("robustqo_exchange_morsels_total").Value()}
	}
	for _, dop := range dops {
		before := exchangeTotals()
		drained := Instrument(input(dop))
		if _, _, _, err := Run(ctx, drained); err != nil {
			t.Fatal(err)
		}
		mid := exchangeTotals()
		folded := Instrument(&Aggregate{Input: input(dop), Aggs: []AggSpec{{Func: Count}, {Func: Sum, Arg: expr.C("l_price")}}})
		res, _, _, err := Run(ctx, folded)
		if err != nil {
			t.Fatal(err)
		}
		after := exchangeTotals()
		if n := res.Rows[0][0].I; n != drained.Stats.Rows || n == 0 {
			t.Fatalf("dop=%d: COUNT(*) %d, scan drained %d rows", dop, n, drained.Stats.Rows)
		}
		for w, g := drained, folded.Kids[0]; w != nil; {
			if w.Stats.Rows != g.Stats.Rows || w.Stats.Batches != g.Stats.Batches || w.Stats.Opens != g.Stats.Opens {
				t.Fatalf("dop=%d %s: folded rows=%d batches=%d opens=%d, drained rows=%d batches=%d opens=%d", dop, w.Describe(),
					g.Stats.Rows, g.Stats.Batches, g.Stats.Opens, w.Stats.Rows, w.Stats.Batches, w.Stats.Opens)
			}
			if len(w.Kids) == 0 {
				break
			}
			w, g = w.Kids[0], g.Kids[0]
		}
		if mid[0]-before[0] != after[0]-mid[0] || mid[1]-before[1] != after[1]-mid[1] {
			t.Fatalf("dop=%d: exchange totals folded %v, drained %v", dop, [2]int64{after[0] - mid[0], after[1] - mid[1]},
				[2]int64{mid[0] - before[0], mid[1] - before[1]})
		}
	}
}

// TestFusedAggregateErrorParity holds a fused aggregate's residual error
// to the one a batch drain of its scan returns — from the lowest failing
// morsel — at every DOP, bare and instrumented.
func TestFusedAggregateErrorParity(t *testing.T) {
	ctx := fixture{orders: 2000, lines: 4, parts: 10, shards: 4, clustered: true}.build(t)
	for _, filter := range []string{"l_ship BETWEEN 40 AND 60 AND l_status < 5", "l_status < 5"} {
		_, _, _, want := Run(ctx, &SeqScan{Table: "lineitem", Filter: testkit.Expr(filter)})
		if want == nil {
			t.Fatalf("%s: no error", filter)
		}
		for _, dop := range dops {
			for _, inst := range []bool{false, true} {
				var n Node = &SeqScan{Table: "lineitem", Filter: testkit.Expr(filter)}
				if dop > 0 {
					n = &Exchange{Source: n, DOP: dop}
				}
				n = &Aggregate{Input: n, Aggs: []AggSpec{{Func: Max, Arg: expr.C("l_ship")}}}
				if inst {
					n = Instrument(n)
				}
				if _, _, _, err := Run(ctx, n); err == nil || err.Error() != want.Error() {
					t.Fatalf("%s dop=%d instrumented=%v: error %v, want %v", filter, dop, inst, err, want)
				}
			}
		}
	}
}
