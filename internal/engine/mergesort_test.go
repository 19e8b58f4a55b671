package engine

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// radixKeyCases are the merge-join sort inputs the radix sort is checked
// on: the edges of the key encoding (sign bit, extremes), the byte-skip
// logic (keys differing in one byte only), stability (duplicates), and
// the trivial and presorted sizes.
func radixKeyCases() map[string][]int64 {
	rng := stats.NewRNG(2005)
	gen := func(n int, key func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = key(i)
		}
		return out
	}
	return map[string][]int64{
		"empty":      {},
		"one":        {42},
		"duplicates": gen(500, func(int) int64 { return int64(testkit.Intn(rng, 7)) }),
		"negative":   gen(500, func(int) int64 { return int64(testkit.Intn(rng, 2000)) - 1000 }),
		"extremes": gen(300, func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[testkit.Intn(rng, 7)]
		}),
		"sorted":   gen(300, func(i int) int64 { return int64(i / 3) }),
		"reversed": gen(300, func(i int) int64 { return int64(300 - i) }),
		"one-byte": gen(500, func(int) int64 { return 0x1234_5600_0000_0000 | int64(testkit.Intn(rng, 256))<<24 }),
		"wide":     gen(1000, func(int) int64 { return int64(rng.Uint64()) }),
	}
}

// keyedRows makes one (key, input position) row per key, so a sort that
// breaks ties out of input order is visible.
func keyedRows(keys []int64) []value.Row {
	rows := make([]value.Row, len(keys))
	for i, k := range keys {
		rows[i] = value.Row{value.Int(k), value.Int(int64(i))}
	}
	return rows
}

// TestRadixSortMatchesStableSort checks sortedByKey against a
// sort.SliceStable oracle, and that it reports a sort exactly when the
// input was out of order.
func TestRadixSortMatchesStableSort(t *testing.T) {
	for name, keys := range radixKeyCases() {
		t.Run(name, func(t *testing.T) {
			got := keyedRows(keys)
			want := keyedRows(keys)
			sort.SliceStable(want, func(a, b int) bool { return want[a][0].I < want[b][0].I })
			inOrder := slices.IsSorted(keys)
			if sorted := sortedByKey(got, 0); sorted == inOrder {
				t.Errorf("sortedByKey reported sorted=%v on an input with in-order=%v", sorted, inOrder)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("radix order differs from sort.SliceStable")
			}
		})
	}
}

// keyTable creates a table of (k, pos) rows in the given key order.
func keyTable(t *testing.T, db *storage.Database, name string, keys []int64) {
	t.Helper()
	tbl, err := db.CreateTable(&catalog.TableSchema{Name: name, Columns: []catalog.Column{
		{Name: name + "_k", Type: catalog.Int},
		{Name: name + "_pos", Type: catalog.Int},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range keyedRows(keys) {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// nestedLoopMerge is the merge join's specification with no sort of its
// own in it: both inputs stably sorted by the oracle, then every
// equal-key pair in left-major order.
func nestedLoopMerge(left, right []int64) []value.Row {
	l, r := keyedRows(left), keyedRows(right)
	sort.SliceStable(l, func(a, b int) bool { return l[a][0].I < l[b][0].I })
	sort.SliceStable(r, func(a, b int) bool { return r[a][0].I < r[b][0].I })
	var out []value.Row
	for _, a := range l {
		for _, b := range r {
			if a[0].I == b[0].I {
				out = append(out, slices.Concat(a, b))
			}
		}
	}
	return out
}

// TestMergeJoinRadixSortBothEngines runs the radix sort through the
// streaming and the materialized merge join over out-of-order inputs:
// both sort through radixOrder, so the differential tests between them
// cannot catch a sort bug, and the oracle here shares none of its code. It also
// pins robustqo_mergejoin_unsorted_input_total: one per input that was
// declared sorted but arrived out of order, in either engine.
func TestMergeJoinRadixSortBothEngines(t *testing.T) {
	cases := radixKeyCases()
	for _, pair := range [][2]string{
		{"duplicates", "negative"}, {"extremes", "extremes"}, {"one-byte", "one-byte"},
		{"reversed", "sorted"}, {"sorted", "duplicates"}, {"empty", "wide"}, {"one", "duplicates"},
	} {
		left, right := cases[pair[0]], cases[pair[1]]
		t.Run(pair[0]+"-"+pair[1], func(t *testing.T) {
			db := storage.NewDatabase(catalog.NewCatalog())
			keyTable(t, db, "l", left)
			keyTable(t, db, "r", right)
			want := nestedLoopMerge(left, right)
			unsorted := 0
			for _, keys := range [][]int64{left, right} {
				if !slices.IsSorted(keys) {
					unsorted++
				}
			}
			for _, declared := range []bool{false, true} {
				ctx := &Context{DB: db, Metrics: obs.NewRegistry()}
				plan := &MergeJoin{
					Left: &SeqScan{Table: "l"}, Right: &SeqScan{Table: "r"},
					LeftCol: expr.ColumnRef{Column: "l_k"}, RightCol: expr.ColumnRef{Column: "r_k"},
					LeftSorted: declared, RightSorted: declared,
				}
				res, c, _, err := Run(ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				var mc cost.Counters
				mres, err := ExecuteMaterialized(ctx, plan, &mc)
				if err != nil {
					t.Fatal(err)
				}
				for engine, rows := range map[string][]value.Row{"streaming": res.Rows, "materialized": mres.Rows} {
					if len(rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(rows, want)) {
						t.Errorf("declared=%v %s: %d rows differ from the oracle's %d", declared, engine, len(rows), len(want))
					}
				}
				if c.SortTuples != mc.SortTuples {
					t.Errorf("declared=%v: SortTuples streaming %d, materialized %d", declared, c.SortTuples, mc.SortTuples)
				}
				wantMetric := int64(0)
				if declared {
					wantMetric = int64(2 * unsorted) // once per engine
				}
				if got := ctx.Metrics.Counter("robustqo_mergejoin_unsorted_input_total").Value(); got != wantMetric {
					t.Errorf("declared=%v: unsorted-input counter %d, want %d", declared, got, wantMetric)
				}
			}
		})
	}
}

// TestMergeJoinNonNumericKeyBothEngines keeps the key validation: a
// string key fails in both engines with the same error, naming the
// column.
func TestMergeJoinNonNumericKeyBothEngines(t *testing.T) {
	_, ctx := testDB(t, 1000, 3, 10)
	plan := &MergeJoin{
		Left: &SeqScan{Table: "orders"}, Right: &SeqScan{Table: "lineitem"},
		LeftCol: expr.ColumnRef{Column: "o_orderkey"}, RightCol: expr.ColumnRef{Column: "l_status"},
	}
	want := "engine: MergeJoin right key lineitem.l_status is VARCHAR; join keys must be INT or DATE"
	if _, _, _, err := Run(ctx, plan); err == nil || err.Error() != want {
		t.Errorf("streaming: error %v, want %q", err, want)
	}
	var c cost.Counters
	if _, err := ExecuteMaterialized(ctx, plan, &c); err == nil || err.Error() != want {
		t.Errorf("materialized: error %v, want %q", err, want)
	}
}

// TestMergeJoinFloatKeyBothEngines: a Float key is rejected in both
// engines, naming the column. Both engines used to order and match on
// the unused integer payload, which is 0 for every Float, and return the
// full cross product.
func TestMergeJoinFloatKeyBothEngines(t *testing.T) {
	_, ctx := testDB(t, 1000, 3, 10)
	plan := &MergeJoin{
		Left: &SeqScan{Table: "orders"}, Right: &SeqScan{Table: "lineitem"},
		LeftCol: expr.ColumnRef{Column: "o_total"}, RightCol: expr.ColumnRef{Column: "l_price"},
	}
	want := "engine: MergeJoin left key orders.o_total is FLOAT; join keys must be INT or DATE"
	if _, _, _, err := Run(ctx, plan); err == nil || err.Error() != want {
		t.Errorf("streaming: error %v, want %q", err, want)
	}
	var c cost.Counters
	if _, err := ExecuteMaterialized(ctx, plan, &c); err == nil || err.Error() != want {
		t.Errorf("materialized: error %v, want %q", err, want)
	}
}
