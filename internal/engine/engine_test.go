package engine

import (
	"strings"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// testDB builds the unpartitioned, unclustered fixture (see fixture) with
// nOrders orders of linesPerOrder lineitems each and nParts parts.
func testDB(t testing.TB, nOrders, linesPerOrder, nParts int) (*storage.Database, *Context) {
	t.Helper()
	ctx := fixture{orders: nOrders, lines: linesPerOrder, parts: nParts}.build(t)
	return ctx.DB, ctx
}

// naiveSelect evaluates a filter over a full table without the engine, as
// the ground truth for operator tests.
func naiveSelect(t *testing.T, db *storage.Database, table string, pred expr.Expr) []value.Row {
	t.Helper()
	tab := testkit.Table(db, table)
	schema := expr.SchemaForTable(tab.Schema())
	b, err := expr.Bind(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	var out []value.Row
	for r := 0; r < tab.NumRows(); r++ {
		row := tab.Row(r)
		ok, err := evalRow(b, row)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// evalRow evaluates a bound predicate over one row, as a one-row batch.
func evalRow(b *expr.Bound, row value.Row) (bool, error) {
	cols := make([]value.Vec, len(row))
	for c, v := range row {
		cols[c] = value.Vec{Kind: v.Kind}
		cols[c].Append(v)
	}
	keep, err := b.EvalBatch(cols, []int{0})
	return len(keep) == 1, err
}

func rowKey(r value.Row) string {
	var b []byte
	for _, v := range r {
		b = append(value.AppendKey(b, v), '|')
	}
	return string(b)
}

func sameRowMultiset(t *testing.T, got, want []value.Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	counts := make(map[string]int)
	for _, r := range want {
		counts[rowKey(r)]++
	}
	for _, r := range got {
		counts[rowKey(r)]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("%s: row multiset mismatch at %q (delta %d)", label, k, c)
		}
	}
}

func TestSeqScanMatchesNaive(t *testing.T) {
	db, ctx := testDB(t, 50, 4, 20)
	pred := testkit.Expr("l_ship BETWEEN 10 AND 30 AND l_receipt <= l_ship + 3")
	res, counters, secs, err := Run(ctx, &SeqScan{Table: "lineitem", Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSelect(t, db, "lineitem", pred)
	sameRowMultiset(t, res.Rows, want, "seqscan")
	lt := testkit.Table(db, "lineitem")
	if counters.SeqPages != int64(lt.NumPages()) {
		t.Errorf("SeqPages = %d, want %d", counters.SeqPages, lt.NumPages())
	}
	if counters.RandPages != 0 {
		t.Errorf("SeqScan incurred %d random pages", counters.RandPages)
	}
	if secs <= 0 {
		t.Errorf("time = %g", secs)
	}
}

func TestSeqScanNilFilterReturnsAll(t *testing.T) {
	db, ctx := testDB(t, 10, 2, 5)
	res, _, _, err := Run(ctx, &SeqScan{Table: "orders"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != testkit.Table(db, "orders").NumRows() {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestSeqScanErrors(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	if _, _, _, err := Run(ctx, &SeqScan{Table: "ghost"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, _, _, err := Run(ctx, &SeqScan{Table: "orders", Filter: testkit.Expr("nope = 1")}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestIndexRangeScanMatchesNaive(t *testing.T) {
	db, ctx := testDB(t, 60, 3, 10)
	node := &IndexRangeScan{
		Table:    "lineitem",
		Range:    KeyRange{Column: "l_ship", Lo: 20, Hi: 40},
		Residual: testkit.Expr("l_price > 20"),
	}
	res, counters, _, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSelect(t, db, "lineitem", testkit.Expr("l_ship BETWEEN 20 AND 40 AND l_price > 20"))
	sameRowMultiset(t, res.Rows, want, "indexrange")
	if counters.IndexSeeks != 1 {
		t.Errorf("IndexSeeks = %d", counters.IndexSeeks)
	}
	// One random page per index match (before the residual).
	matches := naiveSelect(t, db, "lineitem", testkit.Expr("l_ship BETWEEN 20 AND 40"))
	if counters.RandPages != int64(len(matches)) {
		t.Errorf("RandPages = %d, want %d", counters.RandPages, len(matches))
	}
	if counters.SeqPages != 0 {
		t.Errorf("SeqPages = %d", counters.SeqPages)
	}
}

func TestIndexIntersectMatchesNaive(t *testing.T) {
	db, ctx := testDB(t, 80, 3, 10)
	node := &IndexIntersect{
		Table: "lineitem",
		Ranges: []KeyRange{
			{Column: "l_ship", Lo: 10, Hi: 50},
			{Column: "l_receipt", Lo: 15, Hi: 55},
		},
	}
	res, counters, _, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSelect(t, db, "lineitem",
		testkit.Expr("l_ship BETWEEN 10 AND 50 AND l_receipt BETWEEN 15 AND 55"))
	sameRowMultiset(t, res.Rows, want, "intersect")
	if counters.IndexSeeks != 2 {
		t.Errorf("IndexSeeks = %d", counters.IndexSeeks)
	}
	// Random fetches only for the intersection, not the union.
	if counters.RandPages != int64(len(want)) {
		t.Errorf("RandPages = %d, want %d", counters.RandPages, len(want))
	}
}

func TestIndexIntersectRiskProfile(t *testing.T) {
	// The defining property from Section 2.1: at low selectivity the
	// intersection plan is much cheaper than the scan; at high selectivity
	// it is much more expensive. The table must be large enough that a
	// full scan costs well above the fixed index-seek overhead.
	_, ctx := testDB(t, 4000, 5, 10)
	scan := func(lo, hi int64) float64 {
		pred := expr.Conj(
			expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(lo), Hi: expr.IntLit(hi)},
			expr.Between{E: expr.C("l_receipt"), Lo: expr.IntLit(lo), Hi: expr.IntLit(hi)},
		)
		_, _, secs, err := Run(ctx, &SeqScan{Table: "lineitem", Filter: pred})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	ix := func(lo, hi int64) float64 {
		node := &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
			{Column: "l_ship", Lo: lo, Hi: hi},
			{Column: "l_receipt", Lo: lo, Hi: hi},
		}}
		_, _, secs, err := Run(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	// Empty range: index plan should beat the scan.
	if ix(1000, 1001) >= scan(1000, 1001) {
		t.Error("index intersection not cheaper at zero selectivity")
	}
	// Full range: scan should beat the index plan.
	if ix(0, 200) <= scan(0, 200) {
		t.Error("index intersection not more expensive at full selectivity")
	}
}

func TestIndexScanErrors(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	if _, _, _, err := Run(ctx, &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_price", Lo: 0, Hi: 1}}); err == nil {
		t.Error("unindexed column accepted")
	}
	if _, _, _, err := Run(ctx, &IndexIntersect{Table: "lineitem"}); err == nil {
		t.Error("empty ranges accepted")
	}
	if _, _, _, err := Run(ctx, &IndexIntersect{Table: "ghost", Ranges: []KeyRange{{Column: "x"}}}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestHashJoinMatchesNaive(t *testing.T) {
	db, ctx := testDB(t, 40, 3, 10)
	join := &HashJoin{
		Build:    &SeqScan{Table: "orders"},
		Probe:    &SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	res, counters, _, err := Run(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	// Every lineitem matches exactly one order.
	if want := testkit.Table(db, "lineitem").NumRows(); len(res.Rows) != want {
		t.Errorf("join rows = %d, want %d", len(res.Rows), want)
	}
	if counters.HashBuilds != int64(testkit.Table(db, "orders").NumRows()) {
		t.Errorf("HashBuilds = %d", counters.HashBuilds)
	}
	if counters.HashProbes != int64(testkit.Table(db, "lineitem").NumRows()) {
		t.Errorf("HashProbes = %d", counters.HashProbes)
	}
	// Verify key equality holds on every output row.
	schema, _ := join.Schema(ctx)
	okIdx, _ := schema.Resolve(expr.ColumnRef{Table: "orders", Column: "o_orderkey"})
	lkIdx, _ := schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"})
	for _, r := range res.Rows {
		if r[okIdx].I != r[lkIdx].I {
			t.Fatal("join produced mismatched keys")
		}
	}
}

func TestMergeJoinAgreesWithHashJoin(t *testing.T) {
	_, ctx := testDB(t, 30, 4, 10)
	hj := &HashJoin{
		Build:    &SeqScan{Table: "orders"},
		Probe:    &SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	mj := &MergeJoin{
		Left:        &SeqScan{Table: "orders"},
		Right:       &SeqScan{Table: "lineitem"},
		LeftCol:     expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		RightCol:    expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		LeftSorted:  true,
		RightSorted: true,
	}
	hres, _, _, err := Run(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	mres, mcounters, _, err := Run(ctx, mj)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, mres.Rows, hres.Rows, "merge-vs-hash")
	if mcounters.SortTuples != 0 {
		t.Errorf("sorted merge join charged %d sort tuples", mcounters.SortTuples)
	}
}

func TestMergeJoinChargesSortWhenUnsorted(t *testing.T) {
	_, ctx := testDB(t, 10, 2, 5)
	mj := &MergeJoin{
		Left:     &SeqScan{Table: "orders"},
		Right:    &SeqScan{Table: "lineitem"},
		LeftCol:  expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		RightCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	_, counters, _, err := Run(ctx, mj)
	if err != nil {
		t.Fatal(err)
	}
	if counters.SortTuples == 0 {
		t.Error("unsorted merge join charged no sort")
	}
}

func TestINLJoinViaPKAndViaSecondaryIndex(t *testing.T) {
	_, ctx := testDB(t, 30, 3, 12)
	// Outer lineitem probing orders PK.
	viaPK := &INLJoin{
		Outer:      &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship < 20")},
		OuterCol:   expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		InnerTable: "orders",
		InnerCol:   "o_orderkey",
	}
	resPK, cntPK, _, err := Run(ctx, viaPK)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent hash join.
	hj := &HashJoin{
		Build:    &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship < 20")},
		Probe:    &SeqScan{Table: "orders"},
		BuildCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
	}
	resHJ, _, _, err := Run(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, resPK.Rows, resHJ.Rows, "inl-pk-vs-hash")
	if cntPK.RandPages == 0 {
		t.Error("PK probes charged no random pages")
	}

	// Outer part probing lineitem's secondary FK index.
	viaIx := &INLJoin{
		Outer:      &SeqScan{Table: "part", Filter: testkit.Expr("p_size < 10")},
		OuterCol:   expr.ColumnRef{Table: "part", Column: "p_partkey"},
		InnerTable: "lineitem",
		InnerCol:   "l_partkey",
	}
	resIx, cntIx, _, err := Run(ctx, viaIx)
	if err != nil {
		t.Fatal(err)
	}
	hj2 := &HashJoin{
		Build:    &SeqScan{Table: "part", Filter: testkit.Expr("p_size < 10")},
		Probe:    &SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "part", Column: "p_partkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_partkey"},
	}
	resHJ2, _, _, err := Run(ctx, hj2)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, resIx.Rows, resHJ2.Rows, "inl-ix-vs-hash")
	if cntIx.IndexSeeks == 0 || cntIx.RandPages == 0 {
		t.Errorf("secondary-index probes: %+v", cntIx)
	}
}

func TestINLJoinResidual(t *testing.T) {
	_, ctx := testDB(t, 20, 2, 8)
	join := &INLJoin{
		Outer:      &SeqScan{Table: "lineitem"},
		OuterCol:   expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		InnerTable: "orders",
		InnerCol:   "o_orderkey",
		Residual:   testkit.Expr("o_total > 500"),
	}
	res, _, _, err := Run(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := join.Schema(ctx)
	totIdx, _ := schema.Resolve(expr.ColumnRef{Table: "orders", Column: "o_total"})
	for _, r := range res.Rows {
		if r[totIdx].F <= 500 {
			t.Fatal("residual not applied")
		}
	}
}

func TestFilterProjectAggregate(t *testing.T) {
	db, ctx := testDB(t, 25, 4, 10)
	plan := &Aggregate{
		Input: &Project{
			Input: &Filter{
				Input: &SeqScan{Table: "lineitem"},
				Pred:  testkit.Expr("l_ship < 50"),
			},
			Cols: []expr.ColumnRef{
				{Table: "lineitem", Column: "l_partkey"},
				{Table: "lineitem", Column: "l_price"},
			},
		},
		GroupBy: []expr.ColumnRef{{Column: "l_partkey"}},
		Aggs: []AggSpec{
			{Func: Sum, Arg: expr.C("l_price"), As: "total"},
			{Func: Count, As: "cnt"},
			{Func: Min, Arg: expr.C("l_price"), As: "lo"},
			{Func: Max, Arg: expr.C("l_price"), As: "hi"},
			{Func: Avg, Arg: expr.C("l_price"), As: "avg"},
		},
	}
	res, _, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check totals against a naive pass.
	want := make(map[int64]struct {
		sum float64
		n   int64
		lo  float64
		hi  float64
	})
	for _, r := range naiveSelect(t, db, "lineitem", testkit.Expr("l_ship < 50")) {
		pk, price := r[2].I, r[5].F
		e := want[pk]
		if e.n == 0 {
			e.lo, e.hi = price, price
		} else {
			if price < e.lo {
				e.lo = price
			}
			if price > e.hi {
				e.hi = price
			}
		}
		e.sum += price
		e.n++
		want[pk] = e
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		e, ok := want[r[0].I]
		if !ok {
			t.Fatalf("unexpected group %v", r[0])
		}
		if !almostEq(r[1].F, e.sum) || r[2].I != e.n || !almostEq(r[3].F, e.lo) ||
			!almostEq(r[4].F, e.hi) || !almostEq(r[5].F, e.sum/float64(e.n)) {
			t.Fatalf("group %v = %v, want %+v", r[0], r, e)
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	plan := &Aggregate{
		Input: &SeqScan{Table: "orders", Filter: testkit.Expr("o_total < -1")},
		Aggs: []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Arg: expr.C("o_total"), As: "s"},
		},
	}
	res, _, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || res.Rows[0][1].F != 0 {
		t.Errorf("empty aggregate = %v", res.Rows)
	}
}

// TestAggregateGroupKeyAllocs bounds what a grouped aggregate allocates:
// the group key is built in one reused buffer and copied out only for a
// new group, so a 4,096-row, 50-group aggregate costs allocations per
// group and per batch, not per row.
func TestAggregateGroupKeyAllocs(t *testing.T) {
	_, ctx := testDB(t, 1024, 4, 50)
	plan := &Aggregate{
		Input:   &SeqScan{Table: "lineitem"},
		GroupBy: []expr.ColumnRef{{Table: "lineitem", Column: "l_partkey"}},
		Aggs:    []AggSpec{{Func: Count, As: "n"}, {Func: Sum, Arg: expr.C("l_price"), As: "s"}},
	}
	const rows, groups = 4096, 50
	allocs := testing.AllocsPerRun(5, func() {
		res, _, _, err := Run(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != groups {
			t.Fatalf("%d groups, want %d", len(res.Rows), groups)
		}
	})
	if ceiling := float64(groups * 16); allocs > ceiling {
		t.Fatalf("aggregate allocs %.0f for %d rows, want <= %.0f (per group, not per row)", allocs, rows, ceiling)
	}
	t.Logf("allocs per run: %.0f for %d rows in %d groups", allocs, rows, groups)
}

func TestAggregateErrors(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	if _, _, _, err := Run(ctx, &Aggregate{Input: &SeqScan{Table: "orders"}}); err == nil {
		t.Error("no aggs and no groups accepted")
	}
	if _, _, _, err := Run(ctx, &Aggregate{
		Input: &SeqScan{Table: "orders"},
		Aggs:  []AggSpec{{Func: Sum}},
	}); err == nil {
		t.Error("SUM without argument accepted")
	}
}

func TestStarSemiJoinAgreesWithHashCascade(t *testing.T) {
	// Reuse lineitem as a small "fact" with part as one dimension and
	// orders as another.
	_, ctx := testDB(t, 50, 4, 10)
	star := &StarSemiJoin{
		Fact: "lineitem",
		Dims: []StarDim{
			{
				Scan:   &SeqScan{Table: "part", Filter: testkit.Expr("p_size < 25")},
				DimPK:  expr.ColumnRef{Table: "part", Column: "p_partkey"},
				FactFK: "l_partkey",
			},
		},
	}
	resStar, cnt, _, err := Run(ctx, star)
	if err != nil {
		t.Fatal(err)
	}
	hj := &HashJoin{
		Build:    &SeqScan{Table: "lineitem"},
		Probe:    &SeqScan{Table: "part", Filter: testkit.Expr("p_size < 25")},
		BuildCol: expr.ColumnRef{Table: "lineitem", Column: "l_partkey"},
		ProbeCol: expr.ColumnRef{Table: "part", Column: "p_partkey"},
	}
	resHJ, _, _, err := Run(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, resStar.Rows, resHJ.Rows, "star-vs-hash")
	if cnt.IndexSeeks == 0 {
		t.Error("star semijoin used no index seeks")
	}
}

func TestStarSemiJoinErrors(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	if _, _, _, err := Run(ctx, &StarSemiJoin{Fact: "lineitem"}); err == nil {
		t.Error("no dims accepted")
	}
	bad := &StarSemiJoin{
		Fact: "lineitem",
		Dims: []StarDim{{
			Scan:   &SeqScan{Table: "orders"},
			DimPK:  expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
			FactFK: "l_ship", // indexed but not an FK — join-back will drop rows
		}},
	}
	// Mis-declared FK is not an execution error per se, but an unknown
	// fact column is.
	bad2 := &StarSemiJoin{
		Fact: "lineitem",
		Dims: []StarDim{{
			Scan:   &SeqScan{Table: "orders"},
			DimPK:  expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
			FactFK: "nope",
		}},
	}
	if _, _, _, err := Run(ctx, bad2); err == nil {
		t.Error("unknown fact FK accepted")
	}
	_ = bad
}

func TestExplainRendersTree(t *testing.T) {
	plan := &Aggregate{
		Input: &HashJoin{
			Build:    &SeqScan{Table: "orders"},
			Probe:    &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship < 10")},
			BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
			ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		},
		Aggs: []AggSpec{{Func: Count, As: "n"}},
	}
	s := Explain(plan)
	for _, want := range []string{"Aggregate", "HashJoin", "SeqScan(orders)", "SeqScan(lineitem"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "\n  HashJoin") || !strings.Contains(s, "\n    SeqScan(orders)") {
		t.Errorf("Explain indentation wrong:\n%s", s)
	}
}

func TestRunChargesOutput(t *testing.T) {
	db, ctx := testDB(t, 10, 2, 5)
	_, counters, _, err := Run(ctx, &SeqScan{Table: "lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	if counters.Output != int64(testkit.Table(db, "lineitem").NumRows()) {
		t.Errorf("Output = %d", counters.Output)
	}
}

func TestCountersAddAndModelTime(t *testing.T) {
	var a cost.Counters
	a.Add(cost.Counters{SeqPages: 1, RandPages: 2, Tuples: 3, IndexSeeks: 4,
		IndexEntries: 5, HashBuilds: 6, HashProbes: 7, SortTuples: 8, Output: 9})
	a.Add(cost.Counters{SeqPages: 1})
	if a.SeqPages != 2 || a.Output != 9 {
		t.Errorf("Add = %+v", a)
	}
	m := cost.Model{SeqPage: 1, RandPage: 10, Tuple: 100, IndexSeek: 1000,
		IndexEntry: 1e4, HashBuild: 1e5, HashProbe: 1e6, SortTuple: 1e7, Output: 1e8}
	want := 2.0 + 2*10 + 3*100 + 4*1000 + 5*1e4 + 6*1e5 + 7*1e6 + 8*1e7 + 9*1e8
	if got := m.Time(a); got != want {
		t.Errorf("Time = %g, want %g", got, want)
	}
	if s := a.String(); !strings.Contains(s, "seq=2") {
		t.Errorf("String = %q", s)
	}
}
