package optimizer

import (
	"math"
	"slices"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// exactEstimator answers every request with the true selectivity by full
// enumeration — the "perfect statistics" oracle.
type exactEstimator struct{ db *storage.Database }

func (e *exactEstimator) Name() string { return "exact" }

func (e *exactEstimator) Estimate(req core.Request) (core.Estimate, error) {
	sel, err := sample.ExactFraction(e.db, req.Tables, req.Pred)
	if err != nil {
		return core.Estimate{}, err
	}
	root, err := e.db.Catalog.RootOf(req.Tables)
	if err != nil {
		return core.Estimate{}, err
	}
	return core.Estimate{Selectivity: sel, Rows: sel * float64(testkit.Table(e.db, root).NumRows())}, nil
}

// fixedEstimator answers every request with one selectivity of the
// root's rows.
type fixedEstimator struct {
	db  *storage.Database
	sel float64
}

func (e *fixedEstimator) Name() string { return "fixed" }

func (e *fixedEstimator) Estimate(req core.Request) (core.Estimate, error) {
	root, err := e.db.Catalog.RootOf(req.Tables)
	if err != nil {
		return core.Estimate{}, err
	}
	return core.Estimate{Selectivity: e.sel, Rows: e.sel * float64(testkit.Table(e.db, root).NumRows())}, nil
}

// optDB builds a correlated lineitem/orders/part database large enough
// that the scan-vs-index crossover sits at a low selectivity.
func optDB(t testing.TB, nLines int, corrWindow int64) (*storage.Database, *engine.Context) {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	part, err := db.CreateTable(&catalog.TableSchema{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: catalog.Int},
			{Name: "p_size", Type: catalog.Int},
		},
		PrimaryKey: "p_partkey",
		Ordered:    []string{"p_partkey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int},
			{Name: "o_total", Type: catalog.Float},
		},
		PrimaryKey: "o_orderkey",
		Ordered:    []string{"o_orderkey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lineitem, err := db.CreateTable(&catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_orderkey", Type: catalog.Int},
			{Name: "l_partkey", Type: catalog.Int},
			{Name: "l_ship", Type: catalog.Date},
			{Name: "l_receipt", Type: catalog.Date},
			{Name: "l_price", Type: catalog.Float},
		},
		PrimaryKey: "l_id",
		Foreign: []catalog.ForeignKey{
			{Column: "l_orderkey", RefTable: "orders"},
			{Column: "l_partkey", RefTable: "part"},
		},
		Indexes: []catalog.Index{
			{Name: "ix_ship", Column: "l_ship", Kind: catalog.NonClustered},
			{Name: "ix_receipt", Column: "l_receipt", Kind: catalog.NonClustered},
			{Name: "ix_partkey", Column: "l_partkey", Kind: catalog.NonClustered},
		},
		Ordered: []string{"l_id", "l_orderkey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nParts = 200
	rng := stats.NewRNG(99)
	for p := 0; p < nParts; p++ {
		if err := part.Append(value.Row{value.Int(int64(p)), value.Int(int64(p % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	nOrders := nLines / 4
	if nOrders == 0 {
		nOrders = 1
	}
	for o := 0; o < nOrders; o++ {
		if err := orders.Append(value.Row{value.Int(int64(o)), value.Float(rng.Float64() * 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nLines; i++ {
		ship := int64(testkit.Intn(rng, 1000))
		// receipt correlated with ship within corrWindow days.
		receipt := ship + int64(testkit.Intn(rng, int(corrWindow)))
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % nOrders)),
			value.Int(int64(testkit.Intn(rng, nParts))),
			value.Date(ship),
			value.Date(receipt),
			value.Float(float64(testkit.Intn(rng, 10000)) / 100),
		}
		if err := lineitem.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

func exactOpt(t *testing.T, db *storage.Database, ctx *engine.Context) *Optimizer {
	t.Helper()
	o, err := New(ctx, &exactEstimator{db: db})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	db, ctx := optDB(t, 200, 10)
	o := exactOpt(t, db, ctx)
	cases := []*Query{
		nil,
		{},
		{Tables: []string{"ghost"}},
		{Tables: []string{"lineitem", "lineitem"}},
		{Tables: []string{"orders", "part"}}, // disconnected
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("ghost_col = 1")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("ghost.l_ship = 1")},
		{Tables: []string{"lineitem", "orders"}, Pred: testkit.Expr("orders.nope = 1")},
	}
	// One conjunct more than a conjunct mask has bits.
	var terms []expr.Expr
	for i := range 65 {
		terms = append(terms, expr.Cmp{Op: expr.GE, L: expr.C("l_id"), R: expr.IntLit(int64(i))})
	}
	cases = append(cases, &Query{Tables: []string{"lineitem"}, Pred: expr.Conj(terms...)})
	for i, q := range cases {
		if _, err := o.Optimize(q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := o.Optimize(&Query{Tables: []string{"lineitem"}, Pred: expr.Conj(terms[:64]...)}); err != nil {
		t.Errorf("64 conjuncts: %v", err)
	}
}

func TestSingleTablePicksScanVsIntersection(t *testing.T) {
	db, ctx := optDB(t, 20000, 40)
	o := exactOpt(t, db, ctx)
	// High selectivity: both date windows wide -> scan must win.
	wide := &Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 900 AND l_receipt BETWEEN 0 AND 900"),
	}
	plan, err := o.Optimize(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Root.(*engine.SeqScan); !ok {
		t.Errorf("wide predicate chose %s", plan.Root.Describe())
	}
	// Low selectivity: narrow windows -> index plan must win.
	narrow := &Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 100 AND 104 AND l_receipt BETWEEN 500 AND 505"),
	}
	plan, err = o.Optimize(narrow)
	if err != nil {
		t.Fatal(err)
	}
	switch plan.Root.(type) {
	case *engine.IndexIntersect, *engine.IndexRangeScan:
	default:
		t.Errorf("narrow predicate chose %s", plan.Root.Describe())
	}
}

func TestEstimatedCostTracksActual(t *testing.T) {
	db, ctx := optDB(t, 10000, 40)
	o := exactOpt(t, db, ctx)
	queries := []*Query{
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_ship BETWEEN 100 AND 300")},
		{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_ship BETWEEN 100 AND 104 AND l_receipt BETWEEN 100 AND 110")},
		{Tables: []string{"lineitem", "orders"}, Pred: testkit.Expr("l_price < 10")},
	}
	for i, q := range queries {
		plan, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		_, _, actual, err := engine.Run(ctx, plan.Root)
		if err != nil {
			t.Fatalf("query %d execute: %v", i, err)
		}
		// With an exact estimator the predicted cost should be within a
		// small factor of the measured cost (formulas approximate some
		// CPU terms).
		ratio := plan.EstCost / actual
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("query %d: est %g vs actual %g (ratio %g)\n%s", i, plan.EstCost, actual, ratio, plan.Explain())
		}
	}
}

func TestJoinPlanCorrectness(t *testing.T) {
	db, ctx := optDB(t, 4000, 40)
	o := exactOpt(t, db, ctx)
	q := &Query{
		Tables: []string{"lineitem", "orders", "part"},
		Pred:   testkit.Expr("p_size = 7 AND l_price < 50"),
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: count matching lineitems by direct expansion.
	truth, err := sample.ExactFraction(db, q.Tables, q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	want := int(truth*float64(testkit.Table(db, "lineitem").NumRows()) + 0.5)
	if len(res.Rows) != want {
		t.Errorf("join plan returned %d rows, want %d\n%s", len(res.Rows), want, plan.Explain())
	}
	// The combined schema must expose all three tables' columns.
	schema, err := plan.Root.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []expr.ColumnRef{
		{Table: "lineitem", Column: "l_id"},
		{Table: "orders", Column: "o_total"},
		{Table: "part", Column: "p_size"},
	} {
		if _, err := schema.Resolve(col); err != nil {
			t.Errorf("output schema missing %s", col)
		}
	}
}

func TestJoinPlanChoosesINLAtLowSelectivity(t *testing.T) {
	db, ctx := optDB(t, 20000, 40)
	o := exactOpt(t, db, ctx)
	// A part predicate selecting (almost) nothing: indexed nested loops
	// from part into lineitem's FK index beats scanning the whole
	// lineitem table for the hash join. (At ~0.5% selectivity the random
	// fetches already cost more than the scan — the same risk/stability
	// trade as the single-table case — so the near-empty outer is the
	// regime where INL must win.)
	q := &Query{
		Tables: []string{"lineitem", "part"},
		Pred:   testkit.Expr("p_partkey = 11 AND p_size = 999"),
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "INLJoin") {
		t.Errorf("low-selectivity join chose:\n%s", plan.Explain())
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := sample.ExactFraction(db, q.Tables, q.Pred)
	want := int(truth*20000 + 0.5)
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestAggregationQuery(t *testing.T) {
	db, ctx := optDB(t, 2000, 40)
	o := exactOpt(t, db, ctx)
	q := &Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 499"),
		Aggs: []engine.AggSpec{
			{Func: engine.Sum, Arg: expr.C("l_price"), As: "revenue"},
			{Func: engine.Count, As: "n"},
		},
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("agg rows = %d", len(res.Rows))
	}
	truth, _ := sample.ExactFraction(db, []string{"lineitem"}, q.Pred)
	wantN := int64(truth*float64(testkit.Table(db, "lineitem").NumRows()) + 0.5)
	if res.Rows[0][1].I != wantN {
		t.Errorf("COUNT = %d, want %d", res.Rows[0][1].I, wantN)
	}
}

func TestProjectionQuery(t *testing.T) {
	db, ctx := optDB(t, 500, 40)
	o := exactOpt(t, db, ctx)
	q := &Query{
		Tables:  []string{"lineitem"},
		Pred:    testkit.Expr("l_ship < 100"),
		Project: []expr.ColumnRef{{Table: "lineitem", Column: "l_id"}},
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.Fields) != 1 || res.Schema.Fields[0].Column != "l_id" {
		t.Errorf("projected schema = %v", res.Schema)
	}
	_ = db
}

func TestThresholdFlipsPlanChoice(t *testing.T) {
	// The paper's central behavior: near the crossover, a low confidence
	// threshold picks the risky index plan while a high threshold picks
	// the stable scan — from the same sample.
	db, ctx := optDB(t, 30000, 1000) // uncorrelated dates
	syns, err := sample.BuildAll(db, 500, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// A query whose true joint selectivity is a little below the
	// crossover: find windows where roughly 0.15% of rows qualify.
	pred := testkit.Expr("l_ship BETWEEN 0 AND 120 AND l_receipt BETWEEN 0 AND 120")
	truth, err := sample.ExactFraction(db, []string{"lineitem"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 || truth > 0.02 == false {
		// Just informational; the flip assertions below are what matter.
		t.Logf("true selectivity = %g", truth)
	}
	planFor := func(threshold core.ConfidenceThreshold) string {
		est, err := core.NewBayesEstimator(syns, threshold)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(ctx, est)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := o.Optimize(&Query{Tables: []string{"lineitem"}, Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		return plan.Root.Describe()
	}
	low := planFor(0.05)
	high := planFor(0.99)
	if !strings.Contains(low, "IndexIntersect") && !strings.Contains(low, "IndexRangeScan") {
		t.Errorf("T=5%% chose %s, want an index plan", low)
	}
	if !strings.Contains(high, "SeqScan") {
		t.Errorf("T=99%% chose %s, want the sequential scan", high)
	}
}

func TestOptimizerPicksMinEstimatedCost(t *testing.T) {
	// Degenerate estimator that claims everything is empty: the index
	// plan should always be chosen (its estimated cost collapses).
	db, ctx := optDB(t, 5000, 40)
	o, err := New(ctx, &fixedEstimator{db: db, sel: 0})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize(&Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 999 AND l_receipt BETWEEN 0 AND 999"),
	})
	if err != nil {
		t.Fatal(err)
	}
	switch plan.Root.(type) {
	case *engine.IndexIntersect, *engine.IndexRangeScan:
		// Either index plan is consistent with zero estimates; a single
		// range scan wins by paying one seek instead of two.
	default:
		t.Errorf("zero estimator chose %s", plan.Root.Describe())
	}
	// And an all-ones estimator must choose the scan.
	o2, _ := New(ctx, &fixedEstimator{db: db, sel: 1})
	plan2, err := o2.Optimize(&Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 999 AND l_receipt BETWEEN 0 AND 999"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan2.Root.(*engine.SeqScan); !ok {
		t.Errorf("ones estimator chose %s", plan2.Root.Describe())
	}
}

// TestIntRangeFromConjunct: analyze takes a conjunct's sargable integer
// interval from its pushable bound, with saturated open ends. A Float
// literal against an Int column is not sargable, as it is not pushable.
func TestIntRangeFromConjunct(t *testing.T) {
	cat := catalog.NewCatalog()
	if err := cat.AddTable(&catalog.TableSchema{Name: "t", PrimaryKey: "a",
		Columns: []catalog.Column{{Name: "a", Type: catalog.Int}, {Name: "b", Type: catalog.Int}}}); err != nil {
		t.Fatal(err)
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		in     string
		ok     bool
		lo, hi int64
	}{
		{"a BETWEEN 3 AND 9", true, 3, 9},
		{"a = 5", true, 5, 5},
		{"a < 5", true, lo, 4},
		{"a <= 5", true, lo, 5},
		{"a > 5", true, 6, hi},
		{"a >= 5", true, 5, hi},
		{"5 > a", true, lo, 4},
		{"5 <= a", true, 5, hi},
		{"a <> 5", false, 0, 0},
		{"a + 1 < 5", false, 0, 0},
		{"a < 5.5", false, 0, 0},
		{"a = 5.0", false, 0, 0},
		{"a BETWEEN b AND 9", false, 0, 0},
		{"a CONTAINS 'x'", false, 0, 0},
		// At the ends of int64 the interval is exact, and past them it is
		// empty; it never wraps.
		{"a > 9223372036854775807", true, 1, 0},
		{"a < -9223372036854775807", true, lo, lo},
	}
	for _, c := range cases {
		a, err := analyze(cat, &Query{Tables: []string{"t"}, Pred: testkit.Expr(c.in)})
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		conj := a.conjuncts[0]
		if conj.isRange != c.ok {
			t.Errorf("%q: isRange = %v", c.in, conj.isRange)
			continue
		}
		if want := (engine.KeyRange{Column: "a", Lo: c.lo, Hi: c.hi}); c.ok && conj.rng != want {
			t.Errorf("%q: range %v, want %v", c.in, conj.rng, want)
		}
	}
}

func TestConnectedSubsets(t *testing.T) {
	db, ctx := optDB(t, 100, 40)
	o := exactOpt(t, db, ctx)
	a, err := analyze(db.Catalog, &Query{Tables: []string{"lineitem", "orders", "part"}})
	if err != nil {
		t.Fatal(err)
	}
	// lineitem=0, orders=1, part=2. orders+part is disconnected.
	if a.connected(0b110) {
		t.Error("orders+part reported connected")
	}
	if !a.connected(0b011) || !a.connected(0b101) || !a.connected(0b111) {
		t.Error("connected subsets reported disconnected")
	}
	if a.connected(0) {
		t.Error("empty mask connected")
	}
	_ = o
}

func TestCrossTableConjunctGetsFiltered(t *testing.T) {
	db, ctx := optDB(t, 3000, 40)
	o := exactOpt(t, db, ctx)
	// o_total > l_price is a non-join cross-table predicate: it must be
	// enforced by a Filter above the join.
	q := &Query{
		Tables: []string{"lineitem", "orders"},
		Pred:   testkit.Expr("o_total > l_price AND l_ship < 500"),
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sample.ExactFraction(db, q.Tables, q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	want := int(truth*float64(testkit.Table(db, "lineitem").NumRows()) + 0.5)
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d\n%s", len(res.Rows), want, plan.Explain())
	}
}

func TestTooManyTables(t *testing.T) {
	db, ctx := optDB(t, 10, 5)
	o := exactOpt(t, db, ctx)
	tables := make([]string, 17)
	for i := range tables {
		tables[i] = "t"
	}
	if _, err := o.Optimize(&Query{Tables: tables}); err == nil {
		t.Error("17 tables accepted")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db, ctx := optDB(t, 2000, 40)
	o := exactOpt(t, db, ctx)
	q := &Query{
		Tables:  []string{"lineitem"},
		Pred:    testkit.Expr("l_ship < 500"),
		OrderBy: []engine.SortKey{{Col: expr.ColumnRef{Table: "lineitem", Column: "l_price"}, Desc: true}},
		Limit:   10,
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstRows > 10 {
		t.Errorf("EstRows = %g, want <= limit", plan.EstRows)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prIdx, _ := res.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_price"})
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][prIdx].F > res.Rows[i-1][prIdx].F {
			t.Fatal("descending order violated")
		}
	}
	if !strings.Contains(plan.Explain(), "Sort") || !strings.Contains(plan.Explain(), "Limit") {
		t.Errorf("plan missing sort/limit:\n%s", plan.Explain())
	}
}

func TestOrderBySkippedWhenAlreadyOrdered(t *testing.T) {
	db, ctx := optDB(t, 2000, 40)
	o := exactOpt(t, db, ctx)
	// lineitem is declared Ordered by l_id; a bare ascending ORDER BY on
	// it over a plan preserving heap order needs no sort.
	q := &Query{
		Tables:  []string{"lineitem"},
		Pred:    testkit.Expr("l_price < 50"),
		OrderBy: []engine.SortKey{{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}}},
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "Sort") {
		t.Errorf("unnecessary sort:\n%s", plan.Explain())
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	idIdx, _ := res.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_id"})
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][idIdx].I < res.Rows[i-1][idIdx].I {
			t.Fatal("order violated without sort")
		}
	}
}

// TestOrderByKeepsSortOverUnsortedRows: lineitem declares itself ordered
// by l_orderkey, but the rows cycle through the order keys. The planner
// may price merge joins by the declaration; it may not drop the ORDER BY
// sort on it, or the LIMIT returns the first rows in heap order instead
// of the smallest keys.
func TestOrderByKeepsSortOverUnsortedRows(t *testing.T) {
	db, ctx := optDB(t, 2000, 40)
	o := exactOpt(t, db, ctx)
	key := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	q := &Query{
		Tables:  []string{"lineitem"},
		Pred:    testkit.Expr("l_id < 1000"),
		OrderBy: []engine.SortKey{{Col: key}},
		Limit:   8,
		Project: []expr.ColumnRef{{Table: "lineitem", Column: "l_id"}, key},
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	lineitem := testkit.Table(db, "lineitem")
	col := lineitem.Schema().ColumnIndex("l_orderkey")
	var keys []int64
	for r := range 1000 {
		keys = append(keys, lineitem.Value(r, col).I)
	}
	slices.Sort(keys)
	idx, _ := res.Schema.Resolve(key)
	var got []int64
	for _, row := range res.Rows {
		got = append(got, row[idx].I)
	}
	if !slices.Equal(got, keys[:8]) {
		t.Errorf("ORDER BY l_orderkey LIMIT 8 returned keys %v, want %v\n%s", got, keys[:8], plan.Explain())
	}
}

func TestGroupByCardinalityFeedsEstimate(t *testing.T) {
	db, ctx := optDB(t, 5000, 40)
	syns, err := sample.BuildAll(db, 500, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syns, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Tables:  []string{"lineitem"},
		GroupBy: []expr.ColumnRef{{Table: "lineitem", Column: "l_partkey"}},
		Aggs:    []engine.AggSpec{{Func: engine.Count, As: "n"}},
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// l_partkey has 200 distinct values; the GEE estimate should land in
	// the right order of magnitude, far below the 5000 input rows.
	if plan.EstRows < 50 || plan.EstRows > 1000 {
		t.Errorf("group estimate = %g, want near 200", plan.EstRows)
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Errorf("actual groups = %d", len(res.Rows))
	}
}

func TestGrandTotalEstimatesOneRow(t *testing.T) {
	db, ctx := optDB(t, 500, 40)
	o := exactOpt(t, db, ctx)
	plan, err := o.Optimize(&Query{
		Tables: []string{"lineitem"},
		Aggs:   []engine.AggSpec{{Func: engine.Count, As: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstRows != 1 {
		t.Errorf("grand total EstRows = %g", plan.EstRows)
	}
	_ = db
}
