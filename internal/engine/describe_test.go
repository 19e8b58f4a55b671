package engine

import (
	"errors"
	"strings"
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/testkit"
)

// TestSchemasAndDescriptions exercises Schema and Describe on every node
// type, plus Explain's child traversal, over one composite plan.
func TestSchemasAndDescriptions(t *testing.T) {
	_, ctx := testDB(t, 10, 2, 5)
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	pkey := expr.ColumnRef{Table: "part", Column: "p_partkey"}

	nodes := []struct {
		node      Node
		describe  string
		schemaLen int
	}{
		{&SeqScan{Table: "orders"}, "SeqScan(orders)", 2},
		{&SeqScan{Table: "orders", Filter: testkit.Expr("o_total > 1")}, "filter=", 2},
		{&IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 1, Hi: 2}},
			"IndexRangeScan(lineitem, l_ship in [1, 2])", 8},
		{&IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 1, Hi: 2},
			Residual: testkit.Expr("l_price > 0")}, "residual=", 8},
		{&IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
			{Column: "l_ship", Lo: 1, Hi: 2}, {Column: "l_receipt", Lo: 3, Hi: 4}},
			Residual: testkit.Expr("l_price > 0")}, "l_ship in [1, 2] & l_receipt in [3, 4]", 8},
		{&HashJoin{Build: &SeqScan{Table: "orders"}, Probe: &SeqScan{Table: "lineitem"},
			BuildCol: okey, ProbeCol: lkey}, "HashJoin(orders.o_orderkey = lineitem.l_orderkey)", 10},
		{&MergeJoin{Left: &SeqScan{Table: "orders"}, Right: &SeqScan{Table: "lineitem"},
			LeftCol: okey, RightCol: lkey}, "MergeJoin(orders.o_orderkey = lineitem.l_orderkey)", 10},
		{&INLJoin{Outer: &SeqScan{Table: "lineitem"}, OuterCol: lkey,
			InnerTable: "orders", InnerCol: "o_orderkey",
			Residual: testkit.Expr("o_total > 5")}, "INLJoin(lineitem.l_orderkey = orders.o_orderkey)", 10},
		{&StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{
			Scan: &SeqScan{Table: "part"}, DimPK: pkey, FactFK: "l_partkey"}}},
			"StarSemiJoin(lineitem, 1 dims)", 10},
		{&Filter{Input: &SeqScan{Table: "orders"}, Pred: testkit.Expr("o_total > 1")},
			"Filter(", 2},
		{&Project{Input: &SeqScan{Table: "orders"}, Cols: []expr.ColumnRef{okey}},
			"Project(orders.o_orderkey)", 1},
		{&Aggregate{Input: &SeqScan{Table: "orders"},
			GroupBy: []expr.ColumnRef{okey},
			Aggs: []AggSpec{{Func: Sum, Arg: expr.C("o_total"), As: "s"},
				{Func: Count}}}, "Aggregate(SUM(o_total), COUNT(*) BY orders.o_orderkey)", 3},
		{&Sort{Input: &SeqScan{Table: "orders"},
			By: []SortKey{{Col: okey}, {Col: expr.ColumnRef{Table: "orders", Column: "o_total"}, Desc: true}}},
			"Sort(orders.o_orderkey, orders.o_total DESC)", 2},
		{&Limit{Input: &SeqScan{Table: "orders"}, N: 4}, "Limit(4)", 2},
	}
	for _, c := range nodes {
		if got := c.node.Describe(); !strings.Contains(got, c.describe) {
			t.Errorf("Describe = %q, want substring %q", got, c.describe)
		}
		schema, err := c.node.Schema(ctx)
		if err != nil {
			t.Fatalf("%s: Schema: %v", c.node.Describe(), err)
		}
		if len(schema.Fields) != c.schemaLen {
			t.Errorf("%s: schema width %d, want %d", c.node.Describe(), len(schema.Fields), c.schemaLen)
		}
	}
}

func TestSchemaErrorsPropagate(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	ghost := &SeqScan{Table: "ghost"}
	bad := []Node{
		ghost,
		&IndexRangeScan{Table: "ghost"},
		&IndexIntersect{Table: "ghost"},
		&HashJoin{Build: ghost, Probe: &SeqScan{Table: "orders"}},
		&HashJoin{Build: &SeqScan{Table: "orders"}, Probe: ghost},
		&MergeJoin{Left: ghost, Right: &SeqScan{Table: "orders"}},
		&MergeJoin{Left: &SeqScan{Table: "orders"}, Right: ghost},
		&INLJoin{Outer: ghost, InnerTable: "orders"},
		&INLJoin{Outer: &SeqScan{Table: "orders"}, InnerTable: "ghost"},
		&StarSemiJoin{Fact: "ghost"},
		&StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{Scan: ghost}}},
		&Filter{Input: ghost},
		&Project{Input: ghost},
		&Project{Input: &SeqScan{Table: "orders"}, Cols: []expr.ColumnRef{{Column: "zz"}}},
		&Aggregate{Input: ghost},
		&Aggregate{Input: &SeqScan{Table: "orders"}, GroupBy: []expr.ColumnRef{{Column: "zz"}}},
		&Sort{Input: ghost},
		&Limit{Input: ghost},
	}
	for i, n := range bad {
		if _, err := n.Schema(ctx); err == nil {
			t.Errorf("case %d (%T): Schema succeeded", i, n)
		}
	}
}

func TestExplainCoversAllChildren(t *testing.T) {
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	pkey := expr.ColumnRef{Table: "part", Column: "p_partkey"}
	plan := &Limit{N: 1, Input: &Sort{
		By: []SortKey{{Col: okey}},
		Input: &Project{Cols: []expr.ColumnRef{okey}, Input: &Filter{
			Pred: testkit.Expr("o_total > 0"),
			Input: &MergeJoin{
				LeftCol: okey, RightCol: lkey,
				Left: &SeqScan{Table: "orders"},
				Right: &INLJoin{
					Outer:      &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{Scan: &SeqScan{Table: "part"}, DimPK: pkey, FactFK: "l_partkey"}}},
					OuterCol:   lkey,
					InnerTable: "orders",
					InnerCol:   "o_orderkey",
				},
			},
		}},
	}}
	s := Explain(plan)
	for _, want := range []string{"Limit", "Sort", "Project", "Filter", "MergeJoin", "INLJoin", "StarSemiJoin", "SeqScan(part)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestMergeJoinToleratesMislabelledOrder(t *testing.T) {
	// A plan claiming sorted inputs that are not sorted must still return
	// correct results (correctness over cost attribution).
	_, ctx := testDB(t, 30, 2, 5)
	shuffled := &Sort{ // sort by total to destroy key order
		Input: &SeqScan{Table: "orders"},
		By:    []SortKey{{Col: expr.ColumnRef{Table: "orders", Column: "o_total"}}},
	}
	mj := &MergeJoin{
		Left: shuffled, Right: &SeqScan{Table: "lineitem"},
		LeftCol:    expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		RightCol:   expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		LeftSorted: true, RightSorted: true, // a lie for the left side
	}
	res, _, _, err := Run(ctx, mj)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := Run(ctx, &HashJoin{
		Build: &SeqScan{Table: "orders"}, Probe: &SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, res.Rows, ref.Rows, "mislabelled merge")
}

func TestMergeJoinNonNumericKeyRejected(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	mj := &MergeJoin{
		Left: &SeqScan{Table: "orders"}, Right: &SeqScan{Table: "orders"},
		LeftCol:  expr.ColumnRef{Table: "orders", Column: "o_total"},
		RightCol: expr.ColumnRef{Table: "orders", Column: "o_total"},
	}
	// o_total is Float, and join keys must be Int or Date.
	var ke *joinKeyError
	if _, _, _, err := Run(ctx, mj); !errors.As(err, &ke) {
		t.Errorf("Float merge key: error %v, want a join key error", err)
	}
	mj.LeftCol = expr.ColumnRef{Column: "ghost"}
	if _, _, _, err := Run(ctx, mj); err == nil {
		t.Error("unknown merge key accepted")
	}
	hj := &HashJoin{Build: &SeqScan{Table: "orders"}, Probe: &SeqScan{Table: "orders"},
		BuildCol: expr.ColumnRef{Column: "ghost"}, ProbeCol: expr.ColumnRef{Column: "ghost"}}
	if _, _, _, err := Run(ctx, hj); err == nil {
		t.Error("unknown hash key accepted")
	}
	inl := &INLJoin{Outer: &SeqScan{Table: "orders"}, OuterCol: expr.ColumnRef{Column: "ghost"},
		InnerTable: "lineitem", InnerCol: "l_orderkey"}
	if _, _, _, err := Run(ctx, inl); err == nil {
		t.Error("unknown INL outer key accepted")
	}
}

func TestAggFuncAndKindStrings(t *testing.T) {
	wants := map[AggFunc]string{Sum: "SUM", Count: "COUNT", Min: "MIN", Max: "MAX", Avg: "AVG"}
	for f, w := range wants {
		if f.String() != w {
			t.Errorf("%v.String() = %q", w, f.String())
		}
	}
	if !strings.Contains(AggFunc(42).String(), "42") {
		t.Error("unknown AggFunc string")
	}
	if (KeyRange{Column: "c", Lo: 1, Hi: 2}).String() != "c in [1, 2]" {
		t.Error("KeyRange string")
	}
}
