package engine_test

// Wall-clock benchmarks of the columnar engine's hot operators on the
// TPC-H-like data the serve workloads run against: the filter-first
// SeqScan window and the merge join over an input declared sorted that is
// not (lineitem's l_orderkey is assigned cyclically).
// BenchmarkSeqScanClustered measures zone-map tile skipping on
// ship-date-clustered, partitioned data, and BenchmarkPipelineBreakers the
// serve.dashboard plans' joins, aggregates and top-K sort.

import (
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/testkit"
	"robustqo/internal/tpch"
)

// benchLines is the lineitem size of the serve workloads.
const benchLines = 60000

func tpchContext(b *testing.B) *engine.Context {
	b.Helper()
	db, err := tpch.Generate(tpch.Config{Lines: benchLines, Seed: 2005})
	if err != nil {
		b.Fatal(err)
	}
	return &engine.Context{DB: db}
}

// runPlan pulls plan's stream dry b.N times, without copying its batches
// out, and reports ns per input row.
func runPlan(b *testing.B, ctx *engine.Context, plan engine.Node, inputRows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counters cost.Counters
		op := plan.Stream()
		if err := op.Open(ctx, &counters); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := op.Next()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		op.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inputRows), "ns/row")
}

// BenchmarkSeqScanRows scans all of lineitem on the row path: with the
// dashboard's l_quantity filter (about half the rows survive), with none,
// and with Experiment 1's two 91-day date ranges, whose pushable prefix
// runs on the typed payloads — once more over lineitem range-partitioned
// into 4 shards, where an unpruned scan's windows straddle shard
// boundaries.
func BenchmarkSeqScanRows(b *testing.B) {
	ctx := tpchContext(b)
	db, err := tpch.Generate(tpch.Config{Lines: benchLines, Seed: 2005, Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	sharded := &engine.Context{DB: db}
	exp1 := tpch.Experiment1Predicate(30)
	for _, bc := range []struct {
		name   string
		ctx    *engine.Context
		filter expr.Expr
	}{
		{"quantity<25", ctx, testkit.Expr("l_quantity < 25")},
		{"nofilter", ctx, nil},
		{"exp1", ctx, exp1},
		{"exp1-4shards", sharded, exp1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runPlan(b, bc.ctx, &engine.SeqScan{Table: "lineitem", Filter: bc.filter}, benchLines)
		})
	}
}

// BenchmarkSeqScanClustered scans ship-date-clustered lineitem in 4
// shards under the five filter shapes of the scan.columnar workload: a
// 30-day ship-date slice, whose zones skip most tiles, l_quantity ranges
// keeping 16% and 40% of rows, and two filters with no pushable prefix.
func BenchmarkSeqScanClustered(b *testing.B) {
	db, err := tpch.Generate(tpch.Config{Lines: benchLines, Seed: 2005, ClusterDates: true, Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	ctx := &engine.Context{DB: db}
	for _, bc := range []struct{ name, filter string }{
		{"shipdate30d", "l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-30'"},
		{"quantity16pct", "l_quantity BETWEEN 11 AND 18"},
		{"quantity40pct", "l_quantity BETWEEN 11 AND 30"},
		{"quantity<>7", "l_quantity <> 7"},
		{"price<f", "l_extendedprice < 50900.005"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runPlan(b, ctx, &engine.SeqScan{Table: "lineitem", Filter: testkit.Expr(bc.filter)}, benchLines)
		})
	}
}

// BenchmarkMergeJoinUnsorted joins lineitem to orders on l_orderkey as
// the planner does, with both inputs declared sorted: the lineitem side
// arrives out of order and is sorted on every execution.
func BenchmarkMergeJoinUnsorted(b *testing.B) {
	ctx := tpchContext(b)
	plan := &engine.MergeJoin{
		Left:       &engine.SeqScan{Table: "lineitem"},
		Right:      &engine.SeqScan{Table: "orders"},
		LeftCol:    expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		RightCol:   expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		LeftSorted: true, RightSorted: true,
	}
	runPlan(b, ctx, plan, benchLines+benchLines/4)
}

// BenchmarkMergeJoinPruned counts lineitem ⋈ orders, the dashboard's
// two-table join shape, with every column carried (identity) and with the
// projections PruneColumns stamps: each side emits only its join key.
func BenchmarkMergeJoinPruned(b *testing.B) {
	ctx := tpchContext(b)
	plan := func() engine.Node {
		return &engine.Aggregate{
			Input: &engine.MergeJoin{
				Left:       &engine.SeqScan{Table: "lineitem"},
				Right:      &engine.SeqScan{Table: "orders"},
				LeftCol:    expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
				RightCol:   expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
				LeftSorted: true, RightSorted: true,
			},
			Aggs: []engine.AggSpec{{Func: engine.Count, As: "n"}},
		}
	}
	b.Run("identity", func(b *testing.B) {
		runPlan(b, ctx, plan(), benchLines+benchLines/4)
	})
	b.Run("pruned", func(b *testing.B) {
		pruned := plan()
		engine.PruneColumns(ctx, pruned)
		runPlan(b, ctx, pruned, benchLines+benchLines/4)
	})
}

// BenchmarkPipelineBreakers runs the dashboard's pipeline-breaker shapes
// with the projections PruneColumns stamps, reporting ns per lineitem row:
// the two- and three-way merge joins under COUNT and SUM, a global
// COUNT(*), a global SUM over a 40% l_quantity range, a GROUP BY over an
// Int key with COUNT(*) and with SUM, MIN, MAX and AVG of a Float column,
// a global SUM of a computed argument under a Filter, and a top-10 sort;
// then a full sort, a GROUP BY over l_orderkey's 15,000 groups, an
// INLJoin into orders by primary key and into lineitem through the
// l_partkey index, and a StarSemiJoin of lineitem with part.
func BenchmarkPipelineBreakers(b *testing.B) {
	ctx, err := engine.NewContext(tpchContext(b).DB)
	if err != nil {
		b.Fatal(err)
	}
	scan := func(table, filter string) engine.Node {
		s := &engine.SeqScan{Table: table}
		if filter != "" {
			s.Filter = testkit.Expr(filter)
		}
		return s
	}
	ref := func(table, column string) expr.ColumnRef { return expr.ColumnRef{Table: table, Column: column} }
	count := engine.AggSpec{Func: engine.Count, As: "n"}
	// threeWay is (part ⋈ lineitem) ⋈ orders, as the planner builds it.
	threeWay := func(partFilter, lineFilter string) engine.Node {
		return &engine.Filter{Pred: testkit.Expr("l_orderkey = o_orderkey"), Input: &engine.MergeJoin{
			Left: &engine.Filter{Pred: testkit.Expr("l_partkey = p_partkey"), Input: &engine.HashJoin{
				Build: scan("part", partFilter), Probe: scan("lineitem", lineFilter),
				BuildCol: ref("part", "p_partkey"), ProbeCol: ref("lineitem", "l_partkey"),
			}},
			Right:   scan("orders", ""),
			LeftCol: ref("lineitem", "l_orderkey"), RightCol: ref("orders", "o_orderkey"),
			LeftSorted: true, RightSorted: true,
		}}
	}
	for _, bc := range []struct {
		name string
		plan func() engine.Node
	}{
		{"join2-count", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{count}, Input: &engine.Filter{
				Pred: testkit.Expr("l_orderkey = o_orderkey"), Input: &engine.MergeJoin{
					Left: scan("orders", "o_totalprice < 50000"), Right: scan("lineitem", "l_quantity >= 14"),
					LeftCol: ref("orders", "o_orderkey"), RightCol: ref("lineitem", "l_orderkey"),
					LeftSorted: true, RightSorted: true,
				}}}
		}},
		{"join3-count", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{count}, Input: threeWay("p_size < 20", "l_quantity < 30")}
		}},
		{"join3-sum", func() engine.Node {
			return &engine.Aggregate{Input: threeWay("p_attr1 < 500 AND p_attr2 BETWEEN 100 AND 499", ""),
				Aggs: []engine.AggSpec{{Func: engine.Sum, Arg: testkit.Expr("l_extendedprice"), As: "s"}, count}}
		}},
		{"count", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{count}, Input: scan("lineitem", "l_quantity < 25")}
		}},
		{"sum", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{{Func: engine.Sum, Arg: testkit.Expr("l_extendedprice"), As: "s"}},
				Input: scan("lineitem", "l_quantity BETWEEN 11 AND 30")}
		}},
		{"group-quantity", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{count}, GroupBy: []expr.ColumnRef{ref("lineitem", "l_quantity")},
				Input: scan("lineitem", "l_shipdate < DATE '1995-06-01'")}
		}},
		{"group-sum", func() engine.Node {
			price := testkit.Expr("l_extendedprice")
			return &engine.Aggregate{GroupBy: []expr.ColumnRef{ref("lineitem", "l_quantity")}, Input: scan("lineitem", ""),
				Aggs: []engine.AggSpec{{Func: engine.Sum, Arg: price, As: "s"}, {Func: engine.Min, Arg: price, As: "lo"},
					{Func: engine.Max, Arg: price, As: "hi"}, {Func: engine.Avg, Arg: price, As: "avg"}}}
		}},
		{"sum-computed", func() engine.Node {
			return &engine.Aggregate{Aggs: []engine.AggSpec{{Func: engine.Sum, Arg: testkit.Expr("l_extendedprice * l_quantity"), As: "s"}},
				Input: &engine.Filter{Pred: testkit.Expr("l_quantity BETWEEN 11 AND 30"), Input: scan("lineitem", "")}}
		}},
		{"top10-price", func() engine.Node {
			return &engine.Project{Cols: []expr.ColumnRef{ref("lineitem", "l_id"), ref("lineitem", "l_extendedprice")},
				Input: &engine.Limit{N: 10, Input: &engine.Sort{TopK: 10,
					By:    []engine.SortKey{{Col: ref("lineitem", "l_extendedprice"), Desc: true}},
					Input: scan("lineitem", "l_quantity < 15")}}}
		}},
		{"sort-full", func() engine.Node {
			return &engine.Sort{By: []engine.SortKey{{Col: ref("lineitem", "l_extendedprice"), Desc: true}, {Col: ref("lineitem", "l_id")}},
				Input: scan("lineitem", "l_quantity < 15")}
		}},
		{"group-orderkey", func() engine.Node {
			return &engine.Aggregate{GroupBy: []expr.ColumnRef{ref("lineitem", "l_orderkey")}, Input: scan("lineitem", ""),
				Aggs: []engine.AggSpec{count, {Func: engine.Sum, Arg: testkit.Expr("l_extendedprice"), As: "s"}}}
		}},
		{"inl-pk", func() engine.Node {
			return &engine.INLJoin{Outer: scan("lineitem", "l_quantity < 15"), OuterCol: ref("lineitem", "l_orderkey"),
				InnerTable: "orders", InnerCol: "o_orderkey", Residual: testkit.Expr("o_totalprice < 200000")}
		}},
		{"inl-fk", func() engine.Node {
			return &engine.INLJoin{Outer: scan("part", "p_size < 10"), OuterCol: ref("part", "p_partkey"),
				InnerTable: "lineitem", InnerCol: "l_partkey", Residual: testkit.Expr("l_quantity < 25")}
		}},
		{"star", func() engine.Node {
			return &engine.StarSemiJoin{Fact: "lineitem", Residual: testkit.Expr("l_quantity < 25"),
				Dims: []engine.StarDim{{Scan: scan("part", "p_size < 10"), DimPK: ref("part", "p_partkey"), FactFK: "l_partkey"}}}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan := bc.plan()
			engine.PruneColumns(ctx, plan)
			runPlan(b, ctx, plan, benchLines)
		})
	}
}
