package engine_test

// Wall-clock benchmarks of the row store's two hot operators on the
// TPC-H-like data the serve workloads run against: the filter-first
// SeqScan window and the merge join over an input declared sorted that is
// not (lineitem's l_orderkey is assigned cyclically).

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

// BenchmarkSeqScanRows scans all of lineitem on the row path, with the
// dashboard's l_quantity filter (about half the rows survive) and with
// none.
func BenchmarkSeqScanRows(b *testing.B) {
	ctx := tpchContext(b)
	for _, bc := range []struct {
		name   string
		filter expr.Expr
	}{
		{"quantity<25", testkit.Expr("l_quantity < 25")},
		{"nofilter", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runPlan(b, ctx, &engine.SeqScan{Table: "lineitem", Filter: bc.filter}, benchLines)
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
