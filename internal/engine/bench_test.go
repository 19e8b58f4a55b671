package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/testkit"
)

// benchPlan is a scan→filter→limit pipeline: the shape where streaming
// execution wins, since the materialized path pays for the whole table
// before the limit discards it.
func benchPlan(n int) Node {
	return &Limit{N: n, Input: &Filter{
		Input: &SeqScan{Table: "lineitem"},
		Pred:  expr.Cmp{Op: expr.GE, L: expr.C("l_ship"), R: expr.IntLit(0)},
	}}
}

// BenchmarkExecStreamVsMaterialize compares the streaming pipeline against
// the materialized reference engine on the same plans, reporting rows/sec
// and allocations. The limit10 pair is the headline: streaming touches one
// batch where materialization builds every intermediate result.
func BenchmarkExecStreamVsMaterialize(b *testing.B) {
	_, ctx := testDB(b, 2000, 3, 10) // 6000 lineitem rows
	run := func(b *testing.B, plan Node, stream bool) {
		b.Helper()
		b.ReportAllocs()
		var rows int64
		for i := 0; i < b.N; i++ {
			var res *Result
			var err error
			if stream {
				res, _, _, err = Run(ctx, plan)
			} else {
				var c cost.Counters
				res, err = ExecuteMaterialized(ctx, plan, &c)
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(len(res.Rows))
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"limit10", 10},
		{"fulldrain", 1 << 30},
	} {
		plan := benchPlan(bc.n)
		b.Run(bc.name+"/stream", func(b *testing.B) { run(b, plan, true) })
		b.Run(bc.name+"/materialized", func(b *testing.B) { run(b, plan, false) })
		// The obs wrapper must stay within a few percent of the bare
		// streaming path; the benchmark of record reports the overhead as
		// obs.instrument_overhead_frac.
		b.Run(bc.name+"/stream-instrumented", func(b *testing.B) { run(b, Instrument(benchPlan(bc.n)), true) })
	}
}

// TestStreamLimitAllocsFarBelowMaterialized pins the streaming path's
// allocations under LIMIT 10, the bar that shows it touches one batch
// where materialization builds every intermediate result. The bar is a
// fixed ceiling, not a ratio to the test-only reference engine, whose
// allocations fall whenever the reference gets leaner: the streaming run
// made 39 allocations, against the reference's 6,253, when the ratio
// was replaced. The headroom over 39 covers pooled batches refilled
// after a GC empties their pool; under -race, which drops pooled batches
// at random, runs made 39 to 45.
func TestStreamLimitAllocsFarBelowMaterialized(t *testing.T) {
	ceiling := 48.0
	if raceEnabled {
		ceiling = 64
	}
	_, ctx := testDB(t, 2000, 3, 10)
	plan := benchPlan(10)
	stream := testing.AllocsPerRun(10, func() {
		if _, _, _, err := Run(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("streaming LIMIT 10 allocated %.0f/run", stream)
	if stream > ceiling {
		t.Errorf("streaming LIMIT 10 allocated %.0f/run; want at most %.0f", stream, ceiling)
	}
}

// BenchmarkScanAggregate is the paper's Experiment-1 shape at the
// benchmark's scale: a global SUM and COUNT(*) over a 240,000-row,
// ship-date-clustered lineitem in four range shards, at DOP 1 and 2. The
// date slice skips most tiles; the qty slice reads every tile and keeps
// about 40% of the rows. The scan emits only l_price, as the optimizer's
// plans do.
func BenchmarkScanAggregate(b *testing.B) {
	ctx := fixture{orders: 80000, lines: 3, parts: 40, shards: 4, clustered: true}.build(b)
	for _, slice := range []struct{ name, filter string }{
		{"date", "l_ship BETWEEN 40 AND 49"},
		{"qty", "l_qty BETWEEN 10 AND 29"},
	} {
		for _, dop := range []int{1, 2} {
			plan := &Aggregate{
				Input: &Exchange{Source: &SeqScan{Table: "lineitem", Filter: testkit.Expr(slice.filter)}, DOP: dop},
				Aggs:  []AggSpec{{Func: Sum, Arg: expr.C("l_price")}, {Func: Count}},
			}
			PruneColumns(ctx, plan) // as the optimizer's plans are
			b.Run(fmt.Sprintf("%s/dop=%d", slice.name, dop), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := Run(ctx, plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
