package engine

import (
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// TestHashJoinPresizeMetrics pins the build metrics: every hash-join
// build counts once, whether the join probes a serial scan or an
// Exchange, and a direct-addressed one counts once more. lineitem's
// l_orderkey spans 3,000 values over 9,000 build rows, so its table is
// dense; four orders at the two ends of the same span are hashed.
func TestHashJoinPresizeMetrics(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 40) // 3000 orders, 9000 lineitem
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	join := func(probe Node) Node {
		return &HashJoin{
			Build: &SeqScan{Table: "lineitem"}, Probe: probe,
			BuildCol: col("lineitem", "l_orderkey"), ProbeCol: col("orders", "o_orderkey"),
		}
	}
	orders := &SeqScan{Table: "orders"}
	ends := &HashJoin{
		Build: &SeqScan{Table: "orders", Filter: expr.Or{Terms: []expr.Expr{
			expr.Cmp{Op: expr.LT, L: expr.C("o_orderkey"), R: expr.IntLit(2)},
			expr.Cmp{Op: expr.GT, L: expr.C("o_orderkey"), R: expr.IntLit(2997)},
		}}},
		Probe:    &SeqScan{Table: "lineitem"},
		BuildCol: col("orders", "o_orderkey"), ProbeCol: col("lineitem", "l_orderkey"),
	}
	for _, tc := range []struct {
		plan  Node
		dense int64
	}{{join(orders), 1}, {join(&Exchange{Source: orders, DOP: 4}), 1}, {ends, 0}} {
		reg := obs.NewRegistry()
		ctx.Metrics = reg
		_, _, _, err := Run(ctx, tc.plan)
		ctx.Metrics = nil
		if err != nil {
			t.Fatal(err)
		}
		if v := reg.Counter("robustqo_hashjoin_builds_total").Value(); v != 1 {
			t.Errorf("%s: builds = %d, want 1", tc.plan.Describe(), v)
		}
		if v := reg.Counter("robustqo_hashjoin_dense_builds_total").Value(); v != tc.dense {
			t.Errorf("%s: dense builds = %d, want %d", tc.plan.Describe(), v, tc.dense)
		}
	}
}

// TestMorselProbeAllocs pins the allocation discipline of a hash join
// probing a parallel scan, the one parallel join plan: the Exchange's
// workers fill pooled morsel batches and the join gathers each one's
// matches column-wise into its pooled output batch, so a full drain
// through the operator — build, Exchange start-up and barrier included —
// allocates for column growth and nothing per match. The ceiling is one
// allocation per eight output rows; the first parallel join (found by
// qolint's hotalloc analyzer) built one value.Row per match and exceeded
// one per row.
func TestMorselProbeAllocs(t *testing.T) {
	_, ctx := testDB(t, 4000, 4, 40)
	node := &HashJoin{
		Build:    &SeqScan{Table: "orders"},
		Probe:    &Exchange{Source: &SeqScan{Table: "lineitem"}, DOP: 2},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	const wantRows = 4000 * 4
	allocs := testing.AllocsPerRun(5, func() {
		n, err := drainJoin(ctx, node.Stream())
		if err != nil {
			t.Fatal(err)
		}
		if n != wantRows {
			t.Fatalf("drained %d joined rows, want %d", n, wantRows)
		}
	})
	if ceiling := float64(wantRows) / 8; allocs > ceiling {
		t.Fatalf("parallel probe drain allocs %.0f, want <= %.0f (pooled batches, not per-row)", allocs, ceiling)
	}
	t.Logf("allocs per full drain: %.0f for %d joined rows", allocs, wantRows)
}
