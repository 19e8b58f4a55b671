package engine

import (
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// TestHashJoinPresizeMetrics pins the build metric: every hash-join build
// counts once, whether the join probes a serial scan or an Exchange.
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
	for _, n := range []Node{join(orders), join(&Exchange{Source: orders, DOP: 4})} {
		reg := obs.NewRegistry()
		ctx.Metrics = reg
		_, _, _, err := Run(ctx, n)
		ctx.Metrics = nil
		if err != nil {
			t.Fatal(err)
		}
		if v := reg.Counter("robustqo_hashjoin_builds_total").Value(); v != 1 {
			t.Errorf("%s: builds = %d, want 1", n.Describe(), v)
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
