package engine

import (
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// TestHashJoinPresizeMetrics pins the build metric: every hash-join build
// counts once, serial or under an Exchange, whose one build on the
// coordinator every probe worker shares.
func TestHashJoinPresizeMetrics(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 40) // 3000 orders, 9000 lineitem
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	join := &HashJoin{
		Build: &SeqScan{Table: "lineitem"}, Probe: &SeqScan{Table: "orders"},
		BuildCol: col("lineitem", "l_orderkey"), ProbeCol: col("orders", "o_orderkey"),
	}
	for _, n := range []Node{join, &Exchange{Source: join, DOP: 4}} {
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

// TestMorselProbeAllocs pins the allocation discipline of the parallel
// join path on the batch contract: a worker joins each probe window
// column-wise into a pooled morsel batch, so a full drain allocates for
// column growth of fresh batches and nothing per match. The ceiling is one
// allocation per eight output rows; the first morsel worker (found by
// qolint's hotalloc analyzer) built one value.Row per match and exceeded
// one per row.
func TestMorselProbeAllocs(t *testing.T) {
	_, ctx := testDB(t, 4000, 4, 40)
	node := &HashJoin{
		Build:    &SeqScan{Table: "orders"},
		Probe:    &SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	var c cost.Counters
	runner, err := node.openMorsels(ctx, &c)
	if err != nil {
		t.Fatal(err)
	}
	w, err := runner.newWorker()
	if err != nil {
		t.Fatal(err)
	}
	defer w.release()
	const wantRows = 4000 * 4
	allocs := testing.AllocsPerRun(5, func() {
		total := 0
		for m := 0; m < runner.numMorsels(); m++ {
			res := runMorsel(runner, w, m, &c)
			if res.err != nil {
				t.Fatal(res.err)
			}
			total += res.b.Len()
			putBatch(res.b)
		}
		if total != wantRows {
			t.Fatalf("drained %d joined rows, want %d", total, wantRows)
		}
	})
	if ceiling := float64(wantRows) / 8; allocs > ceiling {
		t.Fatalf("parallel probe drain allocs %.0f, want <= %.0f (pooled batches, not per-row)", allocs, ceiling)
	}
	t.Logf("allocs per full drain: %.0f for %d joined rows", allocs, wantRows)
}
