package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// TestJoinDifferentialDOPProperty extends the differential corpus with
// join-heavy pipelines: 40 randomized trials cycling through parallel
// hash-join pipelines (single joins, multi-way FK chains, serial joins
// over parallel inner pipelines), StarSemiJoin with parallel dimension
// arms, and MergeJoin over parallel pre-sorted inputs. Every trial runs
// serially, through ExecuteMaterialized at DOP 4, and streaming at DOP
// 1/2/4, and requires byte-identical row order and cost.Counters across
// all of them.
func TestJoinDifferentialDOPProperty(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 40)
	rng := stats.NewRNG(4242)
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }

	for trial := 0; trial < 40; trial++ {
		shipLo := int64(testkit.Intn(rng, 50))
		shipHi := shipLo + int64(testkit.Intn(rng, 50))
		total := float64(testkit.Intn(rng, 1000))
		size := int64(testkit.Intn(rng, 50))
		// Some trials carry a posterior-style build estimate (orders rows
		// that pass the total filter, roughly total/1000 selectivity) so
		// pre-sizing runs under the differential microscope too; others
		// leave it zero like a hand-built plan.
		var est float64
		if trial%2 == 0 {
			est = 3000 * total / 1000
		}

		lineFilter := testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", shipLo, shipHi))
		ordFilter := testkit.Expr(fmt.Sprintf("o_total < %g", total))
		partFilter := testkit.Expr(fmt.Sprintf("p_size < %d", size))

		build := func(dop int) Node {
			wrap := func(n Node) Node {
				if dop == 0 {
					return n
				}
				return &Exchange{Source: n, DOP: dop}
			}
			lineScan := &SeqScan{Table: "lineitem", Filter: lineFilter}
			ordScan := &SeqScan{Table: "orders", Filter: ordFilter}
			partScan := &SeqScan{Table: "part", Filter: partFilter}
			innerJoin := func() *HashJoin {
				return &HashJoin{
					Build: ordScan, Probe: lineScan,
					BuildCol: col("orders", "o_orderkey"), ProbeCol: col("lineitem", "l_orderkey"),
					BuildRowsEst: est,
				}
			}
			switch trial % 5 {
			case 0:
				// Whole scan→hashjoin pipeline under one Exchange.
				return wrap(innerJoin())
			case 1:
				// Multi-way FK chain: part ⋈ (orders ⋈ lineitem), the whole
				// chain morselized together.
				return wrap(&HashJoin{
					Build: partScan, Probe: innerJoin(),
					BuildCol: col("part", "p_partkey"), ProbeCol: col("lineitem", "l_partkey"),
				})
			case 2:
				// Serial outer join probing a parallel inner pipeline.
				return &HashJoin{
					Build: partScan, Probe: wrap(innerJoin()),
					BuildCol: col("part", "p_partkey"), ProbeCol: col("lineitem", "l_partkey"),
				}
			case 3:
				// Star strategy with a parallel dimension arm.
				return &StarSemiJoin{
					Fact: "lineitem",
					Dims: []StarDim{{
						Scan:   wrap(partScan),
						DimPK:  col("part", "p_partkey"),
						FactFK: "l_partkey",
					}},
					Residual: testkit.Expr("l_price >= 1"),
				}
			default:
				// MergeJoin over parallel inputs that genuinely are ordered
				// by their join keys (append order), so the alreadySorted
				// hints hold and no sort is charged.
				return &MergeJoin{
					Left:    wrap(ordScan),
					Right:   wrap(lineScan),
					LeftCol: col("orders", "o_orderkey"), RightCol: col("lineitem", "l_orderkey"),
					LeftSorted: true, RightSorted: true,
				}
			}
		}

		serial, sc, _, err := Run(ctx, build(0))
		if err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		var mc cost.Counters
		mat, err := ExecuteMaterialized(ctx, build(4), &mc)
		if err != nil {
			t.Fatalf("trial %d: materialized: %v", trial, err)
		}
		mc.Output += int64(len(mat.Rows)) // Run charges the root's output; the reference does not
		if len(mat.Rows) != len(serial.Rows) {
			t.Fatalf("trial %d: materialized %d rows, serial %d", trial, len(mat.Rows), len(serial.Rows))
		}
		for i := range mat.Rows {
			if rowKey(mat.Rows[i]) != rowKey(serial.Rows[i]) {
				t.Fatalf("trial %d: materialized row %d = %v, serial %v", trial, i, mat.Rows[i], serial.Rows[i])
			}
		}
		if mc != sc {
			t.Fatalf("trial %d: materialized counters diverged:\nmat    %+v\nserial %+v", trial, mc, sc)
		}
		for _, dop := range []int{1, 2, 4} {
			res, c, _, err := Run(ctx, build(dop))
			if err != nil {
				t.Fatalf("trial %d dop %d: %v", trial, dop, err)
			}
			if len(res.Rows) != len(serial.Rows) {
				t.Fatalf("trial %d dop %d: %d rows, serial %d", trial, dop, len(res.Rows), len(serial.Rows))
			}
			for i := range res.Rows {
				if rowKey(res.Rows[i]) != rowKey(serial.Rows[i]) {
					t.Fatalf("trial %d dop %d: row %d = %v, serial %v", trial, dop, i, res.Rows[i], serial.Rows[i])
				}
			}
			if c != sc {
				t.Fatalf("trial %d dop %d: counters diverged:\nparallel %+v\nserial   %+v", trial, dop, c, sc)
			}
		}
	}
}

// TestHashJoinPresizeMetrics pins the posterior-driven pre-sizing
// contract: an estimate within 2x of the actual build size records a
// pre-size hit and zero modeled rehashes; a wild underestimate (and an
// unsized hand-built plan) records rehashes; a DOP>1 pipeline over a
// build past the partition threshold records a partitioned build.
func TestHashJoinPresizeMetrics(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 40) // 3000 orders, 9000 lineitem
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	join := func(est float64) *HashJoin {
		return &HashJoin{
			Build: &SeqScan{Table: "orders"}, Probe: &SeqScan{Table: "lineitem"},
			BuildCol: col("orders", "o_orderkey"), ProbeCol: col("lineitem", "l_orderkey"),
			BuildRowsEst: est,
		}
	}
	run := func(n Node) *obs.Registry {
		t.Helper()
		reg := obs.NewRegistry()
		ctx.Metrics = reg
		defer func() { ctx.Metrics = nil }()
		if _, _, _, err := Run(ctx, n); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	// Estimate at 0.6x actual: within the 2x headroom, so zero rehashes.
	reg := run(join(0.6 * 3000))
	if v := reg.Counter("robustqo_hashjoin_presize_hits_total").Value(); v != 1 {
		t.Errorf("presize hits = %d, want 1", v)
	}
	if v := reg.Counter("robustqo_hashjoin_rehashes_total").Value(); v != 0 {
		t.Errorf("rehashes = %d, want 0 with estimate within 2x", v)
	}
	if v := reg.Counter("robustqo_hashjoin_builds_total").Value(); v != 1 {
		t.Errorf("builds = %d, want 1", v)
	}

	// Wild underestimate: growth is modeled and exported.
	reg = run(join(10))
	if v := reg.Counter("robustqo_hashjoin_rehashes_total").Value(); v == 0 {
		t.Error("underestimated build recorded no rehashes")
	}
	if v := reg.Counter("robustqo_hashjoin_presize_hits_total").Value(); v != 0 {
		t.Errorf("presize hits = %d on an underestimated build, want 0", v)
	}

	// Unsized (hand-built) plan: grows from the minimum capacity.
	reg = run(join(0))
	if v := reg.Counter("robustqo_hashjoin_rehashes_total").Value(); v == 0 {
		t.Error("unsized build recorded no rehashes")
	}

	// A parallel pipeline whose build clears the partition threshold
	// records a partitioned build. lineitem (9000 rows) is the build here.
	big := &Exchange{
		Source: &HashJoin{
			Build: &SeqScan{Table: "lineitem"}, Probe: &SeqScan{Table: "orders"},
			BuildCol: col("lineitem", "l_orderkey"), ProbeCol: col("orders", "o_orderkey"),
			BuildRowsEst: 9000,
		},
		DOP: 4,
	}
	reg = run(big)
	if v := reg.Counter("robustqo_hashjoin_parallel_builds_total").Value(); v != 1 {
		t.Errorf("parallel builds = %d, want 1", v)
	}
	if v := reg.Counter("robustqo_hashjoin_rehashes_total").Value(); v != 0 {
		t.Errorf("rehashes = %d on an exact estimate, want 0", v)
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
	runner, err := node.openMorsels(ctx, &c, 1)
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
			b, err := runMorsel(runner, w, m, &c)
			if err != nil {
				t.Fatal(err)
			}
			total += b.Len()
			putBatch(b)
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
