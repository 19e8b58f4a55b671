package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
)

// TestLimitStopsScanEarly is the point of the streaming refactor: a LIMIT
// above a sequential scan must stop pulling batches once it has its rows,
// leaving the tail of the table unread and uncharged.
func TestLimitStopsScanEarly(t *testing.T) {
	// 3000 lineitem rows — several BatchSize pulls worth.
	db, ctx := testDB(t, 1000, 3, 10)
	_ = db
	plan := &Limit{N: 10, Input: &SeqScan{Table: "lineitem"}}
	res, counters, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	// One batch pull covers at most BatchSize rows and their pages.
	maxPages := int64((BatchSize + storage.TuplesPerPage - 1) / storage.TuplesPerPage)
	if counters.SeqPages > maxPages {
		t.Errorf("limit pulled %d sequential pages, want <= %d (one batch)", counters.SeqPages, maxPages)
	}
	if counters.Tuples > BatchSize {
		t.Errorf("limit read %d tuples, want <= %d (one batch)", counters.Tuples, BatchSize)
	}
	// The materialized engine, by construction, pays for the whole table.
	var full cost.Counters
	if _, err := ExecuteMaterialized(ctx, plan, &full); err != nil {
		t.Fatal(err)
	}
	if full.SeqPages <= counters.SeqPages {
		t.Errorf("materialized scanned %d pages, streaming %d; expected streaming to read strictly less",
			full.SeqPages, counters.SeqPages)
	}
}

// TestLimitZeroPullsNothing: LIMIT 0 must not open-charge any scan work.
func TestLimitZeroPullsNothing(t *testing.T) {
	_, ctx := testDB(t, 50, 2, 5)
	res, counters, _, err := Run(ctx, &Limit{N: 0, Input: &SeqScan{Table: "lineitem"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("got %d rows, want 0", len(res.Rows))
	}
	if counters.SeqPages != 0 || counters.Tuples != 0 {
		t.Errorf("limit 0 still charged SeqPages=%d Tuples=%d", counters.SeqPages, counters.Tuples)
	}
}

// TestLimitEarlyTerminationThroughJoin: the early stop must propagate
// through streaming (non-breaking) operators, here an indexed nested-loop
// join, so only a prefix of the outer side is probed.
func TestLimitEarlyTerminationThroughJoin(t *testing.T) {
	_, ctx := testDB(t, 2000, 2, 10)
	plan := func() *INLJoin {
		return &INLJoin{
			Outer:      &SeqScan{Table: "lineitem"},
			OuterCol:   expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
			InnerTable: "orders",
			InnerCol:   "o_orderkey",
		}
	}
	_, full, _, err := Run(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	res, limited, _, err := Run(ctx, &Limit{N: 5, Input: plan()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if limited.RandPages >= full.RandPages {
		t.Errorf("limited join probed %d random pages, full drain %d; expected strictly fewer",
			limited.RandPages, full.RandPages)
	}
}

// TestTopKMatchesFullSort: a bounded top-K sort must return exactly the
// first K rows of the full stable sort — including tie order — while
// charging the same SortTuples (every input row participates either way).
func TestTopKMatchesFullSort(t *testing.T) {
	_, ctx := testDB(t, 200, 3, 10)
	// l_ship has ~100 distinct values over 600 rows: plenty of ties.
	by := [][]SortKey{
		{{Col: expr.C("l_ship").Ref}},
		{{Col: expr.C("l_ship").Ref, Desc: true}},
		{{Col: expr.C("l_ship").Ref}, {Col: expr.C("l_receipt").Ref, Desc: true}},
	}
	for bi, keys := range by {
		for _, k := range []int{1, 7, 64, 600, 5000} {
			input := func() Node { return &SeqScan{Table: "lineitem"} }
			full, fullC, _, err := Run(ctx, &Sort{Input: input(), By: keys})
			if err != nil {
				t.Fatal(err)
			}
			top, topC, _, err := Run(ctx, &Sort{Input: input(), By: keys, TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			want := full.Rows
			if len(want) > k {
				want = want[:k]
			}
			label := fmt.Sprintf("keys %d top %d", bi, k)
			if len(top.Rows) != len(want) {
				t.Fatalf("%s: got %d rows, want %d", label, len(top.Rows), len(want))
			}
			for i := range want {
				if rowKey(top.Rows[i]) != rowKey(want[i]) {
					t.Fatalf("%s: row %d = %v, want %v (tie order must match the stable sort)",
						label, i, top.Rows[i], want[i])
				}
			}
			// Run charges each root's returned rows as output; the sort work
			// beneath must be identical.
			fullC.Output -= int64(len(full.Rows))
			topC.Output -= int64(len(top.Rows))
			if fullC != topC {
				t.Errorf("%s: counters diverged: full %+v top-k %+v", label, fullC, topC)
			}
		}
	}
}

// streamEquivalencePlans enumerates one plan per operator shape for the
// streaming-vs-materialized drains.
func streamEquivalencePlans(cut float64) map[string]Node {
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	filter := expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}
	ship := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(10), Hi: expr.IntLit(40)}
	return map[string]Node{
		"seqscan":   &SeqScan{Table: "lineitem", Filter: ship},
		"rangescan": &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 10, Hi: 40}},
		"intersect": &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
			{Column: "l_ship", Lo: 10, Hi: 40}, {Column: "l_receipt", Lo: 12, Hi: 45}}},
		"filter":  &Filter{Input: &SeqScan{Table: "orders"}, Pred: filter},
		"project": &Project{Input: &SeqScan{Table: "lineitem", Filter: ship}, Cols: []expr.ColumnRef{expr.C("l_price").Ref, expr.C("l_ship").Ref}},
		"hashjoin": &HashJoin{Build: &SeqScan{Table: "orders", Filter: filter},
			Probe: &SeqScan{Table: "lineitem"}, BuildCol: okey, ProbeCol: lkey},
		"mergejoin": &MergeJoin{Left: &SeqScan{Table: "orders", Filter: filter},
			Right: &SeqScan{Table: "lineitem", Filter: ship}, LeftCol: okey, RightCol: lkey},
		"inljoin": &INLJoin{Outer: &SeqScan{Table: "lineitem", Filter: ship},
			OuterCol: lkey, InnerTable: "orders", InnerCol: "o_orderkey", Residual: filter},
		// Secondary-index probes whose residual rejects part of each outer
		// batch's matches.
		"inljoin-index": &INLJoin{Outer: &SeqScan{Table: "part"},
			OuterCol: expr.ColumnRef{Table: "part", Column: "p_partkey"}, InnerTable: "lineitem", InnerCol: "l_partkey",
			Residual: ship},
		"sort": &Sort{Input: &SeqScan{Table: "lineitem", Filter: ship},
			By: []SortKey{{Col: expr.C("l_receipt").Ref}, {Col: expr.C("l_id").Ref, Desc: true}}},
		"aggregate": &Aggregate{Input: &SeqScan{Table: "lineitem"},
			GroupBy: []expr.ColumnRef{expr.C("l_orderkey").Ref},
			Aggs: []AggSpec{{Func: Count}, {Func: Sum, Arg: expr.C("l_price")},
				{Func: Min, Arg: expr.C("l_ship")}, {Func: Max, Arg: expr.C("l_receipt")}}},
		"limit": &Limit{N: 1 << 30, Input: &SeqScan{Table: "lineitem"}},
		"star": &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{
			Scan:   &SeqScan{Table: "part", Filter: expr.Cmp{Op: expr.LT, L: expr.C("p_size"), R: expr.IntLit(25)}},
			DimPK:  expr.ColumnRef{Table: "part", Column: "p_partkey"},
			FactFK: "l_partkey"}}},
		"star-residual": &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{
			Scan:   &SeqScan{Table: "part"},
			DimPK:  expr.ColumnRef{Table: "part", Column: "p_partkey"},
			FactFK: "l_partkey"}},
			Residual: expr.Conj(
				expr.Cmp{Op: expr.LT, L: expr.C("l_price"), R: expr.IntLit(50)},
				expr.Cmp{Op: expr.GT, L: expr.C("l_ship"), R: expr.C("p_size")})},
	}
}

// TestFullDrainCountersByteIdentical holds the streaming engine to the
// issue's acceptance bar: on full drains every operator must produce the
// same rows, in the same order, with byte-identical cost.Counters as the
// materialized reference engine.
func TestFullDrainCountersByteIdentical(t *testing.T) {
	_, ctx := testDB(t, 300, 4, 10)
	for name, plan := range streamEquivalencePlans(500) {
		t.Run(name, func(t *testing.T) {
			sres, sc, _, err := Run(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			var mc cost.Counters
			mres, err := ExecuteMaterialized(ctx, plan, &mc)
			if err != nil {
				t.Fatal(err)
			}
			mc.Output += int64(len(mres.Rows)) // Run charges the root's output; the reference does not
			if len(sres.Rows) != len(mres.Rows) {
				t.Fatalf("streaming %d rows, materialized %d", len(sres.Rows), len(mres.Rows))
			}
			for i := range sres.Rows {
				if rowKey(sres.Rows[i]) != rowKey(mres.Rows[i]) {
					t.Fatalf("row %d differs: streaming %v, materialized %v", i, sres.Rows[i], mres.Rows[i])
				}
			}
			if sc != mc {
				t.Errorf("counters diverged:\nstreaming    %+v\nmaterialized %+v", sc, mc)
			}
		})
	}
}

// TestOperatorStreamsAreIndependent: Stream must hand out fresh iterator
// state each call, so re-executing a plan node cannot observe a prior
// run's cursor.
func TestOperatorStreamsAreIndependent(t *testing.T) {
	_, ctx := testDB(t, 40, 2, 5)
	plan := &SeqScan{Table: "lineitem"}
	r1, c1, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	r2, c2, _, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) || c1 != c2 {
		t.Fatalf("re-execution diverged: %d vs %d rows, %+v vs %+v", len(r1.Rows), len(r2.Rows), c1, c2)
	}
}
