package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// TestAccessPathEquivalenceProperty checks, over many random range
// predicates, that every access path — sequential scan, each single-index
// range scan with residual, and the index intersection — returns exactly
// the same row multiset. This is the engine-level invariant the optimizer
// relies on: plan choice may change cost but never results.
func TestAccessPathEquivalenceProperty(t *testing.T) {
	db, ctx := testDB(t, 300, 4, 10)
	_ = db
	rng := stats.NewRNG(2718)
	for trial := 0; trial < 60; trial++ {
		// Random (possibly empty, possibly inverted-then-fixed) windows.
		mk := func() (int64, int64) {
			lo := int64(testkit.Intn(rng, 120)) - 10
			hi := lo + int64(testkit.Intn(rng, 60))
			return lo, hi
		}
		sLo, sHi := mk()
		rLo, rHi := mk()
		shipRange := KeyRange{Column: "l_ship", Lo: sLo, Hi: sHi}
		rcptRange := KeyRange{Column: "l_receipt", Lo: rLo, Hi: rHi}
		pred := expr.Conj(
			expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)},
			expr.Between{E: expr.C("l_receipt"), Lo: expr.IntLit(rLo), Hi: expr.IntLit(rHi)},
		)
		label := fmt.Sprintf("trial %d ship[%d,%d] receipt[%d,%d]", trial, sLo, sHi, rLo, rHi)

		scan, _, _, err := Run(ctx, &SeqScan{Table: "lineitem", Filter: pred})
		if err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		plans := []Node{
			&IndexRangeScan{Table: "lineitem", Range: shipRange,
				Residual: expr.Between{E: expr.C("l_receipt"), Lo: expr.IntLit(rLo), Hi: expr.IntLit(rHi)}},
			&IndexRangeScan{Table: "lineitem", Range: rcptRange,
				Residual: expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)}},
			&IndexIntersect{Table: "lineitem", Ranges: []KeyRange{shipRange, rcptRange}},
		}
		for pi, plan := range plans {
			res, _, _, err := Run(ctx, plan)
			if err != nil {
				t.Fatalf("%s: plan %d: %v", label, pi, err)
			}
			sameRowMultiset(t, res.Rows, scan.Rows, fmt.Sprintf("%s plan %d", label, pi))
		}
	}
}

// TestJoinMethodEquivalenceProperty checks that hash, merge, and indexed
// nested-loop joins agree on random filtered inputs.
func TestJoinMethodEquivalenceProperty(t *testing.T) {
	_, ctx := testDB(t, 120, 3, 10)
	rng := stats.NewRNG(3141)
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	for trial := 0; trial < 30; trial++ {
		cut := rng.Float64() * 1000
		filter := expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}
		ordersScan := func() Node { return &SeqScan{Table: "orders", Filter: filter} }
		lineScan := func() Node { return &SeqScan{Table: "lineitem"} }

		ref, _, _, err := Run(ctx, &HashJoin{
			Build: ordersScan(), Probe: lineScan(), BuildCol: okey, ProbeCol: lkey,
		})
		if err != nil {
			t.Fatal(err)
		}
		mj := &MergeJoin{Left: ordersScan(), Right: lineScan(),
			LeftCol: okey, RightCol: lkey, LeftSorted: true, RightSorted: true}
		mres, _, _, err := Run(ctx, mj)
		if err != nil {
			t.Fatal(err)
		}
		sameRowMultiset(t, mres.Rows, ref.Rows, fmt.Sprintf("merge trial %d", trial))

		// INL emits outer-then-inner; reorder the reference columns by
		// comparing against a hash join with the same orientation.
		inl := &INLJoin{Outer: ordersScan(), OuterCol: okey, InnerTable: "lineitem", InnerCol: "l_orderkey"}
		ires, _, _, err := Run(ctx, inl)
		if err != nil {
			// INL via secondary index requires an index on l_orderkey,
			// which the fixture lacks; probing the PK side instead.
			inl2 := &INLJoin{
				Outer:      &SeqScan{Table: "lineitem"},
				OuterCol:   lkey,
				InnerTable: "orders",
				InnerCol:   "o_orderkey",
				Residual:   filter,
			}
			ires2, _, _, err := Run(ctx, inl2)
			if err != nil {
				t.Fatal(err)
			}
			hj2, _, _, err := Run(ctx, &HashJoin{
				Build: lineScan(), Probe: ordersScan(), BuildCol: lkey, ProbeCol: okey,
			})
			if err != nil {
				t.Fatal(err)
			}
			sameRowMultiset(t, ires2.Rows, hj2.Rows, fmt.Sprintf("inl-pk trial %d", trial))
			continue
		}
		hjSame, _, _, err := Run(ctx, &HashJoin{
			Build: ordersScan(), Probe: lineScan(), BuildCol: okey, ProbeCol: lkey,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameRowMultiset(t, ires.Rows, hjSame.Rows, fmt.Sprintf("inl trial %d", trial))
	}
}

// TestStreamMaterializedSPJProperty drives random select-project-join
// plans — random access path, random join method, random filter windows,
// optional sort — through both the streaming pipeline and the materialized
// reference engine, requiring identical rows in identical order AND
// byte-identical cost.Counters on every full drain. This is the refactor's
// core safety property: batching changes when work happens, never how
// much or what it produces.
func TestStreamMaterializedSPJProperty(t *testing.T) {
	_, ctx := testDB(t, 200, 3, 10)
	rng := stats.NewRNG(9001)
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	for trial := 0; trial < 40; trial++ {
		sLo := int64(testkit.Intn(rng, 110)) - 5
		sHi := sLo + int64(testkit.Intn(rng, 70))
		cut := rng.Float64() * 1000
		linePred := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)}
		orderPred := expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}

		// Random access path for the lineitem side.
		var lineScan Node
		switch testkit.Intn(rng, 3) {
		case 0:
			lineScan = &SeqScan{Table: "lineitem", Filter: linePred}
		case 1:
			lineScan = &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: sLo, Hi: sHi}}
		default:
			lineScan = &IndexIntersect{Table: "lineitem",
				Ranges: []KeyRange{{Column: "l_ship", Lo: sLo, Hi: sHi}}}
		}

		// Random join method over the filtered sides.
		var join Node
		switch testkit.Intn(rng, 3) {
		case 0:
			join = &HashJoin{Build: &SeqScan{Table: "orders", Filter: orderPred},
				Probe: lineScan, BuildCol: okey, ProbeCol: lkey}
		case 1:
			join = &MergeJoin{Left: &SeqScan{Table: "orders", Filter: orderPred},
				Right: lineScan, LeftCol: okey, RightCol: lkey}
		default:
			join = &INLJoin{Outer: lineScan, OuterCol: lkey,
				InnerTable: "orders", InnerCol: "o_orderkey", Residual: orderPred}
		}

		// Optional project and sort layers above the join. Column names
		// differ per join orientation, so project via qualified refs that
		// exist in every orientation.
		plan := join
		if testkit.Intn(rng, 2) == 0 {
			plan = &Project{Input: plan, Cols: []expr.ColumnRef{
				{Table: "lineitem", Column: "l_id"},
				{Table: "orders", Column: "o_total"},
				{Table: "lineitem", Column: "l_price"},
			}}
		}
		if testkit.Intn(rng, 2) == 0 {
			plan = &Sort{Input: plan, By: []SortKey{
				{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}, Desc: testkit.Intn(rng, 2) == 0}}}
		}

		label := fmt.Sprintf("trial %d ship[%d,%d] cut %.1f plan %s", trial, sLo, sHi, cut, plan.Describe())
		sres, sc, _, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("%s: streaming: %v", label, err)
		}
		var mc cost.Counters
		mres, err := ExecuteMaterialized(ctx, plan, &mc)
		if err != nil {
			t.Fatalf("%s: materialized: %v", label, err)
		}
		mc.Output += int64(len(mres.Rows)) // Run charges the root's output; the reference does not
		if len(sres.Rows) != len(mres.Rows) {
			t.Fatalf("%s: streaming %d rows, materialized %d", label, len(sres.Rows), len(mres.Rows))
		}
		for i := range sres.Rows {
			if rowKey(sres.Rows[i]) != rowKey(mres.Rows[i]) {
				t.Fatalf("%s: row %d differs: streaming %v, materialized %v",
					label, i, sres.Rows[i], mres.Rows[i])
			}
		}
		if sc != mc {
			t.Fatalf("%s: counters diverged:\nstreaming    %+v\nmaterialized %+v", label, sc, mc)
		}
	}
}
