package engine

import (
	"fmt"
	"testing"

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
