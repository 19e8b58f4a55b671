package engine

import (
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/testkit"
)

// TestCountersAccumulateAcrossNestedOperators executes a three-deep plan
// (Sort over Filter over SeqScan) with one shared Counters and checks that
// every level contributed: the scan its pages and tuples, the filter its
// CPU on the scan's survivors, the sort its sorted tuples.
func TestCountersAccumulateAcrossNestedOperators(t *testing.T) {
	db, ctx := testDB(t, 10, 6, 5) // 60 lineitems
	lt := testkit.Table(db, "lineitem")

	pred := testkit.Expr("l_ship < 50")
	plan := &Sort{
		Input: &Filter{Input: &SeqScan{Table: "lineitem"}, Pred: pred},
		By:    []SortKey{{Col: expr.ColumnRef{Column: "l_price"}}},
	}
	res, c, elapsed, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	matching := len(naiveSelect(t, db, "lineitem", pred))
	if matching == 0 || matching == lt.NumRows() {
		t.Fatalf("degenerate predicate: %d of %d rows match", matching, lt.NumRows())
	}

	// Scan level: every page read once, every tuple touched once.
	if c.SeqPages != int64(lt.NumPages()) {
		t.Errorf("SeqPages = %d, want %d", c.SeqPages, lt.NumPages())
	}
	// CPU: the scan touches every row, and the unfiltered scan output is
	// the filter's input, so the filter touches every row again.
	wantTuples := int64(2 * lt.NumRows())
	if c.Tuples != wantTuples {
		t.Errorf("Tuples = %d, want %d (scan + filter over %d rows each)",
			c.Tuples, wantTuples, lt.NumRows())
	}
	// Sort level: exactly the filtered rows pass through the sort.
	if c.SortTuples != int64(matching) {
		t.Errorf("SortTuples = %d, want %d", c.SortTuples, matching)
	}
	// Root: Run charges output for the final result only.
	if c.Output != int64(len(res.Rows)) || len(res.Rows) != matching {
		t.Errorf("Output = %d, rows = %d, want %d", c.Output, len(res.Rows), matching)
	}
	if elapsed != ctx.Model.Time(c) {
		t.Errorf("elapsed %g != Model.Time(counters) %g", elapsed, ctx.Model.Time(c))
	}
	if !(elapsed > 0) {
		t.Errorf("elapsed = %g, want positive", elapsed)
	}
}

// TestCountersNestedEqualsSumOfParts runs a join plan whole, then runs its
// two inputs separately, and checks the whole's counters are the inputs'
// sum plus the join's own work — the invariant the counterthread analyzer
// exists to protect.
func TestCountersNestedEqualsSumOfParts(t *testing.T) {
	_, ctx := testDB(t, 8, 4, 5)

	build := &SeqScan{Table: "orders"}
	probe := &SeqScan{Table: "lineitem"}
	join := &HashJoin{
		Build:    build,
		Probe:    probe,
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}

	jRes, whole, _, err := Run(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(jRes.Rows) == 0 {
		t.Fatal("join produced no rows")
	}

	bRes, parts, _, err := Run(ctx, build)
	if err != nil {
		t.Fatal(err)
	}
	pRes, pc, _, err := Run(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	parts.Add(pc)

	// The join's own contribution on top of its inputs: one hash insert
	// per build row, one probe per probe row, one CPU charge per output.
	// Run charged each input's rows as output; inside the join only the
	// join's rows leave the plan.
	parts.Output -= int64(len(bRes.Rows) + len(pRes.Rows))
	parts.Add(cost.Counters{
		HashBuilds: int64(len(bRes.Rows)),
		HashProbes: int64(len(pRes.Rows)),
		Tuples:     int64(len(jRes.Rows)),
		Output:     int64(len(jRes.Rows)),
	})
	if whole != parts {
		t.Errorf("nested counters %v != sum of parts %v", whole, parts)
	}
}
