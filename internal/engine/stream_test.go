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
