package engine

import (
	"fmt"
	"math"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/testkit"
)

func TestSortAscendingAndDescending(t *testing.T) {
	_, ctx := testDB(t, 20, 3, 8)
	asc := &Sort{
		Input: &SeqScan{Table: "lineitem"},
		By:    []SortKey{{Col: expr.ColumnRef{Table: "lineitem", Column: "l_ship"}}},
	}
	res, counters, _, err := Run(ctx, asc)
	if err != nil {
		t.Fatal(err)
	}
	shipIdx, _ := res.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_ship"})
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][shipIdx].I < res.Rows[i-1][shipIdx].I {
			t.Fatal("ascending sort violated")
		}
	}
	if counters.SortTuples != int64(len(res.Rows)) {
		t.Errorf("SortTuples = %d", counters.SortTuples)
	}
	desc := &Sort{
		Input: &SeqScan{Table: "lineitem"},
		By:    []SortKey{{Col: expr.ColumnRef{Table: "lineitem", Column: "l_ship"}, Desc: true}},
	}
	res, _, _, err = Run(ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][shipIdx].I > res.Rows[i-1][shipIdx].I {
			t.Fatal("descending sort violated")
		}
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	_, ctx := testDB(t, 20, 3, 4)
	node := &Sort{
		Input: &SeqScan{Table: "lineitem"},
		By: []SortKey{
			{Col: expr.ColumnRef{Table: "lineitem", Column: "l_partkey"}},
			{Col: expr.ColumnRef{Table: "lineitem", Column: "l_price"}, Desc: true},
		},
	}
	res, _, _, err := Run(ctx, node)
	if err != nil {
		t.Fatal(err)
	}
	pkIdx, _ := res.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_partkey"})
	prIdx, _ := res.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_price"})
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[pkIdx].I > b[pkIdx].I {
			t.Fatal("primary key order violated")
		}
		if a[pkIdx].I == b[pkIdx].I && a[prIdx].F < b[prIdx].F {
			t.Fatal("secondary descending order violated")
		}
	}
}

func TestSortErrors(t *testing.T) {
	_, ctx := testDB(t, 5, 1, 3)
	if _, _, _, err := Run(ctx, &Sort{Input: &SeqScan{Table: "orders"}}); err == nil {
		t.Error("no sort keys accepted")
	}
	bad := &Sort{
		Input: &SeqScan{Table: "orders"},
		By:    []SortKey{{Col: expr.ColumnRef{Column: "ghost"}}},
	}
	if _, _, _, err := Run(ctx, bad); err == nil {
		t.Error("unknown sort column accepted")
	}
	if got := (SortKey{Col: expr.ColumnRef{Column: "x"}, Desc: true}).String(); got != "x DESC" {
		t.Errorf("SortKey string = %q", got)
	}
}

func TestLimit(t *testing.T) {
	db, ctx := testDB(t, 10, 2, 3)
	res, _, _, err := Run(ctx, &Limit{Input: &SeqScan{Table: "lineitem"}, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("limit rows = %d", len(res.Rows))
	}
	// Limit larger than input passes everything.
	res, _, _, err = Run(ctx, &Limit{Input: &SeqScan{Table: "lineitem"}, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != testkit.Table(db, "lineitem").NumRows() {
		t.Errorf("oversize limit rows = %d", len(res.Rows))
	}
	// Zero keeps nothing; negative errors.
	res, _, _, err = Run(ctx, &Limit{Input: &SeqScan{Table: "lineitem"}, N: 0})
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("zero limit = %d rows, %v", len(res.Rows), err)
	}
	if _, _, _, err := Run(ctx, &Limit{Input: &SeqScan{Table: "lineitem"}, N: -1}); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestSortLimitExplain(t *testing.T) {
	plan := &Limit{
		N: 3,
		Input: &Sort{
			Input: &SeqScan{Table: "orders"},
			By:    []SortKey{{Col: expr.ColumnRef{Table: "orders", Column: "o_total"}, Desc: true}},
		},
	}
	s := Explain(plan)
	for _, want := range []string{"Limit(3)", "Sort(orders.o_total DESC)", "SeqScan(orders)"} {
		if !contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSortFloatNaNOrder holds ORDER BY on a Float column with a NaN to a
// total order, PostgreSQL's: ascending puts the NaN after every number,
// DESC before every number, and -0 ties +0. It sorts specialTable by c
// (one NaN among 20,000 rows, ±0 as its least values) in full and under
// a top-K heap, ASC and DESC, over both layouts, and holds the rows bit
// for bit to the reference engine's.
func TestSortFloatNaNOrder(t *testing.T) {
	parted, flat := specialContexts(t)
	c := expr.ColumnRef{Table: "special", Column: "c"}
	for _, layout := range []struct {
		name string
		ctx  *Context
	}{{"partitioned", parted}, {"flat", flat}} {
		for _, desc := range []bool{false, true} {
			for _, topK := range []int{0, 10, specialRows - 1} {
				label := fmt.Sprintf("%s desc=%v topK=%d", layout.name, desc, topK)
				plan := &Sort{Input: &SeqScan{Table: "special"}, By: []SortKey{{Col: c, Desc: desc}}, TopK: topK}
				res, _, _, err := Run(layout.ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				want := specialRows
				if topK > 0 {
					want = topK
				}
				if len(res.Rows) != want {
					t.Fatalf("%s: %d rows, want %d", label, len(res.Rows), want)
				}
				idx, _ := res.Schema.Resolve(c)
				// The NaN's place: last ascending, first descending, and
				// outside a top-K that leaves one row out ascending.
				nanAt := -1
				switch {
				case desc:
					nanAt = 0
				case topK == 0:
					nanAt = specialRows - 1
				}
				prev := math.NaN()
				for r, row := range res.Rows {
					x := row[idx].F
					if isNaN := x != x; isNaN != (r == nanAt) {
						t.Fatalf("%s: row %d holds %v; the NaN belongs at row %d", label, r, x, nanAt)
					}
					if x != x {
						continue
					}
					if prev == prev && (!desc && x < prev || desc && x > prev) {
						t.Fatalf("%s: row %d holds %v after %v", label, r, x, prev)
					}
					prev = x
				}
				var rc cost.Counters
				ref, err := ExecuteMaterialized(layout.ctx, plan, &rc)
				if err != nil {
					t.Fatal(err)
				}
				for r := range res.Rows {
					if got, want := bits(res.Rows[r]), bits(ref.Rows[r]); got != want {
						t.Fatalf("%s: row %d is %s, the reference's %s", label, r, got, want)
					}
				}
			}
		}
	}
}
