package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/cost"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// TestColumnarStaleEncodingFallsBack: a SeqScan reads the row store, and
// columnar encodings in the context play no part — a table that grows
// after it was encoded scans every row, the appended one included, with
// the rows and counters of a context without encodings.
func TestColumnarStaleEncodingFallsBack(t *testing.T) {
	ctx := fixture{orders: 500, lines: 4, parts: 10, clustered: true}.build(t)
	line := testkit.Table(ctx.DB, "lineitem")
	encs, err := colstore.BuildAll(ctx.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := line.Append(value.Row{
		value.Int(2000), value.Int(1), value.Int(1), value.Date(99), value.Date(99), value.Float(1), value.Str("tail"), value.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	scan := &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship >= 0")}
	res, rc, _, err := Run(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Encodings = encs
	got, gc, _, err := Run(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2001 || len(res.Rows) != 2001 {
		t.Fatalf("scan returned %d rows with a stale encoding, %d without; want 2001", len(got.Rows), len(res.Rows))
	}
	if gc != rc {
		t.Fatalf("counters with a stale encoding %+v, without %+v", gc, rc)
	}
}

// TestFilterPrefixErrorParity pins the short-circuit contract the
// filter-first window rests on: the residual runs only on the rows the
// pushed prefix keeps. l_status < 5 compares a string with an integer, a
// type error on every row it sees. Behind a date range that keeps rows,
// the serial scan, DOP 2 and the reference engine return the same error;
// behind one that keeps none — every tile of the clustered fixture
// skipped — none of them errs. A <> and a Float bound push and keep
// the contract too: behind them the error is the reference engine's, and
// a Float bound that keeps no row (l_price is never negative) spares the
// residual. A Float literal against the Int l_qty, which storage cannot
// push, stays in the residual and scans alike everywhere. Sharded
// layouts cover prefixes over windows that straddle shard boundaries.
func TestFilterPrefixErrorParity(t *testing.T) {
	for _, shards := range []int{0, 4} {
		ctx := fixture{orders: 500, lines: 4, parts: 10, shards: shards, clustered: true}.build(t)
		for _, tc := range []struct {
			filter        string
			wantErr, rows bool
		}{
			{"l_ship BETWEEN 10 AND 30 AND l_status < 5", true, false},
			{"l_ship BETWEEN 200 AND 300 AND l_status < 5", false, false},
			{"l_ship BETWEEN 10 AND 30 AND l_qty < 2.5 AND l_status >= 'a'", false, true},
			{"l_ship BETWEEN 10 AND 30 AND l_qty <> 7 AND l_price < 50.5 AND l_status < 5", true, false},
			{"l_status <> 'void' AND l_price <> 50.5 AND l_qty < 2.5", false, true},
			{"l_price < 0 AND l_status < 5", false, false},
		} {
			scan := func() *SeqScan {
				return &SeqScan{Table: "lineitem", Filter: testkit.Expr(tc.filter)}
			}
			var rc cost.Counters
			ref, refErr := ExecuteMaterialized(ctx, scan(), &rc)
			if (refErr != nil) != tc.wantErr {
				t.Fatalf("shards=%d %s: reference error %v, want error %v", shards, tc.filter, refErr, tc.wantErr)
			}
			if refErr == nil && tc.rows == (len(ref.Rows) == 0) {
				t.Fatalf("shards=%d %s: fixture keeps %d rows", shards, tc.filter, len(ref.Rows))
			}
			for name, plan := range map[string]Node{
				"rows":       scan(),
				"rows dop 2": &Exchange{Source: scan(), DOP: 2},
			} {
				label := fmt.Sprintf("shards=%d %s %s", shards, tc.filter, name)
				got, _, _, err := Run(ctx, plan)
				if tc.wantErr {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("%s: error %v, want %v", label, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got.Rows) != len(ref.Rows) {
					t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(ref.Rows))
				}
				for i := range got.Rows {
					if rowKey(got.Rows[i]) != rowKey(ref.Rows[i]) {
						t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], ref.Rows[i])
					}
				}
			}
		}
	}
}
