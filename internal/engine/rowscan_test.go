package engine

import (
	"fmt"
	"reflect"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// rowAtATimeScan is the reference the filter-first row window must match:
// every BatchSize window of the table loaded whole, one row at a time,
// then filtered with one EvalBatch, and the error wrapped as the scan
// wraps it.
func rowAtATimeScan(t *testing.T, tbl *storage.Table, filter expr.Expr) ([]value.Row, error) {
	t.Helper()
	schema := expr.SchemaForTable(tbl.Schema())
	pred, err := expr.Bind(filter, schema)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(schema)
	buf := make(value.Row, len(schema.Fields))
	var out []value.Row
	for lo := 0; lo < tbl.NumRows(); lo += BatchSize {
		b.Reset()
		for r := lo; r < min(lo+BatchSize, tbl.NumRows()); r++ {
			tbl.ReadRow(r, buf)
			addRow(b, buf)
		}
		if _, err := b.filterTail(0, pred, nil); err != nil {
			return nil, fmt.Errorf("engine: SeqScan(%s): %v", tbl.Name(), err)
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, cloneRow(b, i))
		}
	}
	return out, nil
}

// TestFilterFirstScanMatchesRowAtATime pins the row-store SeqScan window
// against the whole-window reference: same rows in the same order, same
// counters, and the same error text, serially and under an Exchange. The
// 2-shard table is scanned with Partitions nil, so its windows straddle
// the shard boundary and the typed loads must split there.
func TestFilterFirstScanMatchesRowAtATime(t *testing.T) {
	filters := []struct {
		name, src string
		wantErr   bool
	}{
		{"nil", "", false},
		{"one-column", "l_qty < 25", false},
		{"every-column", "l_id >= 0 AND l_orderkey >= 3 AND l_ship >= 1 AND l_status <> 'void' AND l_qty < 40 AND l_price >= 1", false},
		{"no-survivors", "l_qty < 0", false},
		{"all-survivors", "l_qty >= 0", false},
		{"error-mid-window", "l_id > 1500 AND l_status < 3", true},
	}
	for _, shards := range []int{1, 2} {
		ctx := fixture{orders: 1250, lines: 4, parts: 10, shards: shards, clustered: true}.build(t)
		db := ctx.DB
		tbl := testkit.Table(db, "lineitem")
		if shards == 2 {
			if lo, _ := tbl.PartitionSpan(1); lo%BatchSize == 0 {
				t.Fatalf("fixture: shard 1 starts at %d, a window boundary; want a straddling window", lo)
			}
		}
		for _, f := range filters {
			t.Run(fmt.Sprintf("shards%d/%s", shards, f.name), func(t *testing.T) {
				var filter expr.Expr
				if f.src != "" {
					filter = testkit.Expr(f.src)
				}
				want, wantErr := rowAtATimeScan(t, tbl, filter)
				if (wantErr != nil) != f.wantErr {
					t.Fatalf("reference error %v, want error %v", wantErr, f.wantErr)
				}
				for _, dop := range []int{1, 2} {
					var plan Node = &SeqScan{Table: "lineitem", Filter: filter}
					if dop > 1 {
						plan = &Exchange{Source: plan, DOP: dop}
					}
					res, c, _, err := Run(ctx, plan)
					if wantErr != nil {
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("dop %d: error %v, want %v", dop, err, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("dop %d: %v", dop, err)
					}
					if len(res.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Rows, want)) {
						t.Fatalf("dop %d: %d rows differ from the reference's %d", dop, len(res.Rows), len(want))
					}
					wantC := cost.Counters{SeqPages: int64(tbl.NumPages()), Tuples: int64(tbl.NumRows()), Output: int64(len(want))}
					if c != wantC {
						t.Fatalf("dop %d: counters %+v, want %+v", dop, c, wantC)
					}
				}
			})
		}
	}
}
