package engine

import (
	"fmt"
	"strings"
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/cost"
	"robustqo/internal/obs"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// TestSegmentRowsMatchMorselSize pins the alignment contract the encoded
// scan path relies on: segments tile shard spans in MorselSize blocks,
// so every BatchSize window a scan operator or morsel worker processes
// lies inside exactly one segment at any DOP.
func TestSegmentRowsMatchMorselSize(t *testing.T) {
	if colstore.SegmentRows != MorselSize {
		t.Fatalf("colstore.SegmentRows = %d, engine.MorselSize = %d; the encoded scan's window/segment alignment depends on their equality", colstore.SegmentRows, MorselSize)
	}
}

// TestColumnarStaleEncodingFallsBack pins the staleness guard: a table
// that grows after encoding serves from the row path instead of returning
// rows the encoding no longer covers — same rows and counters as a row
// scan — and says so in robustqo_columnar_stale_fallback_total.
func TestColumnarStaleEncodingFallsBack(t *testing.T) {
	ctx := fixture{orders: 500, lines: 4, parts: 10, clustered: true, encoded: true}.build(t)
	db, encs := ctx.DB, ctx.Encodings
	ctx.Metrics = obs.NewRegistry()
	stale := ctx.Metrics.Counter("robustqo_columnar_stale_fallback_total")
	line := testkit.Table(db, "lineitem")
	if err := line.Append(value.Row{
		value.Int(2000), value.Int(1), value.Int(1), value.Date(99), value.Date(99), value.Float(1), value.Str("tail"), value.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	res, c, _, err := Run(ctx, &SeqScan{Table: "lineitem", Mode: ScanLate})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2001 {
		t.Fatalf("stale-encoding scan returned %d rows, want 2001 (row-path fallback)", len(res.Rows))
	}
	_, rc, _, err := Run(ctx, &SeqScan{Table: "lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	if c != rc {
		t.Fatalf("stale-encoding scan counters %+v, row path %+v", c, rc)
	}
	if stale.Value() != 1 {
		t.Fatalf("stale fallback counted %d times, want 1", stale.Value())
	}
	if err := encs.Rebuild(db); err != nil {
		t.Fatal(err)
	}
	// A pushable filter every row passes keeps the rebuilt scan encoded.
	res, _, _, err = Run(ctx, &SeqScan{Table: "lineitem", Mode: ScanLate, Filter: testkit.Expr("l_ship >= 0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2001 {
		t.Fatalf("rebuilt-encoding scan returned %d rows, want 2001", len(res.Rows))
	}
	if stale.Value() != 1 {
		t.Fatalf("fresh encoding counted as stale: %d", stale.Value())
	}
}

// TestFilterPrefixErrorParity pins the short-circuit contract the
// filter-first window rests on: the residual runs only on the rows the
// pushed prefix keeps. l_status < 5 compares a string with an integer, a
// type error on every row it sees. Behind a date range that keeps rows,
// the row path, the late path, DOP 2 and the reference engine return the
// same error; behind one that keeps none, none of them errs. A Float
// BETWEEN, which no storage path can push, stays in the residual and
// scans alike everywhere. Sharded layouts cover prefixes over windows
// that straddle shard boundaries.
func TestFilterPrefixErrorParity(t *testing.T) {
	for _, shards := range []int{0, 4} {
		ctx := fixture{orders: 500, lines: 4, parts: 10, shards: shards, clustered: true, encoded: true}.build(t)
		for _, tc := range []struct {
			filter  string
			wantErr bool
		}{
			{"l_ship BETWEEN 10 AND 30 AND l_status < 5", true},
			{"l_ship BETWEEN 200 AND 300 AND l_status < 5", false},
			{"l_ship BETWEEN 10 AND 30 AND l_price BETWEEN 10 AND 20 AND l_status >= 'a'", false},
		} {
			scan := func(mode ScanMode) *SeqScan {
				return &SeqScan{Table: "lineitem", Filter: testkit.Expr(tc.filter), Mode: mode}
			}
			var rc cost.Counters
			ref, refErr := ExecuteMaterialized(ctx, scan(ScanRows), &rc)
			if (refErr != nil) != tc.wantErr {
				t.Fatalf("shards=%d %s: reference error %v, want error %v", shards, tc.filter, refErr, tc.wantErr)
			}
			if refErr == nil && strings.Contains(tc.filter, "l_price") && len(ref.Rows) == 0 {
				t.Fatalf("shards=%d %s: fixture keeps no rows", shards, tc.filter)
			}
			for name, plan := range map[string]Node{
				"rows":       scan(ScanRows),
				"late":       scan(ScanLate),
				"rows dop 2": &Exchange{Source: scan(ScanRows), DOP: 2},
				"late dop 2": &Exchange{Source: scan(ScanLate), DOP: 2},
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
