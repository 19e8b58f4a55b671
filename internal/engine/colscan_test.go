package engine

import (
	"testing"

	"robustqo/internal/colstore"
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
