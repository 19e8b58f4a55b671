package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/colstore"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
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

// columnarTestDB builds a lineitem/orders pair where lineitem carries all
// four column kinds, with ship dates and status values clustered by row
// position so zone maps have real skipping power, range-partitioned on
// l_ship when shards > 1.
func columnarTestDB(t testing.TB, rows, shards int) (*storage.Database, *Context) {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int},
			{Name: "o_total", Type: catalog.Float},
		},
		PrimaryKey: "o_orderkey",
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := &catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_orderkey", Type: catalog.Int},
			{Name: "l_ship", Type: catalog.Date},
			{Name: "l_status", Type: catalog.String},
			{Name: "l_qty", Type: catalog.Int},
			{Name: "l_price", Type: catalog.Float},
		},
		PrimaryKey: "l_id",
		Foreign:    []catalog.ForeignKey{{Column: "l_orderkey", RefTable: "orders"}},
	}
	if shards > 1 {
		spec := &catalog.PartitionSpec{Column: "l_ship", Kind: catalog.RangePartition, Partitions: shards}
		for b := 1; b < shards; b++ {
			spec.Bounds = append(spec.Bounds, int64(b*100/shards))
		}
		schema.Partition = spec
	}
	lineitem, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	nOrders := 500
	rng := stats.NewRNG(777)
	for o := 0; o < nOrders; o++ {
		if err := orders.Append(value.Row{value.Int(int64(o)), value.Float(rng.Float64() * 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	statuses := []string{"fill", "open", "ship", "void"}
	for i := 0; i < rows; i++ {
		// Ship dates climb with row position (small jitter), so segment
		// zones are narrow slices of [0, 100) instead of the full range.
		ship := int64(i*100/rows) + int64(testkit.Intn(rng, 3))
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(testkit.Intn(rng, nOrders))),
			value.Date(ship),
			value.Str(statuses[(i/700)%len(statuses)]),
			value.Int(int64(testkit.Intn(rng, 50))),
			value.Float(float64(testkit.Intn(rng, 10000)) / 100),
		}
		if err := lineitem.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

// TestColumnarDifferentialProperty extends the 40-query differential
// corpus across storage encodings: the same plans run with the lineitem
// scan on the row path and the late-materialized encoded path, serial and
// behind Exchanges at DOP 1, 2, and 4, over both an unpartitioned and a
// 2-shard partitioned layout. Every leg must produce byte-identical rows
// in identical order AND byte-identical cost.Counters versus the row-path
// serial baseline — encoded scans are counter transparent even when zone
// maps skip whole segments. A late scan whose filter has no pushable
// prefix must run the row path: it meters no segment. Run with -race this
// doubles as the proof that shared probe state and the columnar metrics
// are race-clean under the worker pool.
func TestColumnarDifferentialProperty(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rows := 2*colstore.SegmentRows*max(shards, 1) + 1500
		db, ctx := columnarTestDB(t, rows, shards)
		encs, err := colstore.BuildAll(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Encodings = encs
		ctx.Metrics = obs.NewRegistry()
		scanned := ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total")
		skipped := ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total")
		rng := stats.NewRNG(40104)
		okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
		lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
		statuses := []string{"fill", "open", "ship", "void"}
		for trial := 0; trial < 40; trial++ {
			sLo := int64(testkit.Intn(rng, 110)) - 5
			sHi := sLo + int64(testkit.Intn(rng, 40))
			status := statuses[testkit.Intn(rng, len(statuses))]
			cut := rng.Float64() * 100
			// The filter mixes pushable conjuncts (date range, string
			// equality/range) with residual-only ones (float compare,
			// substring match) in varying orders, so legs exercise full
			// pushdown, partial prefixes, and empty prefixes.
			var pred expr.Expr
			switch trial % 4 {
			case 0: // fully pushable prefix + float residual
				pred = expr.Conj(
					expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)},
					expr.Cmp{Op: expr.EQ, L: expr.C("l_status"), R: expr.StrLit(status)},
					expr.Cmp{Op: expr.LT, L: expr.C("l_price"), R: expr.FloatLit(cut)},
				)
			case 1: // residual first: prefix is empty, late mode runs the row path
				pred = expr.Conj(
					expr.Contains{E: expr.C("l_status"), Substr: "i"},
					expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)},
				)
			case 2: // string range + open int bound
				pred = expr.Conj(
					expr.Cmp{Op: expr.GE, L: expr.C("l_status"), R: expr.StrLit(status)},
					expr.Cmp{Op: expr.GT, L: expr.C("l_ship"), R: expr.IntLit(sLo)},
					expr.Cmp{Op: expr.NE, L: expr.C("l_qty"), R: expr.IntLit(7)},
				)
			default: // narrow date window only: the zone-skip showcase
				pred = expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)}
			}

			build := func(dop int, mode ScanMode) Node {
				wrap := func(n Node) Node {
					if dop == 0 {
						return n
					}
					return &Exchange{Source: n, DOP: dop}
				}
				var plan Node = wrap(&SeqScan{Table: "lineitem", Filter: pred, Mode: mode})
				if trial%3 == 0 {
					plan = &HashJoin{
						Build: wrap(&SeqScan{Table: "orders"}), Probe: plan,
						BuildCol: okey, ProbeCol: lkey,
					}
				}
				if trial%2 == 1 {
					plan = &Sort{Input: plan, By: []SortKey{
						{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}}}}
				}
				return plan
			}

			label := fmt.Sprintf("shards=%d trial %d ship[%d,%d] status %q", shards, trial, sLo, sHi, status)
			base, bc, _, err := Run(ctx, build(0, ScanRows))
			if err != nil {
				t.Fatalf("%s: baseline: %v", label, err)
			}
			for _, mode := range []ScanMode{ScanRows, ScanLate} {
				for _, dop := range []int{0, 1, 2, 4} {
					if mode == ScanRows && dop == 0 {
						continue
					}
					metered := scanned.Value() + skipped.Value()
					res, c, _, err := Run(ctx, build(dop, mode))
					if err != nil {
						t.Fatalf("%s: mode=%s dop=%d: %v", label, mode, dop, err)
					}
					leg := fmt.Sprintf("mode=%s dop=%d", mode, dop)
					wantEncoded := mode == ScanLate && trial%4 != 1
					if encoded := scanned.Value()+skipped.Value() > metered; encoded != wantEncoded {
						t.Fatalf("%s: %s metered segments %v, want %v", label, leg, encoded, wantEncoded)
					}
					if len(res.Rows) != len(base.Rows) {
						t.Fatalf("%s: %s %d rows, want %d", label, leg, len(res.Rows), len(base.Rows))
					}
					for i := range res.Rows {
						if rowKey(res.Rows[i]) != rowKey(base.Rows[i]) {
							t.Fatalf("%s: %s row %d differs: %v vs %v", label, leg, i, res.Rows[i], base.Rows[i])
						}
					}
					if c != bc {
						t.Fatalf("%s: %s counters diverged:\n got %+v\nwant %+v", label, leg, c, bc)
					}
				}
			}
		}
	}
}

// TestColumnarStaleEncodingFallsBack pins the staleness guard: a table
// that grows after encoding serves from the row path instead of returning
// rows the encoding no longer covers — same rows and counters as a row
// scan — and says so in robustqo_columnar_stale_fallback_total.
func TestColumnarStaleEncodingFallsBack(t *testing.T) {
	db, ctx := columnarTestDB(t, 2000, 1)
	encs, err := colstore.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Encodings = encs
	ctx.Metrics = obs.NewRegistry()
	stale := ctx.Metrics.Counter("robustqo_columnar_stale_fallback_total")
	line := testkit.Table(db, "lineitem")
	if err := line.Append(value.Row{
		value.Int(2000), value.Int(1), value.Date(99), value.Str("tail"), value.Int(1), value.Float(1),
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
