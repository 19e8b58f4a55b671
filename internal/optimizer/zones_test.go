package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// zonesOptDB builds an unpartitioned table of exactly 4 zone-map tiles
// with a clustered (sequential) key column, so zone maps on the key are
// tight and a key-range predicate skips a predictable number of tiles.
// s_key is deliberately not indexed: range predicates on it must plan as
// sequential scans, the path the zone pass decorates.
func zonesOptDB(t *testing.T) (*storage.Database, *engine.Context) {
	t.Helper()
	const rows = 4 * storage.SegmentRows
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	seg, err := db.CreateTable(&catalog.TableSchema{
		Name: "seg",
		Columns: []catalog.Column{
			{Name: "s_id", Type: catalog.Int},
			{Name: "s_key", Type: catalog.Int},
			{Name: "s_a", Type: catalog.Int},
		},
		PrimaryKey: "s_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(43)
	for i := 0; i < rows; i++ {
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(i)), // clustered: tile zones partition the key space
			value.Int(int64(testkit.Intn(rng, 100))),
		}
		if err := seg.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

func zonesOpt(t *testing.T, db *storage.Database, ctx *engine.Context, threshold float64) *Optimizer {
	t.Helper()
	set, err := sample.BuildAll(db, 400, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(set, core.ConfidenceThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestZoneSkippingOnRowScan is the optimizer acceptance check of the
// zone pass: a selective range predicate on the clustered key plans a
// sequential scan whose estimate snapshot carries the tile arithmetic,
// the scan skips the excluded tiles yet charges what a full scan does,
// and EXPLAIN ANALYZE reports "segments: 3/4 skipped".
func TestZoneSkippingOnRowScan(t *testing.T) {
	db, ctx := zonesOptDB(t)
	o := zonesOpt(t, db, ctx, 0.8)
	q := &Query{
		Tables: []string{"seg"},
		Pred:   testkit.Expr("s_key < 4096 AND s_a < 50"),
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := plan.Root.(*engine.SeqScan)
	if !ok {
		t.Fatalf("plan root is %T, want SeqScan:\n%s", plan.Root, plan.Explain())
	}
	est, ok := plan.EstimateOf(scan)
	if !ok || est.SegsSkipped != 3 || est.SegsTotal != 4 {
		t.Fatalf("snapshot segments %d/%d (ok=%v), want 3/4", est.SegsSkipped, est.SegsTotal, ok)
	}
	ctx.Metrics = obs.NewRegistry()
	inst := engine.Instrument(plan.Root)
	res, c, _, err := engine.Run(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	// Result correctness against the raw table.
	seg := testkit.Table(db, "seg")
	want := 0
	for i := 0; i < 4096; i++ {
		if seg.Value(i, 2).I < 50 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("zone-skipping scan returned %d rows, want %d", len(res.Rows), want)
	}
	skipped := ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total").Value()
	scanned := ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total").Value()
	if skipped != 3 || scanned != 1 {
		t.Errorf("metered %d skipped, %d scanned tiles; want 3 and 1", skipped, scanned)
	}
	// Counter transparency: skipped tiles are charged as if read — full
	// pages and tuples.
	if wantPages := int64(seg.NumPages()); c.SeqPages != wantPages {
		t.Errorf("scan charged %d seq pages, want %d (skipped tiles are charged)", c.SeqPages, wantPages)
	}
	if wantTuples := int64(seg.NumRows()); c.Tuples != wantTuples {
		t.Errorf("scan charged %d tuples, want %d", c.Tuples, wantTuples)
	}
	out := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	if !strings.Contains(out, "segments: 3/4 skipped") {
		t.Errorf("EXPLAIN ANALYZE lacks the zone-map annotation:\n%s", out)
	}
}

// TestZoneBoundTightensEstimate pins the principled half of the design:
// the unskippable row fraction rides the estimator request as an exact
// selectivity upper bound, so the posterior's T-quantile estimate is
// never looser than the same request without it — at both a median and
// a conservative 95% threshold — and the clamp caps the estimate at the
// bound itself.
func TestZoneBoundTightensEstimate(t *testing.T) {
	db, ctx := zonesOptDB(t)
	pred := testkit.Expr("s_key < 4096 AND s_a < 50")
	for _, threshold := range []float64{0.50, 0.95} {
		o := zonesOpt(t, db, ctx, threshold)
		free, err := o.Est.Estimate(core.Request{Tables: []string{"seg"}, Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := o.Optimize(&Query{Tables: []string{"seg"}, Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		boundEst, ok := bounded.EstimateOf(bounded.Root)
		if !ok {
			t.Fatalf("T=%v: no estimate for the root", threshold)
		}
		if boundEst.Rows > free.Rows {
			t.Errorf("T=%v: zone-bounded estimate %v rows exceeds unbounded %v — the bound must only tighten",
				threshold, boundEst.Rows, free.Rows)
		}
		// 3 of 4 tiles are provably empty, so the exact bound is 1/4 of
		// the physical rows; the conditioned quantile cannot exceed it.
		if maxRows := float64(storage.SegmentRows); boundEst.Rows > maxRows {
			t.Errorf("T=%v: estimate %v rows exceeds the zone-map ceiling %v", threshold, boundEst.Rows, maxRows)
		}
	}
}

// TestZoneScanPathRule: a SeqScan's snapshot carries tile arithmetic
// exactly when its filter has a pushable prefix, whatever the estimated
// selectivity.
func TestZoneScanPathRule(t *testing.T) {
	db, ctx := zonesOptDB(t)
	o := zonesOpt(t, db, ctx, 0.8)
	const rows = 4 * storage.SegmentRows
	for _, tc := range []struct {
		name, pred string
		zoned      bool
	}{
		{name: "not-equal", pred: "s_a != 7", zoned: true},     // an exclusion, nothing skipped
		{name: "float-literal", pred: "s_a < 50.5"},            // a float literal on an Int column stays residual
		{name: "pushable-half", pred: "s_a < 50", zoned: true}, // ~50% selective, nothing skipped
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &Query{Tables: []string{"seg"}, Pred: testkit.Expr(tc.pred)}
			plan, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			scan, ok := plan.Root.(*engine.SeqScan)
			if !ok {
				t.Fatalf("plan root is %T, want SeqScan", plan.Root)
			}
			est, ok := plan.EstimateOf(scan)
			if !ok {
				t.Fatal("no estimate for the scan")
			}
			if !tc.zoned {
				if est.SegsTotal != 0 {
					t.Fatalf("segments %d/%d; want no segment snapshot", est.SegsSkipped, est.SegsTotal)
				}
				return
			}
			if frac := est.Rows / rows; frac <= 0.25 {
				t.Fatalf("fixture: estimated selectivity %.3f, want above 0.25", frac)
			}
			if est.SegsSkipped != 0 || est.SegsTotal != 4 {
				t.Fatalf("segments %d/%d; want 0/4 skipped", est.SegsSkipped, est.SegsTotal)
			}
		})
	}
}

// TestZoneStaleEncodingKeepsRowPath: columnar encodings in the context
// play no part in planning, even stale ones. Rows appended after the
// encoding was built widen the storage zones at once — a row past the
// last tile opens a fifth tile, which the planner counts and the scan
// skips — and the scan returns the rows of the table as it is now.
func TestZoneStaleEncodingKeepsRowPath(t *testing.T) {
	db, ctx := zonesOptDB(t)
	encs, err := colstore.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Encodings = encs
	seg := testkit.Table(db, "seg")
	if err := seg.Append(value.Row{value.Int(1 << 20), value.Int(1 << 20), value.Int(3)}); err != nil {
		t.Fatal(err)
	}
	o := zonesOpt(t, db, ctx, 0.8)
	plan, err := o.Optimize(&Query{
		Tables: []string{"seg"},
		Pred:   testkit.Expr("s_key < 4096 AND s_a < 50"),
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := plan.Root.(*engine.SeqScan)
	if !ok {
		t.Fatalf("plan root is %T, want SeqScan", plan.Root)
	}
	if est, ok := plan.EstimateOf(scan); !ok || est.SegsSkipped != 4 || est.SegsTotal != 5 {
		t.Fatalf("snapshot segments %d/%d (ok=%v), want 4/5", est.SegsSkipped, est.SegsTotal, ok)
	}
	res, _, _, err := engine.Run(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 4096; i++ {
		if seg.Value(i, 2).I < 50 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("scan returned %d rows, want %d", len(res.Rows), want)
	}
}

// TestZonePassComposesWithPruning: on a range-partitioned fact, zone
// maps only examine the shards that survive partition pruning, and the
// two annotations render side by side in EXPLAIN ANALYZE. Each 1280-row
// shard is a single short tile (tiles start at the shard base), so the
// pruned scan sees exactly one tile and skips none of it.
func TestZonePassComposesWithPruning(t *testing.T) {
	db, ctx := partOptDB(t, catalog.RangePartition)
	o := partOpt(t, db, ctx)
	plan, err := o.Optimize(&Query{
		Tables: []string{"fact"},
		Pred:   testkit.Expr("f_key = 1500 AND f_a < 50"),
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := plan.Root.(*engine.SeqScan)
	if !ok {
		t.Fatalf("plan root is %T, want SeqScan", plan.Root)
	}
	est, ok := plan.EstimateOf(scan)
	if !ok || est.PartsScanned != 1 || est.PartsTotal != 4 {
		t.Fatalf("snapshot partitions %d/%d (ok=%v), want 1/4", est.PartsScanned, est.PartsTotal, ok)
	}
	if est.SegsTotal != 1 || est.SegsSkipped != 0 {
		t.Fatalf("snapshot segments %d/%d, want 0/1 (one short tile per surviving shard)",
			est.SegsSkipped, est.SegsTotal)
	}
	inst := engine.Instrument(plan.Root)
	res, _, _, err := engine.Run(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	fact := testkit.Table(db, "fact")
	want := 0
	for i := 0; i < fact.NumRows(); i++ {
		if fact.Value(i, 1).I == 1500 && fact.Value(i, 3).I < 50 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("pruned scan returned %d rows, want %d", len(res.Rows), want)
	}
	out := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	if !strings.Contains(out, "partitions: 1/4") || !strings.Contains(out, "segments: 0/1 skipped") {
		t.Errorf("EXPLAIN ANALYZE lacks the combined annotations:\n%s", out)
	}
}
