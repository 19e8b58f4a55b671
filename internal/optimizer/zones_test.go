package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// zonesOptDB builds an unpartitioned table of exactly 4 columnar
// segments with a clustered (sequential) key column, so zone maps on the
// key are tight and a key-range predicate skips a predictable number of
// segments. s_key is deliberately not indexed: range predicates on it
// must plan as sequential scans, the path the zone pass decorates.
func zonesOptDB(t *testing.T) (*storage.Database, *engine.Context) {
	t.Helper()
	const rows = 4 * colstore.SegmentRows
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
			value.Int(int64(i)), // clustered: segment zones partition the key space
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

func buildEncodings(t *testing.T, db *storage.Database) *colstore.Set {
	t.Helper()
	encs, err := colstore.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	return encs
}

// TestZoneSkippingPlansLateScan is the issue's optimizer acceptance
// check: a selective range predicate on the clustered key plans a late-
// materialized encoded scan, the estimate snapshot carries the segment
// arithmetic, and EXPLAIN ANALYZE reports "segments: 3/4 skipped".
func TestZoneSkippingPlansLateScan(t *testing.T) {
	db, ctx := zonesOptDB(t)
	ctx.Encodings = buildEncodings(t, db)
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
	if scan.Mode != engine.ScanLate {
		t.Fatalf("scan mode = %v, want late (pushable prefix + 3 skipped segments)", scan.Mode)
	}
	est, ok := plan.EstimateOf(scan)
	if !ok || est.SegsSkipped != 3 || est.SegsTotal != 4 {
		t.Fatalf("snapshot segments %d/%d (ok=%v), want 3/4", est.SegsSkipped, est.SegsTotal, ok)
	}
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
		t.Fatalf("late-materialized scan returned %d rows, want %d", len(res.Rows), want)
	}
	// Counter transparency: the encoded scan charges exactly what the row
	// path would — full pages and tuples, zone skips included.
	if wantPages := int64(seg.NumPages()); c.SeqPages != wantPages {
		t.Errorf("encoded scan charged %d seq pages, want %d (counters must match the row path)", c.SeqPages, wantPages)
	}
	if wantTuples := int64(seg.NumRows()); c.Tuples != wantTuples {
		t.Errorf("encoded scan charged %d tuples, want %d", c.Tuples, wantTuples)
	}
	out := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	if !strings.Contains(out, "segments: 3/4 skipped") {
		t.Errorf("EXPLAIN ANALYZE lacks the zone-map annotation:\n%s", out)
	}
}

// TestZoneBoundTightensEstimate pins the principled half of the design:
// the unskippable row fraction rides the estimator request as an exact
// selectivity upper bound, so the posterior's T-quantile estimate with
// encodings present is never looser than without — at both a median and
// a conservative 95% threshold — and the clamp caps the estimate at the
// bound itself.
func TestZoneBoundTightensEstimate(t *testing.T) {
	db, ctx := zonesOptDB(t)
	encs := buildEncodings(t, db)
	for _, threshold := range []float64{0.50, 0.95} {
		q := &Query{
			Tables: []string{"seg"},
			Pred:   testkit.Expr("s_key < 4096 AND s_a < 50"),
		}
		ctx.Encodings = nil
		free, err := zonesOpt(t, db, ctx, threshold).Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		freeEst, ok := free.EstimateOf(free.Root)
		if !ok {
			t.Fatalf("T=%v: no estimate for row-path root", threshold)
		}
		if freeEst.SegsTotal != 0 {
			t.Fatalf("T=%v: row-path snapshot reports segments %d/%d, want none",
				threshold, freeEst.SegsSkipped, freeEst.SegsTotal)
		}
		ctx.Encodings = encs
		bounded, err := zonesOpt(t, db, ctx, threshold).Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		boundEst, ok := bounded.EstimateOf(bounded.Root)
		if !ok {
			t.Fatalf("T=%v: no estimate for encoded root", threshold)
		}
		if boundEst.Rows > freeEst.Rows {
			t.Errorf("T=%v: zone-bounded estimate %v rows exceeds unbounded %v — the bound must only tighten",
				threshold, boundEst.Rows, freeEst.Rows)
		}
		// 3 of 4 segments are provably empty, so the exact bound is 1/4
		// of the physical rows; the conditioned quantile cannot exceed it.
		if maxRows := float64(colstore.SegmentRows); boundEst.Rows > maxRows {
			t.Errorf("T=%v: estimate %v rows exceeds the zone-map ceiling %v", threshold, boundEst.Rows, maxRows)
		}
	}
}

// TestZoneScanPathRule pins the scan-path rule: with a fresh encoding,
// a SeqScan plans ScanLate exactly when its filter has a pushable prefix,
// whatever the estimated selectivity, and otherwise plans the row path
// with no segment snapshot.
func TestZoneScanPathRule(t *testing.T) {
	db, ctx := zonesOptDB(t)
	ctx.Encodings = buildEncodings(t, db)
	o := zonesOpt(t, db, ctx, 0.8)
	const rows = 4 * colstore.SegmentRows
	for _, tc := range []struct {
		name, pred string
		mode       engine.ScanMode
	}{
		{name: "not-equal", pred: "s_a != 7", mode: engine.ScanRows},       // NE has no single interval
		{name: "float-literal", pred: "s_a < 50.5", mode: engine.ScanRows}, // float literals never push
		{name: "pushable-half", pred: "s_a < 50", mode: engine.ScanLate},   // ~50% selective, nothing skipped
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
			if tc.mode == engine.ScanRows {
				if scan.Mode != engine.ScanRows || est.SegsTotal != 0 {
					t.Fatalf("mode %v, segments %d/%d; want rows with no segment snapshot",
						scan.Mode, est.SegsSkipped, est.SegsTotal)
				}
				return
			}
			if frac := est.Rows / rows; frac <= 0.25 {
				t.Fatalf("fixture: estimated selectivity %.3f, want above 0.25", frac)
			}
			if scan.Mode != engine.ScanLate || est.SegsSkipped != 0 || est.SegsTotal != 4 {
				t.Fatalf("mode %v, segments %d/%d; want late, 0/4 skipped",
					scan.Mode, est.SegsSkipped, est.SegsTotal)
			}

		})
	}
}

// TestZoneStaleEncodingKeepsRowPath: rows appended after the encoding
// was built make it stale; the planner must leave the scan on the row
// path (no mode, no segment arithmetic) rather than trust stale zones.
func TestZoneStaleEncodingKeepsRowPath(t *testing.T) {
	db, ctx := zonesOptDB(t)
	ctx.Encodings = buildEncodings(t, db)
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
	if scan.Mode != engine.ScanRows {
		t.Fatalf("scan mode = %v, want rows (stale encoding)", scan.Mode)
	}
	if est, ok := plan.EstimateOf(scan); !ok || est.SegsTotal != 0 {
		t.Fatalf("stale snapshot reports segments %d/%d, want none", est.SegsSkipped, est.SegsTotal)
	}
}

// TestZonePassComposesWithPruning: on a range-partitioned fact, zone
// maps only examine the shards that survive partition pruning, and the
// two annotations render side by side in EXPLAIN ANALYZE. Each 1280-row
// shard is a single short segment (segments tile from the shard base),
// so the pruned scan sees exactly one segment and skips none of it.
func TestZonePassComposesWithPruning(t *testing.T) {
	db, ctx := partOptDB(t, catalog.RangePartition)
	ctx.Encodings = buildEncodings(t, db)
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
	if scan.Mode != engine.ScanLate {
		t.Fatalf("scan mode = %v, want late (equality prefix is pushable and highly selective)", scan.Mode)
	}
	est, ok := plan.EstimateOf(scan)
	if !ok || est.PartsScanned != 1 || est.PartsTotal != 4 {
		t.Fatalf("snapshot partitions %d/%d (ok=%v), want 1/4", est.PartsScanned, est.PartsTotal, ok)
	}
	if est.SegsTotal != 1 || est.SegsSkipped != 0 {
		t.Fatalf("snapshot segments %d/%d, want 0/1 (one short segment per surviving shard)",
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
		t.Fatalf("pruned encoded scan returned %d rows, want %d", len(res.Rows), want)
	}
	out := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	if !strings.Contains(out, "partitions: 1/4") || !strings.Contains(out, "segments: 0/1 skipped") {
		t.Errorf("EXPLAIN ANALYZE lacks the combined annotations:\n%s", out)
	}
}
