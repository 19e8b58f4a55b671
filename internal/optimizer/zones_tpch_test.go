package optimizer_test

import (
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
	"robustqo/internal/tpch"
)

// TestZoneFloatBetweenKeepsLateScan: a BETWEEN over the Float
// l_extendedprice behind a ship-date range ends the pushable prefix
// instead of making the whole filter unpushable. On ship-date-clustered,
// encoded lineitem the scan plans late and its zone maps skip segments,
// exactly as with l_extendedprice < 2000 in the BETWEEN's place.
func TestZoneFloatBetweenKeepsLateScan(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 20000, Seed: 2005, ClusterDates: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Encodings, err = colstore.BuildAll(db); err != nil {
		t.Fatal(err)
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(2005^0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syn, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	const dates = "l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1995-12-31'"
	for _, price := range []string{"l_extendedprice BETWEEN 1000 AND 2000", "l_extendedprice < 2000"} {
		plan, err := opt.Optimize(&optimizer.Query{Tables: []string{"lineitem"}, Pred: testkit.Expr(dates + " AND " + price)})
		if err != nil {
			t.Fatal(err)
		}
		scan, ok := plan.Root.(*engine.SeqScan)
		if !ok {
			t.Fatalf("%s: plan root is %T, want SeqScan:\n%s", price, plan.Root, plan.Explain())
		}
		if scan.Mode != engine.ScanLate {
			t.Errorf("%s: scan mode = %v, want late", price, scan.Mode)
		}
		if e, ok := plan.EstimateOf(scan); !ok || e.SegsSkipped < 1 {
			t.Errorf("%s: snapshot segments %d/%d skipped (ok=%v), want at least one", price, e.SegsSkipped, e.SegsTotal, ok)
		}
	}
}
