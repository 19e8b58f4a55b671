package optimizer_test

import (
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/tpch"
)

// clusteredOptimizer builds an optimizer over ship-date-clustered
// lineitem of the given size, with the Bayesian estimator at the
// threshold, passed through wrap when it is set.
func clusteredOptimizer(t *testing.T, lines int, threshold float64, wrap func(core.Estimator) core.Estimator) (*storage.Database, *optimizer.Optimizer) {
	t.Helper()
	return tpchOptimizer(t, tpch.Config{Lines: lines, ClusterDates: true}, threshold, wrap)
}

// tpchOptimizer builds an optimizer over the data cfg generates with
// seed 2005, as robustqo sql does, with the Bayesian estimator at the
// threshold, passed through wrap when it is set.
func tpchOptimizer(t *testing.T, cfg tpch.Config, threshold float64, wrap func(core.Estimator) core.Estimator) (*storage.Database, *optimizer.Optimizer) {
	t.Helper()
	cfg.Seed = 2005
	db, err := tpch.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(2005^0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	var est core.Estimator
	if est, err = core.NewBayesEstimator(syn, core.ConfidenceThreshold(threshold)); err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		est = wrap(est)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	return db, opt
}

// TestZoneFloatBetweenKeepsZoneSkipping: a BETWEEN over the Float
// l_extendedprice behind a ship-date range ends the pushable prefix
// instead of making the whole filter unpushable. On ship-date-clustered
// lineitem the scan's zone maps skip tiles, exactly as with
// l_extendedprice < 2000 in the BETWEEN's place.
func TestZoneFloatBetweenKeepsZoneSkipping(t *testing.T) {
	_, opt := clusteredOptimizer(t, 20000, 0.8, nil)
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
		if e, ok := plan.EstimateOf(scan); !ok || e.SegsSkipped < 1 {
			t.Errorf("%s: snapshot segments %d/%d skipped (ok=%v), want at least one", price, e.SegsSkipped, e.SegsTotal, ok)
		}
	}
}

// recordingEstimator passes every request through and keeps it.
type recordingEstimator struct {
	core.Estimator
	reqs []core.Request
}

func (r *recordingEstimator) Estimate(req core.Request) (core.Estimate, error) {
	r.reqs = append(r.reqs, req)
	return r.Estimator.Estimate(req)
}

// TestZoneCeilingBoundsItsOwnRequest: a zone-map selectivity ceiling is
// exact evidence only about the conjuncts it was derived from. On
// ship-date-clustered lineitem at T=80%, every estimator request that
// carries a ceiling — the scan's joint request, and the index paths'
// single-conjunct marginals — must have its true selectivity at or below
// it. A ceiling taken from the whole ship-date range, attached to the
// l_receiptdate marginal, undercuts a true fraction several times
// larger, at a conservative threshold.
func TestZoneCeilingBoundsItsOwnRequest(t *testing.T) {
	rec := &recordingEstimator{}
	db, opt := clusteredOptimizer(t, 60000, 0.8, func(e core.Estimator) core.Estimator {
		rec.Estimator = e
		return rec
	})
	queries := []*optimizer.Query{{Tables: []string{"lineitem"}, Pred: testkit.Expr(
		"l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-07-20' AND l_receiptdate BETWEEN DATE '1996-01-01' AND DATE '1997-12-31'")}}
	for _, shift := range []int64{0, 60, 119} {
		queries = append(queries, tpch.Experiment1Query(shift))
	}
	for _, q := range queries {
		name := q.Pred.String()
		rec.reqs = nil
		if _, err := opt.Optimize(q); err != nil {
			t.Fatal(err)
		}
		ceilings := 0
		for _, req := range rec.reqs {
			if req.MaxSelectivity <= 0 || req.MaxSelectivity >= 1 {
				continue
			}
			ceilings++
			exact, err := sample.ExactFraction(db, req.Tables, req.Pred)
			if err != nil {
				t.Fatal(err)
			}
			if exact > req.MaxSelectivity {
				t.Errorf("%s: request %v: true selectivity %.4f exceeds its zone ceiling %.4f", name, req.Pred, exact, req.MaxSelectivity)
			}
		}
		if ceilings == 0 {
			t.Errorf("%s: no request carried a zone ceiling; the fixture tests nothing", name)
		}
	}
}

// TestParallelCutoffCountsLiveRows: a sequential scan's parallel cutoff
// compares the rows it reads — those of the tiles its pushed bounds do
// not exclude — not the table's. On 60,000 ship-date-clustered lineitem
// rows a 30-day ship-date range reads a few tiles and stays serial at
// MaxDOP 2, a two-year range parallelizes, and either returns the serial
// plan's rows and counters.
func TestParallelCutoffCountsLiveRows(t *testing.T) {
	_, opt := clusteredOptimizer(t, 60000, 0.8, nil)
	for _, tc := range []struct {
		pred     string
		parallel bool
	}{
		{"l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-30'", false},
		{"l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1995-12-31'", true},
	} {
		q := &optimizer.Query{Tables: []string{"lineitem"}, Pred: testkit.Expr(tc.pred)}
		opt.MaxDOP = 0
		serial, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		scan, ok := serial.Root.(*engine.SeqScan)
		if !ok {
			t.Fatalf("%s: plan root is %T, want SeqScan:\n%s", tc.pred, serial.Root, serial.Explain())
		}
		e, _ := serial.EstimateOf(scan)
		live := (e.SegsTotal - e.SegsSkipped) * storage.SegmentRows
		if tab, _ := opt.Ctx.DB.Table("lineitem"); tab.NumRows() < optimizer.DefaultParallelCutoff || (live < optimizer.DefaultParallelCutoff) == tc.parallel {
			t.Fatalf("%s: fixture reads %d of %d tiles; the case tests nothing", tc.pred, e.SegsTotal-e.SegsSkipped, e.SegsTotal)
		}
		opt.MaxDOP = 2
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plan.Root.(*engine.Exchange); ok != tc.parallel {
			t.Fatalf("%s: parallel %v, want %v:\n%s", tc.pred, ok, tc.parallel, plan.Explain())
		}
		sres, sc, _, err := engine.Run(opt.Ctx, serial.Root)
		if err != nil {
			t.Fatal(err)
		}
		pres, pc, _, err := engine.Run(opt.Ctx, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		if len(sres.Rows) != len(pres.Rows) || sc != pc {
			t.Fatalf("%s: serial %d rows %+v, DOP 2 %d rows %+v", tc.pred, len(sres.Rows), sc, len(pres.Rows), pc)
		}
	}
}
