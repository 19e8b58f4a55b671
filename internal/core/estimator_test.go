package core

import (
	"math"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/histogram"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// corrDB builds a fact table with two perfectly correlated columns and a
// filtered dimension, so the histogram and Bayes estimators diverge.
func corrDB(t *testing.T, nFact, nDim int) *storage.Database {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	dim, err := db.CreateTable(&catalog.TableSchema{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "d_id", Type: catalog.Int},
			{Name: "d_attr", Type: catalog.Int},
		},
		PrimaryKey: "d_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&catalog.TableSchema{
		Name: "fact",
		Columns: []catalog.Column{
			{Name: "f_id", Type: catalog.Int},
			{Name: "f_dim", Type: catalog.Int},
			{Name: "f_a", Type: catalog.Int},
			{Name: "f_b", Type: catalog.Int},
		},
		PrimaryKey: "f_id",
		Foreign:    []catalog.ForeignKey{{Column: "f_dim", RefTable: "dim"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(21)
	for d := 0; d < nDim; d++ {
		_ = dim.Append(value.Row{value.Int(int64(d)), value.Int(int64(d % 10))})
	}
	for i := 0; i < nFact; i++ {
		a := int64(testkit.Intn(rng, 100))
		_ = fact.Append(value.Row{
			value.Int(int64(i)),
			value.Int(int64(testkit.Intn(rng, nDim))),
			value.Int(a),
			value.Int(a), // perfectly correlated with f_a
		})
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func buildEstimators(t *testing.T, db *storage.Database, threshold ConfidenceThreshold) (*BayesEstimator, *HistogramEstimator) {
	t.Helper()
	syn, err := sample.BuildAll(db, 500, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	bayes, err := NewBayesEstimator(syn, threshold)
	if err != nil {
		t.Fatal(err)
	}
	hists, err := histogram.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := NewHistogramEstimator(hists, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	return bayes, hist
}

func TestNewBayesEstimatorValidation(t *testing.T) {
	db := corrDB(t, 100, 10)
	syn, _ := sample.BuildAll(db, 50, stats.NewRNG(1))
	if _, err := NewBayesEstimator(nil, 0.5); err == nil {
		t.Error("nil synopses accepted")
	}
	if _, err := NewBayesEstimator(syn, 0); err == nil {
		t.Error("bad threshold accepted")
	}
	e, err := NewBayesEstimator(syn, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if e.Prior != Jeffreys {
		t.Error("default prior not Jeffreys")
	}
	if !containsAll(e.Name(), "bayes", "80") {
		t.Errorf("Name = %q", e.Name())
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestBayesSeesCorrelationHistogramDoesNot(t *testing.T) {
	db := corrDB(t, 20000, 100)
	bayes, hist := buildEstimators(t, db, 0.5)
	req := Request{
		Tables: []string{"fact"},
		Pred:   testkit.Expr("f_a < 50 AND f_b < 50"),
	}
	// Truth is ~0.5 (columns identical).
	bEst, err := bayes.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bEst.Selectivity-0.5) > 0.08 {
		t.Errorf("bayes = %g, want ~0.5", bEst.Selectivity)
	}
	hEst, err := hist.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hEst.Selectivity-0.25) > 0.05 {
		t.Errorf("hist = %g, want ~0.25 (the AVI error)", hEst.Selectivity)
	}
	// The Bayes estimate is the T-quantile of the posterior Distribution.
	post, err := bayes.Distribution(req)
	if err != nil {
		t.Fatal(err)
	}
	if q := testkit.Quantile(post, 0.5); math.Abs(bEst.Selectivity-q) > 1e-9 {
		t.Errorf("bayes = %g, posterior median %g", bEst.Selectivity, q)
	}
	if math.Abs(bEst.Rows-bEst.Selectivity*20000) > 1e-6 {
		t.Errorf("bayes Rows = %g", bEst.Rows)
	}
}

func TestBayesJoinEstimateUsesRootSynopsis(t *testing.T) {
	db := corrDB(t, 10000, 100)
	bayes, _ := buildEstimators(t, db, 0.5)
	req := Request{
		Tables: []string{"fact", "dim"},
		Pred:   testkit.Expr("d_attr = 3 AND f_a < 50"),
	}
	est, err := bayes.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	// d_attr = 3 selects 10% of dims; f_a < 50 selects ~50% of facts;
	// independent by construction, so joint ~5%.
	if math.Abs(est.Selectivity-0.05) > 0.03 {
		t.Errorf("join selectivity = %g, want ~0.05", est.Selectivity)
	}
	k, n, pop, err := bayes.Observe(req)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 || pop != 10000 || k < 0 || k > n {
		t.Errorf("Observe = %d/%d pop %d", k, n, pop)
	}
	dist, err := bayes.Distribution(req)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Alpha != float64(k)+0.5 || dist.Beta != float64(n-k)+0.5 {
		t.Errorf("Distribution = Beta(%g,%g), k=%d", dist.Alpha, dist.Beta, k)
	}
}

func TestBayesThresholdShiftsEstimate(t *testing.T) {
	db := corrDB(t, 5000, 50)
	bayes, _ := buildEstimators(t, db, 0.05)
	req := Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 10")}
	low, err := bayes.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	high, err := bayes.WithThreshold(0.95)
	if err != nil {
		t.Fatal(err)
	}
	hEst, err := high.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if low.Selectivity >= hEst.Selectivity {
		t.Errorf("T=5%% (%g) should be below T=95%% (%g)", low.Selectivity, hEst.Selectivity)
	}
	if _, err := bayes.WithThreshold(2); err == nil {
		t.Error("WithThreshold(2) accepted")
	}
}

func TestBayesEstimateErrors(t *testing.T) {
	db := corrDB(t, 1000, 10)
	bayes, _ := buildEstimators(t, db, 0.5)
	if _, err := bayes.Estimate(Request{Tables: []string{"ghost"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := bayes.Estimate(Request{Tables: []string{"fact"}, Pred: testkit.Expr("nope = 1")}); err == nil {
		t.Error("unknown column accepted")
	}
	bad := &BayesEstimator{Synopses: bayes.Synopses, Prior: Jeffreys, Threshold: 0}
	if _, err := bad.Estimate(Request{Tables: []string{"fact"}}); err == nil {
		t.Error("invalid threshold accepted")
	}
}

func TestHistogramEstimatorBasics(t *testing.T) {
	db := corrDB(t, 5000, 50)
	_, hist := buildEstimators(t, db, 0.5)
	if hist.Name() == "" {
		t.Error("empty name")
	}
	est, err := hist.Estimate(Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 50")})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Selectivity-0.5) > 0.05 {
		t.Errorf("marginal = %g", est.Selectivity)
	}
	if math.Abs(est.Rows-est.Selectivity*5000) > 1e-6 {
		t.Errorf("Rows = %g", est.Rows)
	}
	if _, err := hist.Estimate(Request{Tables: []string{"ghost"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := NewHistogramEstimator(nil, db.Catalog); err == nil {
		t.Error("nil stats accepted")
	}
}

func TestMagicEstimator(t *testing.T) {
	db := corrDB(t, 1000, 10)
	m := &MagicEstimator{
		Selectivity: 0.1,
		Catalog:     db.Catalog,
		RowsFor: func(table string) (int, bool) {
			if tab, ok := db.Table(table); ok {
				return tab.NumRows(), true
			}
			return 0, false
		},
	}
	if m.Name() != "magic" {
		t.Errorf("Name = %q", m.Name())
	}
	est, err := m.Estimate(Request{Tables: []string{"fact"}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Selectivity != 0.1 || est.Rows != 100 {
		t.Errorf("magic = %+v", est)
	}
	if _, err := m.Estimate(Request{}); err == nil {
		t.Error("no tables accepted")
	}
	bad := &MagicEstimator{Selectivity: 2}
	if _, err := bad.Estimate(Request{Tables: []string{"fact"}}); err == nil {
		t.Error("selectivity 2 accepted")
	}
}

func TestMagicDistribution(t *testing.T) {
	d, _ := stats.NewBeta(2, 8)
	m := &MagicEstimator{Distribution: &d, Threshold: 0.8}
	est, err := m.Estimate(Request{Tables: []string{"t"}})
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.Quantile(d, 0.8)
	if math.Abs(est.Selectivity-want) > 1e-9 {
		t.Errorf("magic distribution = %g, want %g", est.Selectivity, want)
	}
	mBad := &MagicEstimator{Distribution: &d, Threshold: 0}
	if _, err := mBad.Estimate(Request{Tables: []string{"t"}}); err == nil {
		t.Error("invalid threshold accepted")
	}
}

func TestChainFallsBack(t *testing.T) {
	db := corrDB(t, 2000, 20)
	bayes, hist := buildEstimators(t, db, 0.5)
	chain := &Chain{Estimators: []Estimator{bayes, hist, &MagicEstimator{Selectivity: 0.1}}}
	// A request the Bayes estimator can answer.
	req := Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 50")}
	est, err := chain.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := bayes.Estimate(req); est != want {
		t.Errorf("chain answered %+v, bayes %+v: bayes not used first", est, want)
	}
	// A request the sample cannot bind (unknown column) falls through to
	// the histograms, which magic-fallback on it.
	req = Request{Tables: []string{"fact"}, Pred: testkit.Expr("mystery_column = 1")}
	if _, _, _, err := bayes.Observe(req); err == nil {
		t.Fatal("bayes observed an unknown column")
	}
	est, err = chain.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := hist.Estimate(req); est != want {
		t.Errorf("fallback estimate %+v, histograms %+v", est, want)
	}
	empty := &Chain{}
	if _, err := empty.Estimate(Request{Tables: []string{"fact"}}); err == nil {
		t.Error("empty chain succeeded")
	}
	if empty.Name() != "chain()" {
		t.Errorf("empty chain name = %q", empty.Name())
	}
	if !containsAll(chain.Name(), "chain", "bayes") {
		t.Errorf("chain name = %q", chain.Name())
	}
}

func TestGroupByCardinality(t *testing.T) {
	db := corrDB(t, 5000, 50)
	syns, _ := sample.BuildAll(db, 400, stats.NewRNG(5))
	syn, _ := syns.Synopsis("fact")
	est, err := GroupByCardinality(syn, []expr.ColumnRef{{Table: "fact", Column: "f_a"}})
	if err != nil {
		t.Fatal(err)
	}
	// f_a has 100 distinct values.
	if est < 50 || est > 300 {
		t.Errorf("group-by cardinality = %g, want near 100", est)
	}
	if _, err := GroupByCardinality(syn, nil); err == nil {
		t.Error("no group columns accepted")
	}
	if _, err := GroupByCardinality(nil, []expr.ColumnRef{{Column: "x"}}); err == nil {
		t.Error("nil synopsis accepted")
	}
	if _, err := GroupByCardinality(syn, []expr.ColumnRef{{Column: "ghost"}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestEstimationRules(t *testing.T) {
	db := corrDB(t, 5000, 50)
	syn, err := sample.BuildAll(db, 500, stats.NewRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 10")}
	base, err := NewBayesEstimator(syn, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	k, n, _, err := base.Observe(req)
	if err != nil {
		t.Fatal(err)
	}
	mean := *base
	mean.Rule = RuleMean
	ml := *base
	ml.Rule = RuleML
	eMean, err := mean.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eMean.Selectivity-(float64(k)+0.5)/(float64(n)+1)) > 1e-12 {
		t.Errorf("mean rule = %g", eMean.Selectivity)
	}
	eML, err := ml.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if eML.Selectivity != float64(k)/float64(n) {
		t.Errorf("ML rule = %g, want %g", eML.Selectivity, float64(k)/float64(n))
	}
	// Non-quantile rules ignore an invalid threshold.
	mlBadT := ml
	mlBadT.Threshold = 0
	if _, err := mlBadT.Estimate(req); err != nil {
		t.Errorf("ML with unset threshold failed: %v", err)
	}
	// Unknown rules error.
	bad := *base
	bad.Rule = EstimationRule(9)
	if _, err := bad.Estimate(req); err == nil {
		t.Error("unknown rule accepted")
	}
	// Names distinguish the rules.
	if !containsAll(mean.Name(), "posterior-mean") || !containsAll(ml.Name(), "max-likelihood") {
		t.Errorf("names: %q, %q", mean.Name(), ml.Name())
	}
	if !containsAll(EstimationRule(9).String(), "9") {
		t.Error("unknown rule string")
	}
}
