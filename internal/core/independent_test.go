package core

import (
	"errors"
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

// diamondDB builds a -> {b, c} -> d: the diamond that makes a's join
// synopsis ill-defined, forcing multi-table estimates rooted at a onto
// the independent-samples fallback.
func diamondDB(t *testing.T, nRoot int) *storage.Database {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	d, err := db.CreateTable(&catalog.TableSchema{
		Name:       "d",
		Columns:    []catalog.Column{{Name: "d_id", Type: catalog.Int}},
		PrimaryKey: "d_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	mkMid := func(name string) *storage.Table {
		tab, err := db.CreateTable(&catalog.TableSchema{
			Name: name,
			Columns: []catalog.Column{
				{Name: name + "_id", Type: catalog.Int},
				{Name: name + "_attr", Type: catalog.Int},
				{Name: name + "_d", Type: catalog.Int},
			},
			PrimaryKey: name + "_id",
			Foreign:    []catalog.ForeignKey{{Column: name + "_d", RefTable: "d"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	b := mkMid("b")
	c := mkMid("c")
	a, err := db.CreateTable(&catalog.TableSchema{
		Name: "a",
		Columns: []catalog.Column{
			{Name: "a_id", Type: catalog.Int},
			{Name: "a_attr", Type: catalog.Int},
			{Name: "a_b", Type: catalog.Int},
			{Name: "a_c", Type: catalog.Int},
		},
		PrimaryKey: "a_id",
		Foreign: []catalog.ForeignKey{
			{Column: "a_b", RefTable: "b"},
			{Column: "a_c", RefTable: "c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	const nMid = 200
	_ = d.Append(value.Row{value.Int(0)})
	for i := int64(1); i < 10; i++ {
		_ = d.Append(value.Row{value.Int(i)})
	}
	for i := int64(0); i < nMid; i++ {
		_ = b.Append(value.Row{value.Int(i), value.Int(int64(testkit.Intn(rng, 100))), value.Int(int64(testkit.Intn(rng, 10)))})
		_ = c.Append(value.Row{value.Int(i), value.Int(int64(testkit.Intn(rng, 100))), value.Int(int64(testkit.Intn(rng, 10)))})
	}
	for i := int64(0); i < int64(nRoot); i++ {
		_ = a.Append(value.Row{
			value.Int(i),
			value.Int(int64(testkit.Intn(rng, 100))),
			value.Int(int64(testkit.Intn(rng, nMid))),
			value.Int(int64(testkit.Intn(rng, nMid))),
		})
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestIndependentSamplesOnDiamond(t *testing.T) {
	db := diamondDB(t, 5000)
	set, err := sample.BuildAll(db, 500, stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	bayes, err := NewBayesEstimator(set, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Tables: []string{"a", "b", "c"},
		Pred:   testkit.Expr("a_attr < 50 AND b_attr < 50 AND c_attr < 50"),
	}
	// No synopsis covers the diamond.
	if _, _, _, err := bayes.Observe(req); !errors.Is(err, sample.ErrNoSynopsis) {
		t.Fatalf("observed a diamond join: %v", err)
	}
	// The estimate falls back to per-table samples and, with
	// independent-by-construction data, lands near the true joint
	// selectivity.
	est, err := bayes.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fallback != "independent" {
		t.Errorf("fallback = %q, want independent", est.Fallback)
	}
	truth := 0.5 * 0.5 * 0.5 // attributes independent by construction
	if math.Abs(est.Selectivity-truth) > 0.05 {
		t.Errorf("independent estimate = %g, want ~%g", est.Selectivity, truth)
	}
	if math.Abs(est.Rows-est.Selectivity*5000) > 1e-6 {
		t.Errorf("rows = %g", est.Rows)
	}
}

func TestIndependentSamplesSingleTableStillRobust(t *testing.T) {
	db := diamondDB(t, 5000)
	set, err := sample.BuildAll(db, 500, stats.NewRNG(29))
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := NewBayesEstimator(set, 0.05)
	hi, _ := lo.WithThreshold(0.95)
	// Only a's conjunct constrains the uncovered expression.
	req := Request{Tables: []string{"a", "b", "c"}, Pred: testkit.Expr("a_attr = 7")}
	eLo, err := lo.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	eHi, err := hi.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if eLo.Fallback != "independent" || eLo.Selectivity >= eHi.Selectivity {
		t.Errorf("threshold not respected: %+v vs %+v", eLo, eHi)
	}
}

func TestIndependentSamplesMagicContributions(t *testing.T) {
	db := diamondDB(t, 1000)
	set, err := sample.BuildAll(db, 200, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewBayesEstimator(set, 0.5)
	// a's sample covers only a, so a⋈b falls back. A cross-table
	// comparison cannot be attributed to one table: it contributes the
	// magic range constant.
	est, err := e.Estimate(Request{
		Tables: []string{"a", "b"},
		Pred:   testkit.Expr("a_attr < b_attr"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Selectivity-1.0/3) > 1e-9 {
		t.Errorf("cross-table magic = %g, want 1/3", est.Selectivity)
	}
	// Equality and other shapes use their own constants.
	est, err = e.Estimate(Request{Tables: []string{"a", "b"}, Pred: testkit.Expr("a_attr = b_attr")})
	if err != nil {
		t.Fatal(err)
	}
	if est.Selectivity != 0.10 {
		t.Errorf("eq magic = %g", est.Selectivity)
	}
	est, err = e.Estimate(Request{
		Tables: []string{"a", "b"},
		Pred:   testkit.Expr("a_attr < 10 OR b_attr < 10"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Selectivity != 0.10 { // OR term spans tables -> MagicOther
		t.Errorf("or magic = %g", est.Selectivity)
	}
}

// TestIndependentSamplesValidation: the fallback takes only requests no
// synopsis covers; every other failure, its own included, is returned.
func TestIndependentSamplesValidation(t *testing.T) {
	db := diamondDB(t, 100)
	set, _ := sample.BuildAll(db, 50, stats.NewRNG(3))
	good, _ := NewBayesEstimator(set, 0.5)
	bad := *good
	bad.Threshold = 0
	if _, err := bad.Estimate(Request{Tables: []string{"a", "b"}}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := good.Estimate(Request{}); err == nil {
		t.Error("no tables accepted")
	}
	if _, err := good.Estimate(Request{Tables: []string{"ghost"}}); err == nil {
		t.Error("unknown table accepted")
	}
	// A predicate over a known table but bad column errors at Count, on
	// the covered path and on the fallback.
	for _, tables := range [][]string{{"a"}, {"a", "b"}} {
		if _, err := good.Estimate(Request{Tables: tables, Pred: expr.Cmp{
			Op: expr.EQ, L: expr.TC("a", "a_attr"), R: expr.Arith{Op: expr.Div, L: expr.IntLit(1), R: expr.IntLit(0)},
		}}); err == nil {
			t.Errorf("%v: runtime eval error not propagated", tables)
		}
	}
}

func TestGroupsEstimators(t *testing.T) {
	db := diamondDB(t, 5000)
	set, err := sample.BuildAll(db, 500, stats.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	bayes, _ := NewBayesEstimator(set, 0.5)
	groups, err := bayes.EstimateGroups([]string{"b"}, []expr.ColumnRef{{Table: "b", Column: "b_attr"}})
	if err != nil {
		t.Fatal(err)
	}
	// b_attr has up to 100 distinct values over 200 rows.
	if groups < 30 || groups > 200 {
		t.Errorf("bayes groups = %g", groups)
	}
	if _, err := bayes.EstimateGroups([]string{"a", "b", "c"}, []expr.ColumnRef{{Column: "b_attr"}}); err == nil {
		t.Error("diamond group estimate succeeded")
	}

	hists, err := histogram.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	hist, _ := NewHistogramEstimator(hists, db.Catalog)
	groups, err = hist.EstimateGroups([]string{"b"}, []expr.ColumnRef{{Table: "b", Column: "b_attr"}})
	if err != nil {
		t.Fatal(err)
	}
	if groups < 30 || groups > 200 {
		t.Errorf("hist groups = %g", groups)
	}
	// Multi-column product capped at the table cardinality.
	groups, err = hist.EstimateGroups([]string{"a"}, []expr.ColumnRef{
		{Table: "a", Column: "a_attr"}, {Table: "a", Column: "a_b"}, {Table: "a", Column: "a_c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups > 5000 {
		t.Errorf("capped groups = %g", groups)
	}
	if _, err := hist.EstimateGroups([]string{"a"}, nil); err == nil {
		t.Error("no group columns accepted")
	}
}
