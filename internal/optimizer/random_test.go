package optimizer

import (
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// TestRandomQueriesMatchOracleProperty is the whole-pipeline property
// test: for randomized queries over one and two tables, whatever plan the
// optimizer picks — under the exact oracle, under the robust estimator at
// random thresholds, and under wildly wrong magic estimates — executing
// it returns exactly the true result cardinality. Estimation quality may
// change the plan; it must never change the answer.
func TestRandomQueriesMatchOracleProperty(t *testing.T) {
	db, ctx := optDB(t, 6000, 40)
	syns, err := sample.BuildAll(db, 300, stats.NewRNG(101))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(202)
	estimators := []core.Estimator{
		&exactEstimator{db: db},
	}
	for _, threshold := range []core.ConfidenceThreshold{0.05, 0.5, 0.95} {
		e, err := core.NewBayesEstimator(syns, threshold)
		if err != nil {
			t.Fatal(err)
		}
		estimators = append(estimators, e)
	}
	estimators = append(estimators, &fixedEstimator{db: db, sel: 0.001}, &fixedEstimator{db: db, sel: 0.9})

	randQuery := func() *Query {
		mkWindow := func(col string, width int64) expr.Expr {
			lo := int64(testkit.Intn(rng, 1000))
			return expr.Between{
				E:  expr.TC("lineitem", col),
				Lo: expr.IntLit(lo),
				Hi: expr.IntLit(lo + int64(testkit.Intn(rng, int(width)))),
			}
		}
		var terms []expr.Expr
		if testkit.Intn(rng, 2) == 0 {
			terms = append(terms, mkWindow("l_ship", 400))
		}
		if testkit.Intn(rng, 2) == 0 {
			terms = append(terms, mkWindow("l_receipt", 400))
		}
		if testkit.Intn(rng, 3) == 0 {
			terms = append(terms, expr.Cmp{
				Op: expr.LT,
				L:  expr.TC("lineitem", "l_price"),
				R:  expr.FloatLit(rng.Float64() * 100),
			})
		}
		tables := []string{"lineitem"}
		if testkit.Intn(rng, 2) == 0 {
			tables = append(tables, "part")
			terms = append(terms, expr.Cmp{
				Op: expr.LT,
				L:  expr.TC("part", "p_size"),
				R:  expr.IntLit(int64(testkit.Intn(rng, 50))),
			})
		}
		return &Query{Tables: tables, Pred: expr.Conj(terms...)}
	}

	for trial := 0; trial < 20; trial++ {
		q := randQuery()
		truth, err := sample.ExactFraction(db, q.Tables, q.Pred)
		if err != nil {
			t.Fatal(err)
		}
		want := int(truth*6000 + 0.5)
		for ei, est := range estimators {
			o, err := New(ctx, est)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := o.Optimize(q)
			if err != nil {
				t.Fatalf("trial %d est %d (%s): %v", trial, ei, est.Name(), err)
			}
			res, _, _, err := engine.Run(ctx, plan.Root)
			if err != nil {
				t.Fatalf("trial %d est %d: execute: %v\n%s", trial, ei, err, plan.Explain())
			}
			if len(res.Rows) != want {
				t.Fatalf("trial %d est %d (%s): %d rows, want %d\nquery: %v tables %v\n%s",
					trial, ei, est.Name(), len(res.Rows), want, q.Pred, q.Tables, plan.Explain())
			}
		}
	}
}
