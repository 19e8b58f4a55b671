package core

import (
	"testing"

	"robustqo/internal/testkit"
)

// TestBayesMaxSelectivityConditioning pins the zone-map bound semantics:
// conditioning the posterior on an exact upper bound sel ≤ f never
// raises the estimate (at T=50% and T=95%), never exceeds the bound, and
// is a no-op when the bound is absent or vacuous. The true selectivity
// of the probe predicate is ~0.10, so the bound grid brackets it from
// both sides.
func TestBayesMaxSelectivityConditioning(t *testing.T) {
	db := corrDB(t, 5000, 50)
	for _, thr := range []ConfidenceThreshold{0.50, 0.95} {
		bayes, _ := buildEstimators(t, db, thr)
		req := Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 10")}
		free, err := bayes.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		freePost, err := bayes.Distribution(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{0.5, 0.12, 0.05, 0.01} {
			req.MaxSelectivity = f
			got, err := bayes.Estimate(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Selectivity > free.Selectivity+1e-12 {
				t.Errorf("T=%v f=%g: conditioned %g exceeds unconditioned %g", thr, f, got.Selectivity, free.Selectivity)
			}
			if got.Selectivity > f {
				t.Errorf("T=%v f=%g: estimate %g violates the hard bound", thr, f, got.Selectivity)
			}
			// The bound conditions the quantile, not the evidence.
			if post, err := bayes.Distribution(req); err != nil || post != freePost {
				t.Errorf("T=%v f=%g: posterior %v should stay unconditioned %v (%v)", thr, f, post, freePost, err)
			}
		}
		// A bound well below the posterior mass pins the estimate near it.
		req.MaxSelectivity = 0.01
		got, err := bayes.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Selectivity < 0.001 {
			t.Errorf("T=%v: tight bound collapsed the estimate to %g", thr, got.Selectivity)
		}
		// Absent / vacuous bounds change nothing.
		for _, f := range []float64{0, 1, 1.5} {
			req.MaxSelectivity = f
			got, err := bayes.Estimate(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Selectivity != free.Selectivity {
				t.Errorf("T=%v f=%g: vacuous bound moved estimate %g -> %g", thr, f, free.Selectivity, got.Selectivity)
			}
		}
	}

	// The bound caps the non-quantile rules too.
	bayes, _ := buildEstimators(t, db, 0.5)
	for _, rule := range []EstimationRule{RuleMean, RuleML} {
		e := &BayesEstimator{Synopses: bayes.Synopses, Prior: Jeffreys, Rule: rule, Quantiles: bayes.Quantiles}
		got, err := e.Estimate(Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 10"), MaxSelectivity: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if got.Selectivity > 0.02 {
			t.Errorf("%s: estimate %g violates the bound", rule, got.Selectivity)
		}
	}
}

// TestEstimateMonotoneInThreshold is the precondition of the paper's §3
// substitution: a plan costed at cdf⁻¹(T) can only get dearer as T rises
// if every estimate does. Over a grid of T, the quantile estimate never
// falls — unpartitioned and over shard subsets, unbounded and under
// zone-map ceilings, including ceilings so far below the posterior mass
// that CDF(f) underflows and the bound itself is the estimate.
func TestEstimateMonotoneInThreshold(t *testing.T) {
	base, _ := partFactEstimator(t)
	var ts []ConfidenceThreshold
	for _, x := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99} {
		ts = append(ts, ConfidenceThreshold(x))
	}
	degenerate := 0
	for _, tables := range [][]string{{"fact"}, {"fact", "dim"}} {
		for _, pred := range []string{"f_a < 0", "f_a < 1", "f_a < 10", "f_a < 60", "f_a >= 0", "f_a < 30 AND f_key >= 150"} {
			if len(tables) == 2 {
				pred += " AND d_attr < 4"
			}
			for _, parts := range [][]int{nil, {2}, {0, 3}, {}} {
				for _, f := range []float64{0, 0.9, 0.2, 0.02, 1e-4, 1e-200} {
					req := Request{Tables: tables, Pred: testkit.Expr(pred), Partitions: parts, MaxSelectivity: f}
					post, err := base.Distribution(req)
					if err != nil {
						t.Fatal(err)
					}
					if f > 0 && post.CDF(f) == 0 {
						degenerate++
					}
					prev := 0.0
					for _, thr := range ts {
						e, err := base.WithThreshold(thr)
						if err != nil {
							t.Fatal(err)
						}
						got, err := e.Estimate(req)
						if err != nil {
							t.Fatal(err)
						}
						if got.Selectivity < prev {
							t.Errorf("%v %q parts=%v f=%g: estimate falls to %g at %v from %g", tables, pred, parts, f, got.Selectivity, thr, prev)
						}
						prev = got.Selectivity
					}
				}
			}
		}
	}
	if degenerate == 0 {
		t.Error("no request reached the degenerate truncation; the branch went untested")
	}
}
