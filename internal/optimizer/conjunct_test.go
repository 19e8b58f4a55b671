package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// TestConstantConjuncts: a conjunct without columns filters like any
// other. 1 = 0 empties a one-table and a join query, and estimates them
// at no rows; 1 = 1 changes no answer.
func TestConstantConjuncts(t *testing.T) {
	db, ctx := optDB(t, 2000, 40)
	o := exactOpt(t, db, ctx)
	count := func(tables []string, pred string) (int, *Plan) {
		t.Helper()
		q := &Query{Tables: tables}
		if pred != "" {
			q.Pred = testkit.Expr(pred)
		}
		plan, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := engine.Run(ctx, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows), plan
	}
	for _, tables := range [][]string{{"lineitem"}, {"lineitem", "orders"}, {"lineitem", "orders", "part"}} {
		for _, pred := range []string{"", "l_ship < 500", "orders.o_total < 500"} {
			if pred == "orders.o_total < 500" && len(tables) == 1 {
				continue
			}
			want, _ := count(tables, pred)
			and := func(c string) string {
				if pred == "" {
					return c
				}
				return pred + " AND " + c
			}
			if got, plan := count(tables, and("1 = 0")); got != 0 || plan.EstRows != 0 {
				t.Errorf("%v where %s: %d rows, estimated %g, want none\n%s", tables, and("1 = 0"), got, plan.EstRows, plan.Explain())
			}
			if got, plan := count(tables, and("1 = 1")); got != want {
				t.Errorf("%v where %s: %d rows, want %d\n%s", tables, and("1 = 1"), got, want, plan.Explain())
			}
		}
	}
}

// countingEstimator is the oracle worlds' estimator recording each
// question it is asked: the table set and the predicate, whose conjuncts
// come in query order.
type countingEstimator struct {
	*groupsMemo
	asked map[string]int
}

func (c *countingEstimator) Estimate(req core.Request) (core.Estimate, error) {
	c.asked[fmt.Sprint(req.Tables, "|", req.Pred)]++
	return c.groupsMemo.Estimate(req)
}

// countingOptimizer returns an optimizer over w at T whose estimator
// counts its questions.
func countingOptimizer(t testing.TB, w *oracleWorld, threshold float64) (*Optimizer, *countingEstimator) {
	t.Helper()
	o := w.optimizer(t, threshold)
	c := &countingEstimator{groupsMemo: o.Est.(*groupsMemo)}
	o.Est = c
	return o, c
}

// optimizeCounting optimizes q afresh and returns the plan and the
// estimator's questions, by question.
func optimizeCounting(t *testing.T, o *Optimizer, c *countingEstimator, q *Query) (*Plan, map[string]int) {
	t.Helper()
	c.asked = make(map[string]int)
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan, c.asked
}

// treeFingerprints lists the ledger fingerprints of plan's tree, in
// tree order.
func treeFingerprints(plan *Plan) []string {
	var out []string
	var walk func(n engine.Node)
	walk = func(n engine.Node) {
		s, _ := plan.EstimateOf(n)
		out = append(out, s.Fingerprint)
		for _, k := range engine.Children(n) {
			walk(k)
		}
	}
	walk(plan.Root)
	return out
}

// TestEstimatorAskedOncePerQuestion: over the oracle worlds' generated
// queries, Optimize asks the estimator each (table set, conjunct set) at
// most once. Reversing the WHERE clause's conjuncts changes neither the
// cost of the chosen plan, nor the number of questions, nor the chosen
// tree's fingerprints: the planner's questions are conjunct sets, not
// texts.
func TestEstimatorAskedOncePerQuestion(t *testing.T) {
	for _, w := range oracleWorlds(t) {
		o, c := countingOptimizer(t, w, 0.8)
		rng := stats.NewRNG(41)
		reordered := 0
		for range 3 * w.trials {
			q := w.query(rng)
			plan, asked := optimizeCounting(t, o, c, q)
			for question, n := range asked {
				if n > 1 {
					t.Errorf("%s: %v where %v: asked %q %d times", w.name, q.Tables, q.Pred, question, n)
				}
			}
			terms := slices.Clone(expr.SplitConjuncts(q.Pred))
			if len(terms) < 2 {
				continue
			}
			reordered++
			slices.Reverse(terms)
			r := *q
			r.Pred = expr.Conj(terms...)
			rplan, rasked := optimizeCounting(t, o, c, &r)
			if !cost.ApproxEqual(plan.EstCost, rplan.EstCost) || len(asked) != len(rasked) {
				t.Errorf("%s: %v where %v: cost %.6g after %d questions, reversed %.6g after %d",
					w.name, q.Tables, q.Pred, plan.EstCost, len(asked), rplan.EstCost, len(rasked))
			}
			if fp, rfp := treeFingerprints(plan), treeFingerprints(rplan); !slices.Equal(fp, rfp) {
				t.Errorf("%s: %v where %v: fingerprints %q, reversed %q", w.name, q.Tables, q.Pred, fp, rfp)
			}
		}
		if reordered < 10 {
			t.Errorf("%s: only %d queries with two or more conjuncts", w.name, reordered)
		}
	}
}

// BenchmarkOptimizeCold optimizes a fixed set of multi-table tpch
// oracle-world queries at T = 0.8, each from scratch: no plan cache,
// only the estimator's quantile cache is shared.
func BenchmarkOptimizeCold(b *testing.B) {
	db, ctx := optDB(b, 20000, 40)
	w := &oracleWorld{ctx: ctx, syns: buildSynopses(b, db)}
	o := w.optimizer(b, 0.8)
	rng := stats.NewRNG(53)
	var qs []*Query
	for len(qs) < 32 {
		if q := tpchQuery(rng); len(q.Tables) > 1 {
			qs = append(qs, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, err := o.Optimize(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
