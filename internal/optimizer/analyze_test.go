package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// analyzeRun optimizes and executes one SPJ query under a Bayes estimator
// at threshold T and returns the deterministic EXPLAIN ANALYZE rendering
// (timings off) minus the final counters line.
func analyzeRun(t *testing.T, threshold float64, tr *obs.Trace) string {
	t.Helper()
	db, ctx := optDB(t, 2000, 10)
	set, err := sample.BuildAll(db, 200, stats.NewRNG(5))
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
	o.Trace = tr
	q := &Query{
		Tables: []string{"lineitem", "orders"},
		Pred:   testkit.Expr("l_ship BETWEEN 100 AND 200 AND orders.o_total < 500"),
		Limit:  5,
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	inst := engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{Trace: tr})
	if _, _, _, err := engine.Run(ctx, inst); err != nil {
		t.Fatal(err)
	}
	return engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
}

// TestExplainAnalyzeSPJPinned is the issue's acceptance check: one SPJ
// query run at two confidence thresholds, with the full annotated plan
// tree — estimated rows, actual rows, Q-error, and T per operator —
// pinned byte-for-byte. Everything in the pipeline is seeded, so any
// drift in estimation, planning, or rendering shows up here.
func TestExplainAnalyzeSPJPinned(t *testing.T) {
	got50 := analyzeRun(t, 0.50, nil)
	want50 := "Limit(5)  (est=5.0 act=5 q=1.00 T=50% batches=1)\n" +
		"  MergeJoin(orders.o_orderkey = lineitem.l_orderkey)  (est=81.6 act=97 q=1.19 T=50% batches=1)\n" +
		"    SeqScan(orders, filter=(orders.o_total < 500))  (est=257.5 act=254 q=1.01 T=50% segments: 0/1 skipped batches=1)\n" +
		"    SeqScan(lineitem, filter=(l_ship BETWEEN 100 AND 200))  (est=191.4 act=197 q=1.03 T=50% segments: 0/1 skipped batches=2)\n"
	if got50 != want50 {
		t.Errorf("T=0.50 mismatch:\ngot:\n%s\nwant:\n%s", got50, want50)
	}
	// The higher threshold must yield visibly more conservative (larger)
	// estimates for the same observations: the robustness knob at work.
	got95 := analyzeRun(t, 0.95, nil)
	want95 := "Limit(5)  (est=5.0 act=5 q=1.00 T=95% batches=1)\n" +
		"  MergeJoin(orders.o_orderkey = lineitem.l_orderkey)  (est=135.8 act=97 q=1.40 T=95% batches=1)\n" +
		"    SeqScan(orders, filter=(orders.o_total < 500))  (est=286.4 act=254 q=1.13 T=95% segments: 0/1 skipped batches=1)\n" +
		"    SeqScan(lineitem, filter=(l_ship BETWEEN 100 AND 200))  (est=266.8 act=197 q=1.35 T=95% segments: 0/1 skipped batches=2)\n"
	if got95 != want95 {
		t.Errorf("T=0.95 mismatch:\ngot:\n%s\nwant:\n%s", got95, want95)
	}
}

// TestOptimizerPhaseSpans checks the optimizer emits the documented phase
// spans, properly nested, plus estimate spans for uncached estimator
// calls and operator spans for the instrumented execution.
func TestOptimizerPhaseSpans(t *testing.T) {
	tr := obs.NewTrace("spj")
	analyzeRun(t, 0.80, tr)
	recs := tr.Records()
	byName := map[string][]obs.SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, want := range []string{
		"optimize", "optimize/analyze", "optimize/access-paths",
		"optimize/join-enumeration", "optimize/finalize", "estimate",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("no %q span; got %d spans", want, len(recs))
		}
	}
	root := byName["optimize"][0]
	for _, phase := range []string{"optimize/analyze", "optimize/access-paths", "optimize/join-enumeration", "optimize/finalize"} {
		for _, r := range byName[phase] {
			if r.Parent != root.ID {
				t.Errorf("%s span parent = %d, want optimize (%d)", phase, r.Parent, root.ID)
			}
		}
	}
	if len(byName["estimate"]) == 0 || byName["estimate"][0].Attrs["tables"] == "" {
		t.Error("estimate spans missing tables attribute")
	}
	// Operator spans from the instrumented execution ride the same trace.
	opSpans := 0
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "op:") {
			opSpans++
		}
	}
	if opSpans == 0 {
		t.Error("no operator spans recorded")
	}
}
