package main

// Observability plumbing shared by the query, sql, and serve
// subcommands: the -analyze / -trace-out flags, instrumented execution
// with EXPLAIN ANALYZE rendering, query metrics, and trace export.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
)

// obsFlags are the observability options shared by query and sql.
type obsFlags struct {
	analyze     bool
	traceOut    string
	traceFormat string
}

func (f *obsFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&f.analyze, "analyze", false,
		"print the EXPLAIN ANALYZE plan tree (estimated vs actual rows, Q-error, timings)")
	fs.StringVar(&f.traceOut, "trace-out", "",
		"write the optimizer+execution trace to this file")
	fs.StringVar(&f.traceFormat, "trace-format", "json",
		"trace file format: json or chrome (chrome://tracing)")
}

// trace returns the trace to thread through the optimizer and engine:
// non-nil only when an export was requested.
func (f *obsFlags) trace() *obs.Trace {
	if f.traceOut == "" {
		return nil
	}
	return obs.NewTrace("robustqo")
}

// buildEstimator constructs the named cardinality estimator over the
// generated database.
func buildEstimator(db *storage.Database, name string, threshold float64, sampleSize int, seed uint64) (core.Estimator, error) {
	switch name {
	case "robust":
		syn, err := sample.BuildAll(db, sampleSize, stats.NewRNG(seed^0xbeef))
		if err != nil {
			return nil, err
		}
		return core.NewBayesEstimator(syn, core.ConfidenceThreshold(threshold))
	case "histogram":
		hists, err := histogram.BuildAll(db)
		if err != nil {
			return nil, err
		}
		return core.NewHistogramEstimator(hists, db.Catalog)
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
}

// executePlan runs the plan under instrumentation (a zero-overhead
// pass-through when tracing is off — see the parity tests in
// internal/engine), prints the simulated-execution line, renders the
// EXPLAIN ANALYZE tree when requested, records query metrics into the
// default registry, and exports the trace.
func executePlan(ctx *engine.Context, plan *optimizer.Plan, tr *obs.Trace, f *obsFlags, out io.Writer) (*engine.Result, error) {
	inst := engine.InstrumentTrace(plan.Root, tr)
	res, counters, simTime, err := engine.Run(ctx, inst)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "simulated execution: %.4f s  (%s)\n", simTime, counters)
	if f.analyze {
		fmt.Fprint(out, "EXPLAIN ANALYZE:\n")
		fmt.Fprint(out, engine.ExplainAnalyze(inst, engine.AnalyzeOptions{
			EstimateOf: plan.EstimateOf,
			Timings:    true,
		}))
	}
	recordQueryMetrics(obs.Default, plan, inst)
	if f.traceOut != "" {
		if err := exportTrace(tr, f.traceOut, f.traceFormat); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace written to %s (%d spans, %s format)\n", f.traceOut, tr.Len(), f.traceFormat)
	}
	return res, nil
}

// recordQueryMetrics feeds one executed query into the metrics
// registry: totals, the chosen join order keyed by the confidence
// threshold it was planned under, and the per-operator-type Q-error
// distribution (plan-vs-actual cardinality feedback).
func recordQueryMetrics(reg *obs.Registry, plan *optimizer.Plan, inst *engine.Instrumented) {
	reg.Counter("robustqo_queries_total").Inc()
	reg.Counter("robustqo_rows_returned_total").Add(inst.Stats.Rows)
	reg.Counter("robustqo_plans_total",
		obs.Label{Key: "order", Value: strings.Join(engine.LeafTables(inst), ",")},
		obs.Label{Key: "t", Value: fmt.Sprintf("%g", plan.Confidence())},
	).Inc()
	var walk func(in *engine.Instrumented)
	walk = func(in *engine.Instrumented) {
		if est, ok := plan.EstimateOf(in.Origin); ok {
			reg.Histogram("robustqo_qerror", obs.QErrorBuckets,
				obs.Label{Key: "op", Value: engine.OpName(in)},
			).Observe(obs.QError(est.Rows, float64(in.Stats.Rows)))
		}
		for _, k := range in.Kids {
			walk(k)
		}
	}
	walk(inst)
}

// exportTrace writes the trace to path in the requested format.
func exportTrace(tr *obs.Trace, path, format string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		err = tr.WriteJSON(fh)
	case "chrome":
		err = tr.WriteChrome(fh)
	default:
		err = fmt.Errorf("unknown trace format %q (want json or chrome)", format)
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}
