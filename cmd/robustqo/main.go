// Command robustqo drives the reproduction: it regenerates any figure of
// the paper, lists the available experiments, and runs ad-hoc queries
// against a generated TPC-H-like database under either estimator.
//
// Usage:
//
//	robustqo list
//	robustqo experiment all | fig5 fig9 ... [flags]
//	robustqo query [flags] '<predicate over lineitem>'
//
// Run `robustqo <subcommand> -h` for per-subcommand flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"robustqo/internal/engine"
	"robustqo/internal/experiments"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/sqlparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "robustqo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return runList(out)
	case "experiment":
		return runExperiment(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	case "sql":
		return runSQL(args[1:], out)
	case "serve":
		return runServe(args[1:], out)
	case "ledger":
		return runLedger(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprint(out, `robustqo — robust query optimizer reproduction (SIGMOD 2005)

Subcommands:
  list                      list experiment ids (figures of the paper)
  experiment <ids...|all>   regenerate figures; -h for scaling flags
  query '<predicate>'       optimize+run a lineitem aggregate; -h for flags
  sql 'SELECT ...'          optimize+run a full SELECT over the TPC-H-like
                            schema (lineitem, orders, part); -h for flags
  serve                     debug HTTP server: /metrics, /query, pprof,
                            /debug/queries (in-flight progress + slow log),
                            /debug/ledger (cardinality feedback);
                            -debug-addr to pick the listen address
  ledger run|top|drift      run the feedback corpus and persist the
                            cardinality ledger; inspect a persisted ledger

query and sql accept -analyze (EXPLAIN ANALYZE: estimated vs actual rows
and Q-error per operator), -trace-out FILE [-trace-format json|chrome]
to export an optimizer+execution trace, and -partitions N to
range-partition lineitem on l_shipdate (pruned scans show up in the plan
and in EXPLAIN ANALYZE as "partitions: k/n"). Every sequential scan
skips the storage tiles its filter's zone maps exclude, and EXPLAIN
ANALYZE shows "segments: k/n skipped"; sql also accepts -cluster to lay
lineitem out in ship-date order so the date zone maps are selective.
`)
}

func runList(out io.Writer) error {
	for _, id := range experiments.IDs() {
		fmt.Fprintln(out, id)
	}
	return nil
}

func runExperiment(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(out)
	def := experiments.DefaultSystemConfig()
	lines := fs.Int("lines", def.Lines, "lineitem rows for Experiments 1-2")
	parts := fs.Int("parts", def.Parts, "part rows for Experiment 2")
	fact := fs.Int("fact", def.FactRows, "fact rows for Experiment 3")
	dims := fs.Int("dimrows", def.DimRows, "dimension rows for Experiment 3")
	sampleSize := fs.Int("samplesize", def.SampleSize, "synopsis tuples")
	samples := fs.Int("samples", def.Samples, "independent sample sets to average over")
	seed := fs.Uint64("seed", def.Seed, "base random seed")
	format := fs.String("format", "text", "output format: text or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("experiment: name at least one figure id or 'all'")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	cfg := def
	cfg.Lines = *lines
	cfg.Parts = *parts
	cfg.FactRows = *fact
	cfg.DimRows = *dims
	cfg.SampleSize = *sampleSize
	cfg.Samples = *samples
	cfg.Seed = *seed
	for _, id := range ids {
		figs, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", id, err)
		}
		for _, f := range figs {
			switch *format {
			case "text":
				if err := f.Render(out); err != nil {
					return err
				}
			case "csv":
				if err := f.CSV(out); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown format %q", *format)
			}
		}
	}
	return nil
}

// cliFlags are the flags query and sql share: the database, and what to
// print besides the result.
type cliFlags struct {
	dbFlags
	explain     bool
	analyze     bool
	traceOut    string
	traceFormat string
}

func (f *cliFlags) register(fs *flag.FlagSet) {
	f.dbFlags.register(fs)
	f.registerPartitions(fs)
	fs.BoolVar(&f.explain, "explain", false, "print the plan without executing")
	fs.BoolVar(&f.analyze, "analyze", false,
		"print the EXPLAIN ANALYZE plan tree (estimated vs actual rows, Q-error, timings)")
	fs.StringVar(&f.traceOut, "trace-out", "",
		"write the optimizer+execution trace to this file")
	fs.StringVar(&f.traceFormat, "trace-format", "json",
		"trace file format: json or chrome (chrome://tracing)")
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(out)
	var f cliFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: provide exactly one predicate string (got %d args)", fs.NArg())
	}
	pred, err := expr.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	q := &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   pred,
		Aggs: []engine.AggSpec{
			{Func: engine.Count, As: "n"},
			{Func: engine.Sum, Arg: expr.TC("lineitem", "l_extendedprice"), As: "revenue"},
		},
	}
	return runStatement(&f, fs.Arg(0), q, math.MaxInt, out)
}

func runSQL(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	fs.SetOutput(out)
	var f cliFlags
	f.register(fs)
	fs.BoolVar(&f.cluster, "cluster", false, "lay lineitem out in l_shipdate order so date zone maps are selective")
	maxRows := fs.Int("maxrows", 20, "print at most this many result rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sql: provide exactly one SELECT statement (got %d args)", fs.NArg())
	}
	q, err := sqlparse.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	return runStatement(&f, fs.Arg(0), q, *maxRows, out)
}

// runStatement runs one statement through the query lifecycle and prints
// the plan, the simulated execution, the EXPLAIN ANALYZE tree and trace
// when asked, and at most maxRows result rows.
func runStatement(f *cliFlags, sqlText string, q *optimizer.Query, maxRows int, out io.Writer) error {
	s, err := newServer(f.dbFlags, out)
	if err != nil {
		return err
	}
	req := request{sql: sqlText, q: q}
	if f.traceOut != "" {
		req.trace = obs.NewTrace("robustqo")
	}
	if f.explain {
		plan, _, err := s.plan(req, s.est, s.dop)
		if err != nil {
			return err
		}
		printPlan(out, plan)
		return nil
	}
	o, err := s.execute(context.Background(), req)
	if err != nil {
		return err
	}
	printPlan(out, o.plan)
	fmt.Fprintf(out, "simulated execution: %.4f s  (%s)\n", o.sim, o.counters)
	if f.analyze {
		fmt.Fprint(out, "EXPLAIN ANALYZE:\n", o.analyze())
	}
	if f.traceOut != "" {
		if err := exportTrace(req.trace, f.traceOut, f.traceFormat); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (%d spans, %s format)\n", f.traceOut, req.trace.Len(), f.traceFormat)
	}
	header := make([]string, len(o.res.Schema.Fields))
	for i, fd := range o.res.Schema.Fields {
		if fd.Table != "" {
			header[i] = fd.Table + "." + fd.Column
		} else {
			header[i] = fd.Column
		}
	}
	fmt.Fprintln(out, strings.Join(header, "\t"))
	for i, r := range o.res.Rows {
		if i == maxRows {
			fmt.Fprintf(out, "... (%d more rows)\n", len(o.res.Rows)-i)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(o.res.Rows))
	return nil
}

func printPlan(out io.Writer, plan *optimizer.Plan) {
	fmt.Fprintf(out, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan:\n%s",
		plan.Estimator, plan.EstCost, plan.EstRows, plan.Explain())
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
