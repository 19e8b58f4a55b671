package main

// The ledger subcommand drives the cardinality feedback ledger from the
// command line:
//
//	robustqo ledger run    run the built-in 40-query corpus, persist the
//	                       ledger (and optionally a slow-query log and
//	                       event log), and print the worst offenders
//	robustqo ledger top    print the top-N worst Q-error fingerprints of
//	                       a persisted ledger
//	robustqo ledger drift  print per-table drift summaries of a
//	                       persisted ledger
//
// The persisted file carries a format-version header (see
// internal/obs/ledger); top and drift refuse files written by a
// different format version instead of misreading them.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

func runLedger(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("ledger: need a subcommand: run, top, or drift")
	}
	switch args[0] {
	case "run":
		return runLedgerRun(args[1:], out)
	case "top":
		return runLedgerTop(args[1:], out)
	case "drift":
		return runLedgerDrift(args[1:], out)
	default:
		return fmt.Errorf("ledger: unknown subcommand %q (want run, top, or drift)", args[0])
	}
}

// corpusQueries is the deterministic workload `ledger run` executes:
// forty SPJ queries cycling through four shapes — single-table range
// aggregate, date-window scan, two-way join, three-way join — with
// literals swept across magnitude bins so recurring predicate shapes
// accumulate feedback while distinct bins stay distinct fingerprints.
func corpusQueries() []string {
	months := []string{"01", "03", "05", "07", "09"}
	var qs []string
	for i := 0; i < 40; i++ {
		v := i / 4
		switch i % 4 {
		case 0:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < %d", 3+v*5))
		case 1:
			m := months[v%len(months)]
			qs = append(qs, fmt.Sprintf(
				"SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN DATE '199%d-%s-01' AND DATE '199%d-%s-28'",
				3+v%5, m, 3+v%5, m))
		case 2:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < %d AND l_quantity >= %d",
				2000+v*9000, 10+v))
		case 3:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem, orders, part WHERE p_size < %d AND l_quantity < %d",
				5+v*4, 45-v*2))
		}
	}
	return qs
}

func runLedgerRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger run", flag.ContinueOnError)
	fs.SetOutput(out)
	lines := fs.Int("lines", 60000, "lineitem rows to generate")
	threshold := fs.Float64("threshold", 0.8, "confidence threshold in (0,1)")
	estimator := fs.String("estimator", "robust", "cardinality estimator: robust or histogram")
	sampleSize := fs.Int("samplesize", sample.DefaultSize, "synopsis tuples")
	seed := fs.Uint64("seed", 2005, "random seed")
	dop := fs.Int("parallelism", 1, "max degree of parallelism for eligible scans (1 = serial)")
	partitions := fs.Int("partitions", 1, "range-partition lineitem on l_shipdate into this many shards")
	outFile := fs.String("out", "ledger.bin", "persist the ledger to this file")
	maxEntries := fs.Int("max-entries", 0, "ledger entry bound (0 = default)")
	topN := fs.Int("n", 10, "print this many worst fingerprints after the run")
	slowLogFile := fs.String("slow-log", "", "append slow-query JSON lines to this file")
	slowMS := fs.Int("slow-query-ms", 100, "slow-query latency threshold in milliseconds")
	eventsFile := fs.String("events", "", "append query-lifecycle JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("ledger run: unexpected arguments %v", fs.Args())
	}
	fmt.Fprintf(out, "generating TPC-H-like data (%d lineitem rows)...\n", *lines)
	db, err := tpch.Generate(tpch.Config{Lines: *lines, Partitions: *partitions, Seed: *seed})
	if err != nil {
		return err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return err
	}
	ctx.Metrics = obs.Default
	est, err := buildEstimator(db, *estimator, *threshold, *sampleSize, *seed)
	if err != nil {
		return err
	}
	led := ledger.New(*maxEntries)
	led.Metrics = obs.Default

	var events *obs.EventLog
	if *eventsFile != "" {
		fh, err := os.Create(*eventsFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		events = obs.NewEventLog(fh)
		events.Now = time.Now
	}
	var slowMirror io.Writer
	if *slowLogFile != "" {
		fh, err := os.Create(*slowLogFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		slowMirror = fh
	}
	slow := obs.NewSlowLog(0, slowMirror)
	active := obs.NewActiveQueries()

	queries := corpusQueries()
	for _, sqlText := range queries {
		if err := runLedgerQuery(ctx, est, *dop, sqlText, led, active, events, slow, *slowMS); err != nil {
			return fmt.Errorf("corpus query %q: %v", sqlText, err)
		}
	}
	fh, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := led.Save(fh); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	if events != nil {
		if err := events.Err(); err != nil {
			return err
		}
	}
	if err := slow.Err(); err != nil {
		return err
	}
	fmt.Fprintf(out, "ran %d queries; ledger has %d fingerprints (%d observations, %d dropped); saved to %s\n",
		len(queries), led.Len(), led.Ordinal(), led.Dropped(), *outFile)
	if n := len(slow.Recent()); n > 0 {
		fmt.Fprintf(out, "%d queries exceeded the %dms slow-query threshold\n", n, *slowMS)
	}
	fmt.Fprintf(out, "\nworst %d fingerprints by Q-error:\n", *topN)
	renderTop(out, led.TopQError(*topN))
	fmt.Fprintf(out, "\nper-table drift:\n")
	renderDrift(out, led.Drift())
	return nil
}

// runLedgerQuery optimizes and executes one corpus query with the full
// lifecycle instrumentation: event log, live registry, ledger feedback,
// and slow-query capture. It is the same lifecycle the serve subcommand
// drives per request.
func runLedgerQuery(ctx *engine.Context, est core.Estimator, dop int, sqlText string,
	led *ledger.Ledger, active *obs.ActiveQueries, events *obs.EventLog,
	slow *obs.SlowLog, slowMS int) error {
	q := active.Begin(sqlText)
	defer active.Done(q)
	start := time.Now()
	events.Emit(obs.Event{QueryID: q.ID, Event: "received", SQL: sqlText})
	q.SetPhase(obs.PhaseParse)
	query, err := sqlparse.Parse(sqlText)
	if err != nil {
		q.SetPhase(obs.PhaseFailed)
		return err
	}
	q.SetPhase(obs.PhaseOptimize)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		q.SetPhase(obs.PhaseFailed)
		return err
	}
	opt.MaxDOP = dop
	opt.Metrics = obs.Default
	plan, err := opt.Optimize(query)
	if err != nil {
		q.SetPhase(obs.PhaseFailed)
		return err
	}
	inst := engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{
		EstimateOf: plan.EstimateOf,
		Ledger:     led,
		QueryID:    q.ID,
		Live:       q,
	})
	q.T = plan.Confidence()
	q.DOP = dop
	q.EstRows = plan.EstRows
	q.PartsPruned, q.PartsTotal = planPruning(inst, plan.EstimateOf)
	events.Emit(obs.Event{QueryID: q.ID, Event: "optimized", T: q.T, DOP: dop,
		EstRows: plan.EstRows, PartsPruned: q.PartsPruned, PartsTotal: q.PartsTotal,
		ElapsedUS: time.Since(start).Microseconds()})
	q.SetPhase(obs.PhaseExecute)
	res, counters, _, err := engine.Run(ctx, inst)
	if err != nil {
		q.SetPhase(obs.PhaseFailed)
		events.Emit(obs.Event{QueryID: q.ID, Event: "failed", Detail: err.Error()})
		return err
	}
	q.SetPhase(obs.PhaseDone)
	elapsed := time.Since(start)
	obs.Default.Histogram("robustqo_query_latency_seconds", obs.LatencyBuckets).
		Observe(elapsed.Seconds())
	events.Emit(obs.Event{QueryID: q.ID, Event: "done",
		Rows: int64(len(res.Rows)), ElapsedUS: elapsed.Microseconds()})
	if elapsed >= time.Duration(slowMS)*time.Millisecond {
		slow.Record(obs.SlowQuery{
			QueryID:   q.ID,
			SQL:       sqlText,
			ElapsedUS: elapsed.Microseconds(),
			Analyze: engine.ExplainAnalyze(inst, engine.AnalyzeOptions{
				EstimateOf: plan.EstimateOf,
				Timings:    true,
				Totals:     &counters,
			}),
		})
	}
	return nil
}

// planPruning reports the widest pruned scan of the plan: the snapshot
// with the largest shard total. The instrumented tree doubles as the
// walkable plan shape — its Origin pointers key the estimate map.
func planPruning(root *engine.Instrumented, estOf func(engine.Node) (obs.EstimateSnapshot, bool)) (pruned, total int) {
	var walk func(n *engine.Instrumented)
	walk = func(n *engine.Instrumented) {
		if est, ok := estOf(n.Origin); ok && est.PartsTotal > total {
			pruned, total = est.PartsTotal-est.PartsScanned, est.PartsTotal
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return pruned, total
}

func runLedgerTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger top", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "ledger.bin", "persisted ledger file")
	n := fs.Int("n", 10, "how many fingerprints to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := loadLedgerFile(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d fingerprints, %d observations, %d dropped\n\n",
		led.Len(), led.Ordinal(), led.Dropped())
	renderTop(out, led.TopQError(*n))
	return nil
}

func runLedgerDrift(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger drift", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "ledger.bin", "persisted ledger file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := loadLedgerFile(*in)
	if err != nil {
		return err
	}
	renderDrift(out, led.Drift())
	return nil
}

func loadLedgerFile(path string) (*ledger.Ledger, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ledger.Load(fh)
}

// renderTop prints worst-Q-error fingerprints as an aligned table.
func renderTop(out io.Writer, entries []ledger.Entry) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "maxQ\tgeoQ\tn\tover/under\tlast est\tlast act\tT\tfingerprint")
	for _, e := range entries {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%d/%d\t%.1f\t%d\t%g\t%s\n",
			e.MaxQError, e.GeoMeanQError(), e.Count, e.OverCount, e.UnderCnt,
			e.LastEstRows, e.LastActual, e.LastPercentil, e.Fingerprint)
	}
	tw.Flush()
}

// renderDrift prints per-table drift summaries as an aligned table.
func renderDrift(out io.Writer, drifts []ledger.TableDrift) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "table\tfingerprints\tn\tgeoQ\tmaxQ\tover/under")
	for _, d := range drifts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%d/%d\n",
			d.Table, d.Fingerprints, d.Count, d.GeoMeanQ, d.MaxQ, d.OverCount, d.UnderCount)
	}
	tw.Flush()
}
