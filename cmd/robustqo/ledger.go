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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"robustqo/internal/obs/ledger"
	"robustqo/internal/sqlparse"
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

// runLedgerRun builds the state serve builds, without a listener, and
// sends the corpus through the same query lifecycle.
func runLedgerRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger run", flag.ContinueOnError)
	fs.SetOutput(out)
	var df dbFlags
	df.register(fs)
	df.registerPartitions(fs)
	var lf logFlags
	lf.register(fs)
	outFile := fs.String("out", "ledger.bin", "persist the ledger to this file")
	maxEntries := fs.Int("max-entries", 0, "ledger entry bound (0 = default)")
	topN := fs.Int("n", 10, "print this many worst fingerprints after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("ledger run: unexpected arguments %v", fs.Args())
	}
	s, err := newServer(df, out)
	if err != nil {
		return err
	}
	s.led = ledger.New(*maxEntries)
	s.led.Metrics = s.reg
	err = s.openLogs(lf)
	defer s.closeLogs() // error paths only; the success path checks closeLogs itself
	if err != nil {
		return err
	}

	queries := corpusQueries()
	for _, sqlText := range queries {
		q, err := sqlparse.Parse(sqlText)
		if err == nil {
			_, err = s.execute(context.Background(), request{sql: sqlText, q: q})
		}
		if err != nil {
			return fmt.Errorf("corpus query %q: %v", sqlText, err)
		}
	}
	if err := s.saveLedger(*outFile); err != nil {
		return err
	}
	if err := s.closeLogs(); err != nil {
		return fmt.Errorf("lifecycle logs: %w", err)
	}
	led := s.led
	fmt.Fprintf(out, "ran %d queries; ledger has %d fingerprints (%d observations, %d dropped); saved to %s\n",
		len(queries), led.Len(), led.Ordinal(), led.Dropped(), *outFile)
	if n := len(s.slow.Recent()); n > 0 {
		fmt.Fprintf(out, "%d queries exceeded the %dms slow-query threshold\n", n, s.slowMS)
	}
	fmt.Fprintf(out, "\nworst %d fingerprints by Q-error:\n", *topN)
	renderTop(out, led.TopQError(*topN))
	fmt.Fprintf(out, "\nper-table drift:\n")
	renderDrift(out, led.Drift())
	return nil
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
