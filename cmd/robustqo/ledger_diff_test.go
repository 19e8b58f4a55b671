package main

import (
	"fmt"
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// TestLedgerInstrumentationDifferential pins the ledger's zero-cost
// contract on results: executing a plan with the full lifecycle sinks
// attached (ledger, live registry, query ID) produces byte-identical
// rows in identical order AND byte-identical cost.Counters versus the
// same plan executed with plain instrumentation and no ledger — across
// the whole 40-query corpus, at DOP 1, 2, and 4, over a 2-shard
// partitioned layout. Run with -race this doubles as the proof that
// ledger appends and live-progress updates race with nothing in the
// parallel drain.
func TestLedgerInstrumentationDifferential(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 6000, Partitions: 2, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	est, err := buildEstimator(db, "robust", 0.8, 500, 2005)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(0)
	for _, dop := range []int{1, 2, 4} {
		for qi, sqlText := range corpusQueries() {
			label := fmt.Sprintf("dop=%d query %d %q", dop, qi, sqlText)
			query, err := sqlparse.Parse(sqlText)
			if err != nil {
				t.Fatalf("%s: parse: %v", label, err)
			}
			opt, err := optimizer.New(ctx, est)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			opt.MaxDOP = dop
			plan, err := opt.Optimize(query)
			if err != nil {
				t.Fatalf("%s: optimize: %v", label, err)
			}

			// Ledger-disabled leg: plain pass-through instrumentation.
			resOff, cOff, _, err := engine.Run(ctx, engine.Instrument(plan.Root))
			if err != nil {
				t.Fatalf("%s: ledger off: %v", label, err)
			}

			// Ledger-enabled leg: same plan, full lifecycle sinks.
			live := &obs.QueryLive{ID: fmt.Sprintf("q%d", qi+1), SQL: sqlText}
			instOn := engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{
				EstimateOf: plan.EstimateOf,
				Ledger:     led,
				QueryID:    live.ID,
				Live:       live,
			})
			before := led.Ordinal()
			resOn, cOn, _, err := engine.Run(ctx, instOn)
			if err != nil {
				t.Fatalf("%s: ledger on: %v", label, err)
			}
			if led.Ordinal() == before {
				t.Fatalf("%s: ledger leg appended no observations; the on leg is not on", label)
			}

			if len(resOn.Rows) != len(resOff.Rows) {
				t.Fatalf("%s: %d rows with ledger, %d without", label, len(resOn.Rows), len(resOff.Rows))
			}
			for i := range resOn.Rows {
				on, off := fmt.Sprintf("%v", resOn.Rows[i]), fmt.Sprintf("%v", resOff.Rows[i])
				if on != off {
					t.Fatalf("%s: row %d differs: %s vs %s", label, i, on, off)
				}
			}
			if cOn != cOff {
				t.Fatalf("%s: counters diverged:\nledger on  %+v\nledger off %+v", label, cOn, cOff)
			}
		}
	}
	if led.Len() == 0 {
		t.Fatal("corpus produced no ledger fingerprints")
	}
}
