package engine

import (
	"fmt"
	"strings"
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// TestInstrumentedParityProperty is the obs wrapper's core safety
// property, over the same 40-plan random SPJ corpus as
// TestStreamMaterializedSPJProperty (same seed, same construction):
// instrumenting a plan must leave result rows, row order, and
// cost.Counters byte-identical to the uninstrumented streaming run.
func TestInstrumentedParityProperty(t *testing.T) {
	_, ctx := testDB(t, 200, 3, 10)
	rng := stats.NewRNG(9001)
	okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
	lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
	for trial := 0; trial < 40; trial++ {
		sLo := int64(testkit.Intn(rng, 110)) - 5
		sHi := sLo + int64(testkit.Intn(rng, 70))
		cut := rng.Float64() * 1000
		linePred := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)}
		orderPred := expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}

		var lineScan Node
		switch testkit.Intn(rng, 3) {
		case 0:
			lineScan = &SeqScan{Table: "lineitem", Filter: linePred}
		case 1:
			lineScan = &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: sLo, Hi: sHi}}
		default:
			lineScan = &IndexIntersect{Table: "lineitem",
				Ranges: []KeyRange{{Column: "l_ship", Lo: sLo, Hi: sHi}}}
		}

		var join Node
		switch testkit.Intn(rng, 3) {
		case 0:
			join = &HashJoin{Build: &SeqScan{Table: "orders", Filter: orderPred},
				Probe: lineScan, BuildCol: okey, ProbeCol: lkey}
		case 1:
			join = &MergeJoin{Left: &SeqScan{Table: "orders", Filter: orderPred},
				Right: lineScan, LeftCol: okey, RightCol: lkey}
		default:
			join = &INLJoin{Outer: lineScan, OuterCol: lkey,
				InnerTable: "orders", InnerCol: "o_orderkey", Residual: orderPred}
		}

		plan := join
		if testkit.Intn(rng, 2) == 0 {
			plan = &Project{Input: plan, Cols: []expr.ColumnRef{
				{Table: "lineitem", Column: "l_id"},
				{Table: "orders", Column: "o_total"},
				{Table: "lineitem", Column: "l_price"},
			}}
		}
		if testkit.Intn(rng, 2) == 0 {
			plan = &Sort{Input: plan, By: []SortKey{
				{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}, Desc: testkit.Intn(rng, 2) == 0}}}
		}

		label := fmt.Sprintf("trial %d ship[%d,%d] cut %.1f plan %s", trial, sLo, sHi, cut, plan.Describe())
		pres, pc, _, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("%s: plain: %v", label, err)
		}
		inst := Instrument(plan)
		ires, ic, _, err := Run(ctx, inst)
		if err != nil {
			t.Fatalf("%s: instrumented: %v", label, err)
		}
		if len(pres.Rows) != len(ires.Rows) {
			t.Fatalf("%s: plain %d rows, instrumented %d", label, len(pres.Rows), len(ires.Rows))
		}
		for i := range pres.Rows {
			if rowKey(pres.Rows[i]) != rowKey(ires.Rows[i]) {
				t.Fatalf("%s: row %d differs: plain %v, instrumented %v",
					label, i, pres.Rows[i], ires.Rows[i])
			}
		}
		if pc != ic {
			t.Fatalf("%s: counters diverged:\nplain        %+v\ninstrumented %+v", label, pc, ic)
		}
		if inst.Stats.Rows != int64(len(pres.Rows)) {
			t.Fatalf("%s: root stats recorded %d rows, want %d", label, inst.Stats.Rows, len(pres.Rows))
		}
	}
}

// TestInstrumentLeavesOriginalUntouched checks that instrumenting
// rebuilds the tree via shallow copies: the original nodes keep their
// original children and remain executable.
func TestInstrumentLeavesOriginalUntouched(t *testing.T) {
	_, ctx := testDB(t, 100, 3, 10)
	scan := &SeqScan{Table: "lineitem"}
	filter := &Filter{Input: scan, Pred: expr.Cmp{Op: expr.GE, L: expr.C("l_ship"), R: expr.IntLit(0)}}
	plan := &Limit{N: 5, Input: filter}

	inst := Instrument(plan)
	if plan.Input != filter || filter.Input != scan {
		t.Fatal("instrumenting mutated the original tree")
	}
	if inst.Origin != Node(plan) {
		t.Error("root Origin does not point at the original node")
	}
	if inst.Inner == Node(plan) {
		t.Error("root Inner should be a copy with wrapped children, not the original")
	}
	if _, _, _, err := Run(ctx, plan); err != nil {
		t.Fatalf("original plan no longer executes: %v", err)
	}
	res, _, _, err := Run(ctx, inst)
	if err != nil {
		t.Fatalf("instrumented: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	// Kids mirror the children switch: Limit -> Filter -> SeqScan.
	if len(inst.Kids) != 1 || len(inst.Kids[0].Kids) != 1 {
		t.Fatalf("unexpected instrumented shape")
	}
	if inst.Kids[0].Kids[0].Origin != Node(scan) {
		t.Error("leaf Origin mismatch")
	}
}

// TestInstrumentedStarAndJoinShapes drives the multi-child rebuild
// paths (hash join, star semijoin) through replaceChildren.
func TestInstrumentedStarAndJoinShapes(t *testing.T) {
	_, ctx := testDB(t, 150, 4, 10)
	star := &StarSemiJoin{
		Fact: "lineitem",
		Dims: []StarDim{
			{Scan: &SeqScan{Table: "part", Filter: expr.Cmp{Op: expr.LT, L: expr.C("p_size"), R: expr.IntLit(25)}},
				DimPK:  expr.ColumnRef{Table: "part", Column: "p_partkey"},
				FactFK: "l_partkey"},
		},
	}
	pres, pc, _, err := Run(ctx, star)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instrument(star)
	if len(inst.Kids) != 1 {
		t.Fatalf("star has %d kids, want 1", len(inst.Kids))
	}
	ires, ic, _, err := Run(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Rows) != len(ires.Rows) || pc != ic {
		t.Fatalf("star parity broken: %d vs %d rows, %+v vs %+v", len(pres.Rows), len(ires.Rows), pc, ic)
	}
	if got := LeafTables(inst); fmt.Sprint(got) != "[lineitem part]" {
		t.Errorf("LeafTables = %v", got)
	}
}

func TestOpNameAndLeafTables(t *testing.T) {
	join := &HashJoin{
		Build:    &SeqScan{Table: "orders"},
		Probe:    &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 0, Hi: 10}},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	if got := OpName(join); got != "HashJoin" {
		t.Errorf("OpName = %q", got)
	}
	if got := OpName(Instrument(join)); got != "HashJoin" {
		t.Errorf("OpName(instrumented) = %q", got)
	}
	if got := fmt.Sprint(LeafTables(join)); got != "[orders lineitem]" {
		t.Errorf("LeafTables = %v", got)
	}
	inl := &INLJoin{Outer: &SeqScan{Table: "lineitem"},
		OuterCol:   expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		InnerTable: "orders", InnerCol: "o_orderkey"}
	if got := fmt.Sprint(LeafTables(inl)); got != "[lineitem orders]" {
		t.Errorf("LeafTables(INL) = %v", got)
	}
}

// TestExplainAnalyzeRendering pins the deterministic (timings-off)
// annotation format and checks the per-operator trace spans.
func TestExplainAnalyzeRendering(t *testing.T) {
	_, ctx := testDB(t, 100, 3, 10)
	plan := &Limit{N: 7, Input: &Filter{
		Input: &SeqScan{Table: "lineitem"},
		Pred:  expr.Cmp{Op: expr.GE, L: expr.C("l_ship"), R: expr.IntLit(0)},
	}}
	tr := obs.NewTrace("q")
	inst := InstrumentOpts(plan, InstrumentOptions{Trace: tr})
	_, c, _, err := Run(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}

	est := map[Node]obs.EstimateSnapshot{
		plan:                       {Rows: 7, Percentile: 0.8, Estimator: "bayes"},
		plan.Input:                 {Rows: 280.5, Percentile: 0.8, Estimator: "bayes"},
		plan.Input.(*Filter).Input: {Rows: 300, Percentile: 0.8, Estimator: "bayes"},
	}
	out := ExplainAnalyze(inst, AnalyzeOptions{
		EstimateOf: func(n Node) (obs.EstimateSnapshot, bool) { s, ok := est[n]; return s, ok },
		Totals:     &c,
	})
	want := "Limit(7)  (est=7.0 act=7 q=1.00 T=80% batches=1)\n" +
		"  Filter((l_ship >= 0))  (est=280.5 act=300 q=1.07 T=80% batches=1)\n" +
		"    SeqScan(lineitem)  (est=300.0 act=300 q=1.00 T=80% batches=1)\n" +
		"counters: " + c.String() + "\n"
	if out != want {
		t.Errorf("ExplainAnalyze mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}

	// Unknown estimates render as est=?.
	out2 := ExplainAnalyze(inst, AnalyzeOptions{})
	if !strings.Contains(out2, "est=? act=7") {
		t.Errorf("actuals-only rendering wrong:\n%s", out2)
	}

	// With timings on, wall-clock fields appear.
	out3 := ExplainAnalyze(inst, AnalyzeOptions{Timings: true})
	if !strings.Contains(out3, "open=") || !strings.Contains(out3, "next=") {
		t.Errorf("timings missing:\n%s", out3)
	}

	// One span per operator, named by operator type.
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(recs), recs)
	}
	if recs[0].Name != "op:Limit" || recs[1].Name != "op:Filter" || recs[2].Name != "op:SeqScan" {
		t.Errorf("span names wrong: %+v", recs)
	}
	if recs[1].Parent != recs[0].ID || recs[2].Parent != recs[1].ID {
		t.Errorf("operator spans not nested: %+v", recs)
	}
	if recs[0].Attrs["rows"] != "7" {
		t.Errorf("root span rows attr = %q", recs[0].Attrs["rows"])
	}
}

// TestExchangeWorkersFeedBypassedStats pins the one route by which an
// operator that runs inside the worker pool — and so never sees its
// Instrumented wrapper's Next — reports actuals: worker-local tallies
// folded in at the barrier. A join→join over an Exchange-wrapped lineitem
// scan must record, on every wrapper, the rows and opens of the serial
// plan, at every DOP. The bypassed scan must also record the serial
// plan's batches (non-empty windows), and its time inside the workers;
// the operators above the Exchange see one batch per morsel instead.
func TestExchangeWorkersFeedBypassedStats(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 40)
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	plan := func(dop int) Node {
		var probe Node = &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship BETWEEN 10 AND 70")}
		if dop > 0 {
			probe = &Exchange{Source: probe, DOP: dop}
		}
		return &HashJoin{
			Build: &SeqScan{Table: "part", Filter: testkit.Expr("p_size < 25")},
			Probe: &HashJoin{
				Build:    &SeqScan{Table: "orders", Filter: testkit.Expr("o_total < 600")},
				Probe:    probe,
				BuildCol: col("orders", "o_orderkey"), ProbeCol: col("lineitem", "l_orderkey"),
			},
			BuildCol: col("part", "p_partkey"), ProbeCol: col("lineitem", "l_partkey"),
		}
	}
	// collect lists every wrapper's stats in pre-order, skipping the
	// Exchange's own.
	collect := func(n *Instrumented) []obs.OpStats {
		var out []obs.OpStats
		var walk func(*Instrumented)
		walk = func(m *Instrumented) {
			if _, ok := m.Inner.(*Exchange); !ok {
				out = append(out, *m.Stats)
			}
			for _, k := range m.Kids {
				walk(k)
			}
		}
		walk(n)
		return out
	}
	serial := Instrument(plan(0))
	_, sc, _, err := Run(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(serial)
	for _, dop := range []int{2, 4} {
		inst := Instrument(plan(dop))
		_, c, _, err := Run(ctx, inst)
		if err != nil {
			t.Fatal(err)
		}
		if c != sc {
			t.Fatalf("dop=%d: counters diverged", dop)
		}
		got := collect(inst)
		for i := range want {
			if got[i].Rows != want[i].Rows || got[i].Opens != want[i].Opens {
				t.Fatalf("dop=%d: wrapper %d records %d rows, %d opens; the serial plan's %d rows, %d opens",
					dop, i, got[i].Rows, got[i].Opens, want[i].Rows, want[i].Opens)
			}
		}
		probeScan := inst.Kids[1].Kids[1].Kids[0]
		if _, ok := probeScan.Inner.(*SeqScan); !ok {
			t.Fatalf("dop=%d: %s is not the lineitem scan", dop, probeScan.Inner.Describe())
		}
		last := len(want) - 1
		if probeScan.Stats.Batches != want[last].Batches {
			t.Fatalf("dop=%d: lineitem scan records %d batches, want the serial %d", dop, probeScan.Stats.Batches, want[last].Batches)
		}
		if probeScan.Stats.NextTime <= 0 {
			t.Fatalf("dop=%d: lineitem scan ran in the workers but recorded no time", dop)
		}
	}
}
