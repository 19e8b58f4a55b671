package engine

import (
	"errors"
	"strings"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// TestJoinKeyRule holds every join operator to the one key rule: a
// Float or String key fails at Open with joinKeyError, naming the
// operator and the column, before any input is read — serially, for a
// hash join probing an Exchange(dop=4) scan, whose workers never start,
// and in the reference engine, which returns the same error.
func TestJoinKeyRule(t *testing.T) {
	_, ctx := testDB(t, 200, 3, 10)
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	scan := func(tab string) Node { return &SeqScan{Table: tab} }
	hashJoin := func(build, probe expr.ColumnRef) *HashJoin {
		return &HashJoin{Build: scan(build.Table), Probe: scan(probe.Table), BuildCol: build, ProbeCol: probe}
	}
	// An Exchange traces one span per worker it starts.
	tr := obs.NewTrace("join-keys")
	parallelProbe := func(build, probe expr.ColumnRef) *HashJoin {
		j := hashJoin(build, probe)
		j.Probe = &Exchange{Source: j.Probe, DOP: 4, Trace: tr}
		return j
	}
	star := func(pk expr.ColumnRef) Node {
		return &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{Scan: scan(pk.Table), DimPK: pk, FactFK: "l_partkey"}}}
	}
	for _, tc := range []struct {
		plan    Node
		op, key string
	}{
		{hashJoin(col("orders", "o_total"), col("lineitem", "l_orderkey")), "HashJoin build", "orders.o_total is FLOAT"},
		{hashJoin(col("orders", "o_orderkey"), col("lineitem", "l_status")), "HashJoin probe", "lineitem.l_status is VARCHAR"},
		{parallelProbe(col("orders", "o_orderkey"), col("lineitem", "l_price")), "HashJoin probe", "lineitem.l_price is FLOAT"},
		{parallelProbe(col("lineitem", "l_status"), col("orders", "o_orderkey")), "HashJoin build", "lineitem.l_status is VARCHAR"},
		{&MergeJoin{Left: scan("orders"), Right: scan("lineitem"), LeftCol: col("orders", "o_total"), RightCol: col("lineitem", "l_orderkey")},
			"MergeJoin left", "orders.o_total is FLOAT"},
		{&MergeJoin{Left: scan("orders"), Right: scan("lineitem"), LeftCol: col("orders", "o_orderkey"), RightCol: col("lineitem", "l_status")},
			"MergeJoin right", "lineitem.l_status is VARCHAR"},
		// Unqualified key references are named by their resolved field.
		{&MergeJoin{Left: scan("orders"), Right: scan("lineitem"), LeftCol: col("", "o_orderkey"), RightCol: col("", "l_status")},
			"MergeJoin right", "lineitem.l_status is VARCHAR"},
		{&INLJoin{Outer: scan("orders"), OuterCol: col("orders", "o_total"), InnerTable: "lineitem", InnerCol: "l_partkey"},
			"INLJoin outer", "orders.o_total is FLOAT"},
		{&INLJoin{Outer: scan("lineitem"), OuterCol: col("lineitem", "l_status"), InnerTable: "part", InnerCol: "p_partkey"},
			"INLJoin outer", "lineitem.l_status is VARCHAR"},
		{star(col("orders", "o_total")), "StarSemiJoin dim 0", "orders.o_total is FLOAT"},
		{star(col("lineitem", "l_status")), "StarSemiJoin dim 0", "lineitem.l_status is VARCHAR"},
	} {
		want := "engine: " + tc.op + " key " + tc.key + "; join keys must be INT or DATE"
		_, c, _, err := Run(ctx, tc.plan)
		var ke *joinKeyError
		if !errors.As(err, &ke) || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tc.plan.Describe(), err, want)
			continue
		}
		if op, _, _ := strings.Cut(tc.op, " "); ke.op != op {
			t.Errorf("%s: operator %q, want %q", tc.plan.Describe(), ke.op, op)
		}
		if c != (cost.Counters{}) {
			t.Errorf("%s: charged %+v before rejecting the key", tc.plan.Describe(), c)
		}
		var rc cost.Counters
		if _, err := ExecuteMaterialized(ctx, tc.plan, &rc); err == nil || err.Error() != want {
			t.Errorf("%s: reference error %v, want %q", tc.plan.Describe(), err, want)
		}
	}
	if recs := tr.Records(); len(recs) > 0 {
		t.Errorf("a worker started before the key was rejected: %+v", recs)
	}
}
