package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

func bayesOpt(t *testing.T, nLines int, threshold float64) (*Optimizer, *Query) {
	t.Helper()
	db, ctx := optDB(t, nLines, 40)
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
	q := &Query{
		Tables: []string{"lineitem", "orders"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 900 AND orders.o_total < 800"),
	}
	return o, q
}

// TestParallelizeWrapsLargeScan checks the DOP decision end to end: over
// a table past the cutoff the optimizer wraps the scan in an Exchange at
// MaxDOP, and the parallel plan still returns exactly the serial plan's
// rows and counters.
func TestParallelizeWrapsLargeScan(t *testing.T) {
	o, q := bayesOpt(t, 24000, 0.8)
	serialPlan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	o.MaxDOP = 4
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "Exchange(dop=4") {
		t.Fatalf("no Exchange in parallel plan:\n%s", plan.Explain())
	}
	if strings.Contains(serialPlan.Explain(), "Exchange") {
		t.Fatalf("Exchange in serial plan:\n%s", serialPlan.Explain())
	}
	sres, sc, _, err := engine.Run(o.Ctx, serialPlan.Root)
	if err != nil {
		t.Fatal(err)
	}
	pres, pc, _, err := engine.Run(o.Ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != len(pres.Rows) {
		t.Fatalf("serial %d rows, parallel %d", len(sres.Rows), len(pres.Rows))
	}
	if sc != pc {
		t.Fatalf("counters diverged:\nserial   %+v\nparallel %+v", sc, pc)
	}
}

// TestParallelizeKeepsSmallScansSerial: below the cardinality cutoff the
// fan-out cost isn't worth paying, so even at MaxDOP=4 the plan stays
// serial.
func TestParallelizeKeepsSmallScansSerial(t *testing.T) {
	o, q := bayesOpt(t, 2000, 0.8)
	o.MaxDOP = 4
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "Exchange") {
		t.Fatalf("small scans were parallelized:\n%s", plan.Explain())
	}
}

// TestOptimizerCacheMetrics checks the satellite fix: selectivity-cache
// hits surface as span-free metric increments, and the estimator's
// posterior-quantile cache totals are mirrored into the registry. The
// second Optimize of the same query must be all quantile hits — the
// memoization that makes repeated enumeration cheap.
func TestOptimizerCacheMetrics(t *testing.T) {
	o, q := bayesOpt(t, 2000, 0.8)
	reg := obs.NewRegistry()
	o.Metrics = reg
	if _, err := o.Optimize(q); err != nil {
		t.Fatal(err)
	}
	misses0 := reg.Counter("robustqo_quantile_cache_misses_total").Value()
	if misses0 == 0 {
		t.Fatal("no quantile-cache misses recorded on a cold cache")
	}
	if reg.Counter("robustqo_estimate_cache_misses_total").Value() == 0 {
		t.Fatal("no estimate-cache misses recorded")
	}
	tr := obs.NewTrace("requery")
	o.Trace = tr
	if _, err := o.Optimize(q); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("robustqo_quantile_cache_hits_total").Value(); hits == 0 {
		t.Fatal("re-optimizing the same query produced no quantile-cache hits")
	}
	if misses := reg.Counter("robustqo_quantile_cache_misses_total").Value(); misses != misses0 {
		t.Fatalf("re-optimizing recomputed quantiles: misses %d -> %d", misses0, misses)
	}
	// The re-run answered repeated selectivity lookups from cache; those
	// hits must not have spawned estimate spans (the trace balloon fix) —
	// spans stay proportional to uncached estimator calls.
	estSpans := 0
	for _, r := range tr.Records() {
		if r.Name == "estimate" {
			estSpans++
		}
	}
	hits := reg.Counter("robustqo_estimate_cache_hits_total").Value()
	if hits == 0 {
		t.Fatal("no estimate-cache hits recorded")
	}
	if int64(estSpans) >= hits+reg.Counter("robustqo_estimate_cache_misses_total").Value() {
		t.Fatalf("estimate spans (%d) not reduced by caching", estSpans)
	}
	// Twelve enumerations against one estimator: only the first inverts
	// any posterior, so at least nine lookups in ten are answered from
	// memory.
	for i := 2; i < 12; i++ {
		if _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	qHits := reg.Counter("robustqo_quantile_cache_hits_total").Value()
	qMisses := reg.Counter("robustqo_quantile_cache_misses_total").Value()
	if rate := float64(qHits) / float64(qHits+qMisses); rate < 0.90 {
		t.Fatalf("quantile-cache hit rate %.3f (%d hits, %d misses), want >= 0.90", rate, qHits, qMisses)
	}
}

// TestParallelizeWrapsJoinPipeline is a unit test of the post-pass over a
// hand-built multi-way join: at MaxDOP 4 both joins stay serial, the
// lineitem probe scan, past the cutoff, is wrapped in an Exchange, and the
// plan reproduces the serial rows and counters.
func TestParallelizeWrapsJoinPipeline(t *testing.T) {
	o, _ := bayesOpt(t, 24000, 0.8)
	o.MaxDOP = 4
	col := func(tab, c string) expr.ColumnRef { return expr.ColumnRef{Table: tab, Column: c} }
	mkPlan := func() *engine.HashJoin {
		inner := &engine.HashJoin{
			Build:    &engine.SeqScan{Table: "orders"},
			Probe:    &engine.SeqScan{Table: "lineitem"},
			BuildCol: col("orders", "o_orderkey"),
			ProbeCol: col("lineitem", "l_orderkey"),
		}
		return &engine.HashJoin{
			Build:    &engine.SeqScan{Table: "part"},
			Probe:    inner,
			BuildCol: col("part", "p_partkey"),
			ProbeCol: col("lineitem", "l_partkey"),
		}
	}
	p := &planner{opt: o, estimates: make(map[engine.Node]obs.EstimateSnapshot)}
	outer := mkPlan()
	got := p.parallelize(outer)
	if got != engine.Node(outer) {
		t.Fatalf("the join was wrapped: %T", got)
	}
	inner, ok := outer.Probe.(*engine.HashJoin)
	if !ok {
		t.Fatalf("the inner join was wrapped: %T", outer.Probe)
	}
	ex, ok := inner.Probe.(*engine.Exchange)
	if !ok {
		t.Fatalf("lineitem probe scan not wrapped:\n%s", engine.Explain(outer))
	}
	if scan, ok := ex.Source.(*engine.SeqScan); !ok || scan.Table != "lineitem" || ex.DOP != 4 {
		t.Fatalf("Exchange wraps %s at dop=%d, want the lineitem scan at 4", ex.Source.Describe(), ex.DOP)
	}
	sres, sc, _, err := engine.Run(o.Ctx, mkPlan())
	if err != nil {
		t.Fatal(err)
	}
	pres, pc, _, err := engine.Run(o.Ctx, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != len(pres.Rows) {
		t.Fatalf("serial %d rows, parallel %d", len(sres.Rows), len(pres.Rows))
	}
	if sc != pc {
		t.Fatalf("counters diverged:\nserial   %+v\nparallel %+v", sc, pc)
	}
}

// TestParallelizeKeepsSmallJoinSerial: a join whose scans are below the
// cutoff stays serial even at MaxDOP=4.
func TestParallelizeKeepsSmallJoinSerial(t *testing.T) {
	o, _ := bayesOpt(t, 2000, 0.8)
	o.MaxDOP = 4
	p := &planner{opt: o, estimates: make(map[engine.Node]obs.EstimateSnapshot)}
	hj := &engine.HashJoin{
		Build:    &engine.SeqScan{Table: "orders"},
		Probe:    &engine.SeqScan{Table: "lineitem"},
		BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
		ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
	}
	if got := p.parallelize(hj); got != engine.Node(hj) {
		t.Fatalf("small join pipeline was wrapped: %T", got)
	}
}

// TestOptimizedHashJoinsCarryBuildEstimate: the optimizer picks a hash
// join for part⋈lineitem, and at MaxDOP=4 the join stays serial, its
// lineitem probe scan is wrapped in an Exchange, and the plan returns the
// serial plan's rows and counters.
func TestOptimizedHashJoinsCarryBuildEstimate(t *testing.T) {
	o, _ := bayesOpt(t, 24000, 0.8)
	// part⋈lineitem on l_partkey: lineitem is not ordered by the join key,
	// so the sort-free merge join is not available and hash join wins.
	q := &Query{
		Tables: []string{"lineitem", "part"},
		Pred:   testkit.Expr("p_size < 40"),
	}
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	o.MaxDOP = 4
	pplan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	joins := func(root engine.Node) (found []*engine.HashJoin) {
		var walk func(n engine.Node)
		walk = func(n engine.Node) {
			if hj, ok := n.(*engine.HashJoin); ok {
				found = append(found, hj)
			}
			for _, k := range engine.Children(n) {
				walk(k)
			}
		}
		walk(root)
		return found
	}
	if len(joins(plan.Root)) == 0 {
		t.Fatalf("winning plan uses no hash join:\n%s", plan.Explain())
	}
	if strings.Contains(pplan.Explain(), "Exchange(dop=4, HashJoin") {
		t.Fatalf("join wrapped at MaxDOP=4:\n%s", pplan.Explain())
	}
	wrapped := false
	for _, hj := range joins(pplan.Root) {
		if ex, ok := hj.Probe.(*engine.Exchange); ok && ex.DOP == 4 {
			scan, ok := ex.Source.(*engine.SeqScan)
			wrapped = wrapped || ok && scan.Table == "lineitem"
		}
	}
	if !wrapped {
		t.Fatalf("lineitem probe scan not wrapped at MaxDOP=4:\n%s", pplan.Explain())
	}
	sres, sc, _, err := engine.Run(o.Ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	pres, pc, _, err := engine.Run(o.Ctx, pplan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != len(pres.Rows) {
		t.Fatalf("serial %d rows, parallel %d", len(sres.Rows), len(pres.Rows))
	}
	if sc != pc {
		t.Fatalf("counters diverged:\nserial   %+v\nparallel %+v", sc, pc)
	}
}

// TestPlanKeepsOnlyItsTreesEstimates: a plan keeps one cardinality
// snapshot per node of its tree, Exchanges included, and none for the
// losing candidates the enumerator built, so a cached plan pins no
// losing subtree. Every Exchange wraps a SeqScan.
func TestPlanKeepsOnlyItsTreesEstimates(t *testing.T) {
	o, _ := bayesOpt(t, 24000, 0.8)
	q := &Query{
		Tables: []string{"lineitem", "orders", "part"},
		Pred:   testkit.Expr("l_ship BETWEEN 0 AND 900 AND orders.o_total < 800 AND p_size < 40"),
	}
	for _, dop := range []int{1, 2} {
		o.MaxDOP = dop
		plan, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		tree, exchanges := map[engine.Node]bool{}, 0
		var walk func(n engine.Node)
		walk = func(n engine.Node) {
			tree[n] = true
			if ex, ok := n.(*engine.Exchange); ok {
				exchanges++
				if _, ok := ex.Source.(*engine.SeqScan); !ok {
					t.Errorf("dop %d: Exchange over %s; only a SeqScan is wrapped", dop, ex.Source.Describe())
				}
			}
			for _, k := range engine.Children(n) {
				walk(k)
			}
		}
		walk(plan.Root)
		if dop == 2 && exchanges == 0 {
			t.Fatalf("dop 2: no Exchange in\n%s", plan.Explain())
		}
		for n := range tree {
			if _, ok := plan.estimates[n]; !ok {
				t.Errorf("dop %d: no estimate for %s", dop, n.Describe())
			}
		}
		if len(plan.estimates) != len(tree) {
			t.Errorf("dop %d: %d estimates for a %d-node tree\n%s", dop, len(plan.estimates), len(tree), plan.Explain())
		}
	}
}
