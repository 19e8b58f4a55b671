package main

import (
	"strings"
	"testing"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // 9 samples beyond the median
		{20, 50, true},  // exactly 10 beyond the median
		{199, 90, true}, // p95 would leave 9
		{200, 95, true}, // p95 leaves exactly 10
		{1000, 99, true},
		{9999, 99, true}, // p99.9 would leave 9
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestSummarizeUsesWindowMedians(t *testing.T) {
	// Five one-second windows of 1 ms replies; the third also holds a
	// burst of slow ones, which a median over windows ignores.
	var samples []timing
	for w := 0; w < windows; w++ {
		for i := 0; i < 100; i++ {
			samples = append(samples, timing{done: secs(float64(w) + float64(i)/100), latency: secs(0.001)})
		}
	}
	for i := 0; i < 50; i++ {
		samples = append(samples, timing{done: secs(2.5), latency: secs(0.2)})
	}
	got := summarize(samples, secs(windows))
	if got.p50ms != 1 || got.p95ms != 1 || got.qps != 100 {
		t.Errorf("summarize = p50 %g p95 %g qps %g; want 1, 1, 100", got.p50ms, got.p95ms, got.qps)
	}
	if got.samples != 550 || got.tailPct != 95 || got.tailMS != 200 {
		t.Errorf("tail = p%g %g ms over %d; want p95 200 ms over 550", got.tailPct, got.tailMS, got.samples)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "plan", start: 10, end: 60, parent: 0},     // sibling 1
		{name: "execute", start: 60, end: 90, parent: 0},  // sibling 2
		{name: "optimize", start: 20, end: 50, parent: 1}, // nested
		{name: "estimate", start: 25, end: 30, parent: 3}, // nested deeper
		{name: "estimate", start: 28, end: 40, parent: 3}, // overlaps its sibling
	}
	want := []int64{20, 20, 30, 15, 5, 12}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	self, calls := layerTotals(spans)
	if self["estimate"] != 17 || calls["estimate"] != 2 {
		t.Errorf("layerTotals estimate = %d over %d calls, want 17 over 2", self["estimate"], calls["estimate"])
	}
	var sum int64
	for _, d := range got {
		sum += d
	}
	// Overlapping siblings are counted once in the parent, so the selves
	// add up to the root plus the doubly covered 28..30.
	if sum != 102 {
		t.Errorf("self times sum to %d, want 102", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.nextQuery()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	if tr.spans[b].parent != a || tr.spans[c].parent != a || tr.spans[a].parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[a].parent, tr.spans[b].parent, tr.spans[c].parent)
	}
	if tr.spans[c].query != 0 {
		t.Errorf("query = %d, want 0", tr.spans[c].query)
	}
	var none *tracer
	none.nextQuery()
	none.end(none.begin("x")) // a nil tracer records nothing and does not panic
}

func sqlOf(reqs []request) string {
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(r.sql)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRequestListsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := sqlOf(w.gen(7)), sqlOf(w.gen(7)), sqlOf(w.gen(8))
		if a != b {
			t.Errorf("%s: the same seed gave two different lists", w.name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same list", w.name)
		}
	}
}

func TestEveryStatementParses(t *testing.T) {
	for _, w := range workloads {
		for _, r := range w.gen(3) {
			q, err := sqlparse.Parse(r.sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", w.name, r.sql, err)
			}
			if r.query == nil {
				continue
			}
			// The crossover statements are built by package tpch; the spec
			// the reference answers must carry the same tables and literals.
			if strings.Join(q.Tables, ",") != strings.Join(r.query.Tables, ",") || len(q.Aggs) != len(r.query.Aggs) {
				t.Fatalf("%s: spec %q does not match the tpch query", w.name, r.sql)
			}
			want := plancache.Literals(r.query.Pred)
			got := r.spec.params()
			if len(got) != len(want) {
				t.Fatalf("%s: spec %q has %d literals, the tpch query %d", w.name, r.sql, len(got), len(want))
			}
			for i := range want {
				if got[i].I != want[i].I {
					t.Fatalf("%s: spec %q literal %d = %v, the tpch query has %v", w.name, r.sql, i, got[i], want[i])
				}
			}
		}
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestAdhocTemplatesOutnumberThePlanCache(t *testing.T) {
	keys := map[string]bool{}
	shapes := map[string]bool{}
	for _, r := range genAdhoc(11) {
		q, err := sqlparse.Parse(r.sql)
		if err != nil {
			t.Fatal(err)
		}
		keys[plancache.Normalize(q).Key] = true
		shapes[r.spec.shape()] = true
	}
	if len(keys) < 3000 {
		t.Errorf("serve.adhoc has %d distinct plan-cache templates, want at least 3000", len(keys))
	}
	if len(keys) != len(shapes) {
		t.Errorf("the plan cache sees %d templates, the benchmark's own shapes count %d", len(keys), len(shapes))
	}
}

func TestDashboardKeepsToItsHotBindings(t *testing.T) {
	perTemplate := map[int]map[string]bool{}
	for _, r := range genDashboard(5) {
		if perTemplate[r.tpl] == nil {
			perTemplate[r.tpl] = map[string]bool{}
		}
		perTemplate[r.tpl][r.sql] = true
	}
	if len(perTemplate) != len(dashboardTemplates) {
		t.Fatalf("%d templates, want %d", len(perTemplate), len(dashboardTemplates))
	}
	for tpl, bindings := range perTemplate {
		if len(bindings) > dashboardBindings {
			t.Errorf("template %d has %d bindings, want at most %d", tpl, len(bindings), dashboardBindings)
		}
	}
}

func TestParseReply(t *testing.T) {
	rep, err := parseReply("estimator: x\nplan:\nSeqScan(lineitem)\nsimulated execution: 0.3612 s\n(17 rows)\n")
	if err != nil || rep.rows != 17 || rep.sim != 0.3612 {
		t.Errorf("parseReply = %+v, %v", rep, err)
	}
	if _, err := parseReply(`{"error":{"code":"overloaded"}}`); err == nil {
		t.Error("an error body parsed as a reply")
	}
}

// fixedQueries are twenty statements over every clause the workloads use.
func fixedQueries() []querySpec {
	li, lo, lop := []string{"lineitem"}, []string{"lineitem", "orders"}, []string{"lineitem", "orders", "part"}
	d := days(1995, 3, 1)
	maxQty := aggSpec{fn: "MAX", col: col("l_quantity"), as: "mq"}
	minShip := aggSpec{fn: "MIN", col: col("l_shipdate"), as: "ms"}
	sumQty := aggSpec{fn: "SUM", col: col("l_quantity"), as: "sq"}
	return []querySpec{
		{tables: li, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("l_quantity", "<", intLit(13))}},
		{tables: li, aggs: []aggSpec{sumPrice}, orderBy: -1, conds: []cond{between("l_shipdate", dateLit(d), dateLit(d+27))}},
		{tables: lo, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("o_totalprice", "<", intLit(20000)), cmp("l_quantity", ">=", intLit(12))}},
		{tables: lop, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("p_size", "<", intLit(9)), cmp("l_quantity", "<", intLit(41))}},
		{tables: li, aggs: []aggSpec{sumPrice}, orderBy: -1, conds: []cond{between("l_shipdate", dateLit(d), dateLit(d+91)), between("l_receiptdate", dateLit(d+20), dateLit(d+111))}},
		{tables: li, aggs: []aggSpec{countStar}, groupBy: []int{col("l_quantity")}, orderBy: -1, conds: []cond{cmp("l_shipdate", "<", dateLit(d))}},
		{tables: li, project: []int{col("l_id"), col("l_extendedprice")}, orderBy: col("l_extendedprice"), desc: true, limit: 10, conds: []cond{cmp("l_quantity", "<", intLit(5))}},
		{tables: li, project: []int{col("l_id")}, orderBy: col("l_id"), limit: 7, conds: []cond{cmp("l_extendedprice", ">", floatLit(90000.5))}},
		{tables: lop, aggs: []aggSpec{sumPrice, countStar}, orderBy: -1, conds: []cond{cmp("p_attr1", "<", intLit(500)), between("p_attr2", intLit(100), intLit(499))}},
		{tables: lop, aggs: []aggSpec{sumPrice, countStar}, orderBy: -1, conds: []cond{cmp("p_attr1", "<", intLit(20)), between("p_attr2", intLit(5), intLit(24))}},
		{tables: []string{"lineitem", "part"}, aggs: []aggSpec{countStar, maxQty}, orderBy: -1, conds: []cond{cmp("p_attr1", "=", intLit(17))}},
		{tables: li, aggs: []aggSpec{countStar, minShip}, orderBy: -1, conds: []cond{cmp("l_partkey", "=", intLit(42))}},
		{tables: li, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("l_quantity", "<>", intLit(4))}},
		{tables: li, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("l_extendedprice", "<", floatLit(50000.005))}},
		{tables: li, aggs: []aggSpec{sumQty}, orderBy: -1, conds: []cond{between("l_quantity", intLit(10), intLit(20))}},
		{tables: lo, aggs: []aggSpec{countStar, sumPrice}, orderBy: -1, conds: []cond{cmp("l_shipdate", "=", dateLit(d))}},
		{tables: []string{"orders"}, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("o_orderdate", ">=", dateLit(d)), cmp("o_totalprice", "<=", floatLit(50000))}},
		{tables: []string{"part"}, aggs: []aggSpec{countStar}, groupBy: []int{col("p_size")}, orderBy: -1, conds: []cond{cmp("p_attr1", ">", intLit(900))}},
		{tables: li, aggs: []aggSpec{countStar}, orderBy: -1, conds: []cond{cmp("l_shipdate", ">", dateLit(days(2001, 1, 1)))}}, // empty
		{tables: li, aggs: []aggSpec{countStar, sumPrice}, orderBy: -1},                                                         // no WHERE
	}
}

func TestReferenceAgreesWithEngine(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 6000, Seed: 1, PartCorrelation: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syn, core.Moderate)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefDB(db)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range fixedQueries() {
		want, err := ref.eval(spec)
		if err != nil {
			t.Fatalf("query %d: reference: %v", i, err)
		}
		q, err := sqlparse.Parse(spec.sql())
		if err != nil {
			t.Fatalf("query %d: %q: %v", i, spec.sql(), err)
		}
		opt, err := optimizer.New(ctx, est)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("query %d: optimize: %v", i, err)
		}
		got, _, _, err := engine.Run(ctx, plan.Root)
		if err != nil {
			t.Fatalf("query %d: run: %v", i, err)
		}
		if !sameRows(got.Rows, want, spec.orderBy >= 0) {
			t.Errorf("query %d %q:\n engine    %v\n reference %v", i, spec.sql(), got.Rows, want)
		}
		if n, err := ref.count(spec); err != nil || n != len(want) {
			t.Errorf("query %d: count = %d, %v; eval has %d rows", i, n, err, len(want))
		}
	}
}

func TestSameRowsTellsAnswersApart(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefDB(db)
	if err != nil {
		t.Fatal(err)
	}
	qs := fixedQueries()
	a, _ := ref.eval(qs[0])
	b, _ := ref.eval(qs[12])
	if sameRows(a, b, false) {
		t.Error("two different counts compared equal")
	}
	g, _ := ref.eval(qs[5])
	if len(g) < 2 {
		t.Fatal("the GROUP BY query has fewer than two groups")
	}
	swapped := append(append(g[:0:0], g[1:]...), g[0])
	if !sameRows(swapped, g, false) || sameRows(swapped, g, true) {
		t.Error("row order: unordered comparison must ignore it, ordered must not")
	}
}
