package robustqo

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
)

// demoDatabase builds a small orders/lineitem database through the public
// API only.
func demoDatabase(t *testing.T, nOrders, linesPerOrder int) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(&TableSchema{
		Name: "orders",
		Columns: []Column{
			{Name: "o_orderkey", Type: Int},
			{Name: "o_total", Type: Float},
		},
		PrimaryKey: "o_orderkey",
		Ordered:    []string{"o_orderkey"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&TableSchema{
		Name: "lineitem",
		Columns: []Column{
			{Name: "l_id", Type: Int},
			{Name: "l_orderkey", Type: Int},
			{Name: "l_ship", Type: Date},
			{Name: "l_receipt", Type: Date},
			{Name: "l_price", Type: Float},
		},
		PrimaryKey: "l_id",
		Foreign:    []ForeignKey{{Column: "l_orderkey", RefTable: "orders"}},
		Indexes: []Index{
			{Name: "ix_ship", Column: "l_ship", Kind: NonClustered},
			{Name: "ix_receipt", Column: "l_receipt", Kind: NonClustered},
		},
		Ordered: []string{"l_id", "l_orderkey"},
	}); err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for o := 0; o < nOrders; o++ {
		if err := db.Insert("orders", Row{NewInt(int64(o)), NewFloat(float64(o) * 1.5)}); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < linesPerOrder; l++ {
			ship := (id * 7919) % 365
			row := Row{
				NewInt(id),
				NewInt(int64(o)),
				NewDate(ship),
				NewDate(ship + 1 + id%10),
				NewFloat(float64(id%100) + 0.5),
			}
			if err := db.Insert("lineitem", row); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEndToEndQuery(t *testing.T) {
	db := demoDatabase(t, 200, 5)
	if err := db.UpdateStatistics(StatsOptions{SampleSize: 300}); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(&Query{
		Tables: []string{"lineitem"},
		Pred:   MustParsePredicate("l_ship BETWEEN 100 AND 200"),
		Aggs: []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Arg: Col("l_price"), As: "total"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Columns) != 2 {
		t.Fatalf("result shape: cols %v rows %d", res.Columns, len(res.Rows))
	}
	if res.Columns[0] != "n" || res.Columns[1] != "total" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Verify the count against direct arithmetic: ship = (id*7919)%365.
	want := int64(0)
	for id := int64(0); id < 1000; id++ {
		s := (id * 7919) % 365
		if s >= 100 && s <= 200 {
			want++
		}
	}
	if res.Rows[0][0].I != want {
		t.Errorf("COUNT = %d, want %d", res.Rows[0][0].I, want)
	}
	if res.SimulatedSeconds <= 0 || res.EstimatedSeconds <= 0 {
		t.Errorf("times: est %g sim %g", res.EstimatedSeconds, res.SimulatedSeconds)
	}
	if !strings.Contains(res.Plan, "Aggregate") {
		t.Errorf("plan missing aggregate:\n%s", res.Plan)
	}
}

func TestJoinThroughPublicAPI(t *testing.T) {
	db := demoDatabase(t, 100, 4)
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(Aggressive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(&Query{
		Tables: []string{"lineitem", "orders"},
		Pred:   MustParsePredicate("o_total > 100 AND l_price < 50"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every output row satisfies the predicate.
	oTotal, lPrice := -1, -1
	for i, c := range res.Columns {
		switch c {
		case "orders.o_total":
			oTotal = i
		case "lineitem.l_price":
			lPrice = i
		}
	}
	if oTotal < 0 || lPrice < 0 {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, r := range res.Rows {
		if r[oTotal].F <= 100 || r[lPrice].F >= 50 {
			t.Fatal("predicate violated in output")
		}
	}
}

func TestSessionThresholdBehaviour(t *testing.T) {
	db := demoDatabase(t, 400, 5)
	if err := db.UpdateStatistics(StatsOptions{SampleSize: 500}); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// An impossible-window query: aggressive sessions pick an index plan,
	// per-query conservative hints switch to the scan.
	q := &Query{
		Tables: []string{"lineitem"},
		Pred:   MustParsePredicate("l_ship BETWEEN 50 AND 54 AND l_receipt BETWEEN 300 AND 304"),
	}
	planLow, err := sess.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planLow, "Index") {
		t.Errorf("T=5%% plan:\n%s", planLow)
	}
	resHigh, err := sess.QueryWithThreshold(q, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resHigh.Plan, "SeqScan") {
		t.Errorf("T=99.9%% plan:\n%s", resHigh.Plan)
	}
}

func TestHistogramSessionDiffersOnCorrelation(t *testing.T) {
	// Perfectly correlated date columns: the robust estimator sees the
	// correlation, histograms multiply marginals.
	db := NewDatabase()
	if err := db.CreateTable(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "a", Type: Int},
			{Name: "b", Type: Int},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4000; i++ {
		v := (i * 31) % 100
		if err := db.Insert("t", Row{NewInt(i), NewInt(v), NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	robust, err := db.Session(Aggressive)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := db.SessionWith(HistogramAVI, Aggressive, Jeffreys)
	if err != nil {
		t.Fatal(err)
	}
	pred := MustParsePredicate("a < 50 AND b < 50")
	rRows, err := robust.EstimateRows([]string{"t"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	hRows, err := hist.EstimateRows([]string{"t"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Truth: 2000 rows. Histograms: ~1000.
	if math.Abs(rRows-2000) > 300 {
		t.Errorf("robust estimate = %g, want ~2000", rRows)
	}
	if math.Abs(hRows-1000) > 200 {
		t.Errorf("histogram estimate = %g, want ~1000", hRows)
	}
}

// diamondDatabase builds a -> {b, c} -> d through the public API. a's
// join synopsis is ill-defined, so UpdateStatistics keeps a plain table
// sample of a, and no synopsis covers an expression joining a to b or c.
func diamondDatabase(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mid := func(name string) *TableSchema {
		return &TableSchema{
			Name:       name,
			Columns:    []Column{{Name: name + "_id", Type: Int}, {Name: name + "_attr", Type: Int}, {Name: name + "_d", Type: Int}},
			PrimaryKey: name + "_id",
			Foreign:    []ForeignKey{{Column: name + "_d", RefTable: "d"}},
		}
	}
	for _, s := range []*TableSchema{
		{Name: "d", Columns: []Column{{Name: "d_id", Type: Int}}, PrimaryKey: "d_id"},
		mid("b"), mid("c"),
		{
			Name:       "a",
			Columns:    []Column{{Name: "a_id", Type: Int}, {Name: "a_attr", Type: Int}, {Name: "a_b", Type: Int}, {Name: "a_c", Type: Int}},
			PrimaryKey: "a_id",
			Foreign:    []ForeignKey{{Column: "a_b", RefTable: "b"}, {Column: "a_c", RefTable: "c"}},
		},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(table string, n int64, row func(i int64) Row) {
		for i := range n {
			if err := db.Insert(table, row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("d", 10, func(i int64) Row { return Row{NewInt(i)} })
	for _, name := range []string{"b", "c"} {
		insert(name, 200, func(i int64) Row { return Row{NewInt(i), NewInt(i * 37 % 100), NewInt(i % 10)} })
	}
	insert("a", 2000, func(i int64) Row {
		return Row{NewInt(i), NewInt(i * 31 % 100), NewInt(i * 7 % 200), NewInt(i * 13 % 200)}
	})
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSessionEstimateFallback: a robust session answers an expression no
// synopsis covers from per-table samples, while a predicate the sample
// cannot evaluate is an error rather than a magic number; planning counts
// each degraded path in robustqo_estimate_fallback_total by kind.
func TestSessionEstimateFallback(t *testing.T) {
	db := diamondDatabase(t)
	sess, err := db.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.EstimateRows([]string{"a", "b", "c"}, MustParsePredicate("a_attr < 50 AND b_attr < 50"))
	if err != nil || rows <= 0 || rows > 2000 {
		t.Errorf("diamond estimate = %g, %v", rows, err)
	}
	if _, err := sess.EstimateRows([]string{"a"}, MustParsePredicate("mystery = 1")); err == nil {
		t.Error("a predicate over an unknown column was estimated")
	}
	ctx, err := db.context()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fallbacks := func(kind string) int64 {
		return reg.Counter("robustqo_estimate_fallback_total", obs.Label{Key: "kind", Value: kind}).Value()
	}
	plan := func(sql string) {
		t.Helper()
		opt, err := optimizer.New(ctx, sess.est)
		if err != nil {
			t.Fatal(err)
		}
		opt.Metrics = reg
		if _, err := opt.Optimize(MustParseQuery(sql)); err != nil {
			t.Fatal(err)
		}
	}
	plan("SELECT COUNT(*) FROM a WHERE a_attr < 50")
	if n := fallbacks("independent") + fallbacks("magic") + fallbacks("groups"); n != 0 {
		t.Errorf("a covered statement counted %d fallbacks", n)
	}
	// Every estimate over a subset joining a to b or c falls back: a⋈b,
	// a⋈c and a⋈b⋈c.
	plan("SELECT COUNT(*) FROM a, b, c WHERE a_attr < 50 AND b_attr < 50 AND c_attr < 50")
	if got := fallbacks("independent"); got != 3 {
		t.Errorf("independent fallbacks = %d, want 3", got)
	}
	plan("SELECT b_attr, COUNT(*) FROM a, b WHERE a_attr < 50 GROUP BY b_attr")
	if got, magic := fallbacks("groups"), fallbacks("magic"); got != 1 || magic != 0 {
		t.Errorf("groups fallbacks = %d, magic = %d; want 1 and 0", got, magic)
	}
}

// TestGroupByEstimateMatchesServe: the library's robust session estimates
// GROUP BY output through the synopsis (GEE), as the histogram session
// does through its distinct counts and as serve's estimator does over the
// same data. A 20,000-row table with 7 groups has 7 groups at T = 0.8.
func TestGroupByEstimateMatchesServe(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateTable(&TableSchema{
		Name: "s", Columns: []Column{{Name: "id", Type: Int}, {Name: "g", Type: Int}}, PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	for i := range int64(20000) {
		if err := db.Insert("s", Row{NewInt(i), NewInt(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("SELECT g, COUNT(*) FROM s GROUP BY g")
	for _, kind := range []EstimatorKind{RobustSampling, HistogramAVI} {
		sess, err := db.SessionWith(kind, 0.8, Jeffreys)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := sess.plan(q, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if plan.EstRows != 7 {
			t.Errorf("%s session: EstRows %g, want 7", plan.Estimator, plan.EstRows)
		}
	}
	// serve builds a bare estimator over sample.BuildAll of the database.
	syn, err := sample.BuildAll(db.store, sample.DefaultSize, stats.NewRNG(2005^0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syn, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := db.context()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstRows != 7 {
		t.Errorf("serve's estimator: EstRows %g, want 7", plan.EstRows)
	}
}

func TestSessionValidation(t *testing.T) {
	db := demoDatabase(t, 10, 2)
	if _, err := db.Session(Moderate); err == nil {
		t.Error("session before UpdateStatistics accepted")
	}
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Session(0); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := db.SessionWith(RobustSampling, 0.5, Prior{}); err == nil {
		t.Error("invalid prior accepted")
	}
	if _, err := db.SessionWith(EstimatorKind(99), 0.5, Jeffreys); err != nil {
		// Unknown kinds surface at estimator build time.
		t.Log("constructor rejected unknown kind early (acceptable)")
	} else {
		s, _ := db.SessionWith(EstimatorKind(99), 0.5, Jeffreys)
		if _, err := s.Query(&Query{Tables: []string{"orders"}}); err == nil {
			t.Error("unknown estimator kind executed")
		}
	}
}

func TestInsertAndCreateErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.Insert("nope", Row{NewInt(1)}); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if err := db.CreateTable(&TableSchema{}); err == nil {
		t.Error("empty schema accepted")
	}
	if err := db.CreateTable(&TableSchema{
		Name:       "x",
		Columns:    []Column{{Name: "a", Type: Int}},
		PrimaryKey: "a",
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("x", Row{NewString("bad")}); err == nil {
		t.Error("type mismatch accepted")
	}
	if n, err := db.NumRows("x"); err != nil || n != 0 {
		t.Errorf("NumRows = %d, %v", n, err)
	}
	if _, err := db.NumRows("nope"); err == nil {
		t.Error("NumRows unknown table accepted")
	}
	if err := db.UpdateStatistics(StatsOptions{SampleSize: -1}); err == nil {
		t.Error("negative sample size accepted")
	}
}

func TestPosteriorAndRobustSelectivityFacade(t *testing.T) {
	// The Section 3.4 worked example through the public API.
	sel, err := RobustSelectivity(10, 100, Jeffreys, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-0.128) > 0.002 {
		t.Errorf("RobustSelectivity = %g", sel)
	}
	dist, err := Posterior(10, 100, Jeffreys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Mean()-10.5/101) > 1e-12 {
		t.Errorf("Mean = %g", dist.Mean())
	}
	q, err := dist.Quantile(0.8)
	if err != nil || math.Abs(q-sel) > 1e-12 {
		t.Errorf("Quantile = %g, %v", q, err)
	}
	if dist.CDF(q)-0.8 > 1e-9 || dist.PDF(0.1) <= 0 || dist.StdDev() <= 0 {
		t.Error("distribution calculus inconsistent")
	}
	if _, err := Posterior(5, 4, Jeffreys); err == nil {
		t.Error("k > n accepted")
	}
}

func TestDateHelpers(t *testing.T) {
	d, err := ParseDate("1997-07-01")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "1997-07-01" {
		t.Errorf("round trip = %s", FormatDate(d))
	}
	if MustParseDate("1997-09-30")-d != 91 {
		t.Error("window arithmetic wrong")
	}
}

func TestStatisticsPersistenceRoundTrip(t *testing.T) {
	db := demoDatabase(t, 150, 4)
	if err := db.UpdateStatistics(StatsOptions{SampleSize: 200}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveStatistics(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh process: same schema and data, statistics loaded not rebuilt.
	db2 := demoDatabase(t, 150, 4)
	if err := db2.LoadStatistics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	s1, err := db.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db2.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	pred := MustParsePredicate("l_ship BETWEEN 100 AND 200")
	r1, err := s1.EstimateRows([]string{"lineitem"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.EstimateRows([]string{"lineitem"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("estimates differ after reload: %g vs %g", r1, r2)
	}
	// Histogram sessions work off loaded statistics too.
	h2, err := db2.SessionWith(HistogramAVI, Moderate, Jeffreys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.EstimateRows([]string{"lineitem"}, pred); err != nil {
		t.Errorf("histogram estimate after load: %v", err)
	}
	// Queries run end to end on loaded statistics.
	res, err := s2.Query(&Query{Tables: []string{"lineitem"}, Pred: pred,
		Aggs: []AggSpec{{Func: Count, As: "n"}}})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after load: %v", err)
	}
}

func TestStatisticsPersistenceErrors(t *testing.T) {
	db := demoDatabase(t, 10, 2)
	var buf bytes.Buffer
	if err := db.SaveStatistics(&buf); err == nil {
		t.Error("save before UpdateStatistics accepted")
	}
	if err := db.LoadStatistics(strings.NewReader("nonsense")); err == nil {
		t.Error("garbage statistics accepted")
	}
	// A schema mismatch is rejected at load time.
	if err := db.UpdateStatistics(StatsOptions{SampleSize: 50}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := db.SaveStatistics(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewDatabase()
	if err := other.CreateTable(&TableSchema{
		Name:       "lineitem",
		Columns:    []Column{{Name: "something_else", Type: Int}},
		PrimaryKey: "something_else",
	}); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadStatistics(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestQueryOrderByLimitThroughPublicAPI(t *testing.T) {
	db := demoDatabase(t, 100, 3)
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(&Query{
		Tables:  []string{"lineitem"},
		Pred:    MustParsePredicate("l_price >= 0"),
		OrderBy: []SortKey{{Col: ColumnRef{Table: "lineitem", Column: "l_price"}, Desc: true}},
		Limit:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	priceIdx := -1
	for i, c := range res.Columns {
		if c == "lineitem.l_price" {
			priceIdx = i
		}
	}
	if priceIdx < 0 {
		t.Fatalf("columns = %v", res.Columns)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][priceIdx].F > res.Rows[i-1][priceIdx].F {
			t.Fatal("descending order violated")
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := demoDatabase(t, 200, 4)
	if err := db.UpdateStatistics(StatsOptions{SampleSize: 200}); err != nil {
		t.Fatal(err)
	}
	// Concurrent sessions with different thresholds hammering different
	// queries; execution is read-only and must race-free agree with the
	// sequential answers.
	sequential := func(th ConfidenceThreshold, lo int64) int64 {
		sess, err := db.Session(th)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(&Query{
			Tables: []string{"lineitem"},
			Pred:   MustParsePredicate(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, lo+60)),
			Aggs:   []AggSpec{{Func: Count, As: "n"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	type job struct {
		th ConfidenceThreshold
		lo int64
	}
	jobs := make([]job, 0, 24)
	want := make([]int64, 0, 24)
	for i := 0; i < 24; i++ {
		j := job{th: []ConfidenceThreshold{0.05, 0.5, 0.95}[i%3], lo: int64(i * 12)}
		jobs = append(jobs, j)
		want = append(want, sequential(j.th, j.lo))
	}
	var wg sync.WaitGroup
	got := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sess, err := db.Session(j.th)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sess.Query(&Query{
				Tables: []string{"lineitem"},
				Pred:   MustParsePredicate(fmt.Sprintf("l_ship BETWEEN %d AND %d", j.lo, j.lo+60)),
				Aggs:   []AggSpec{{Func: Count, As: "n"}},
			})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Rows[0][0].I
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("job %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestQuerySQLThroughPublicAPI(t *testing.T) {
	db := demoDatabase(t, 120, 4)
	if err := db.UpdateStatistics(StatsOptions{}); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(Moderate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.QuerySQL(
		"SELECT COUNT(*) AS n, MAX(l_price) AS top FROM lineitem WHERE l_ship BETWEEN 100 AND 200")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "n" || res.Columns[1] != "top" {
		t.Fatalf("result = %v %v", res.Columns, res.Rows)
	}
	// Cross-check against the programmatic form.
	res2, err := sess.Query(&Query{
		Tables: []string{"lineitem"},
		Pred:   MustParsePredicate("l_ship BETWEEN 100 AND 200"),
		Aggs: []AggSpec{
			{Func: Count, As: "n"},
			{Func: Max, Arg: Col("l_price"), As: "top"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != res2.Rows[0][0].I || res.Rows[0][1].F != res2.Rows[0][1].F {
		t.Errorf("SQL vs programmatic mismatch: %v vs %v", res.Rows[0], res2.Rows[0])
	}
	if _, err := sess.QuerySQL("nonsense"); err == nil {
		t.Error("bad SQL accepted")
	}
	// MustParseQuery is exported and panics on bad input.
	q := MustParseQuery("SELECT * FROM lineitem LIMIT 2")
	r3, err := sess.Query(q)
	if err != nil || len(r3.Rows) != 2 {
		t.Errorf("limit query = %d rows, %v", len(r3.Rows), err)
	}
}
