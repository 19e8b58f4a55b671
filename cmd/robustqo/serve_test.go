package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// testFlags are the database flags the tests build servers from.
func testFlags(lines, dop int) dbFlags {
	return dbFlags{lines: lines, threshold: 0.8, estimator: "robust", sampleSize: 500, seed: 2005, parallelism: dop}
}

func newTestServer(t *testing.T, lines, dop int) *server {
	t.Helper()
	s, err := newServer(testFlags(lines, dop), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := newTestServer(t, 5000, 1)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeQueryMetricsAndPprof(t *testing.T) {
	ts := testServer(t)

	// Fresh server: metrics exist but empty, index names the endpoints.
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}

	sql := url.QueryEscape("SELECT l_id FROM lineitem WHERE l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30' LIMIT 3")
	code, body = get(t, ts.URL+"/query?analyze=1&sql="+sql)
	if code != http.StatusOK {
		t.Fatalf("query: code %d body %q", code, body)
	}
	for _, want := range []string{"EXPLAIN ANALYZE:", "est=", "act=", "T=80%", "(3 rows)"} {
		if !strings.Contains(body, want) {
			t.Errorf("query response missing %q:\n%s", want, body)
		}
	}

	// Per-request threshold: the T annotation follows the URL parameter.
	code, body = get(t, ts.URL+"/query?analyze=1&threshold=0.95&sql="+sql)
	if code != http.StatusOK || !strings.Contains(body, "T=95%") {
		t.Errorf("threshold override: code %d body:\n%s", code, body)
	}

	// Both queries landed in the registry.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"robustqo_queries_total 2",
		"robustqo_rows_returned_total 6",
		`robustqo_plans_total{order="lineitem",t="0.8"} 1`,
		`robustqo_plans_total{order="lineitem",t="0.95"} 1`,
		`robustqo_qerror_count{op="Limit"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: code %d", code)
	}
}

// TestServeCountsUnsortedMergeJoinInput pins the counter for lineitem's
// false Ordered declaration. serve.dashboard's lineitem⋈orders shape plans
// a MergeJoin that takes lineitem as already sorted on l_orderkey, but the
// generator assigns l_orderkey cyclically, so every execution sorts that
// input without a SortTuples charge — and
// robustqo_mergejoin_unsorted_input_total counts each one.
func TestServeCountsUnsortedMergeJoinInput(t *testing.T) {
	ts := testServer(t)
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < 50000 AND l_quantity >= 14")
	for run := 1; run <= 2; run++ {
		code, body := get(t, ts.URL+"/query?analyze=1&sql="+sql)
		if code != http.StatusOK {
			t.Fatalf("query: code %d body %q", code, body)
		}
		if !strings.Contains(body, "MergeJoin(orders.o_orderkey = lineitem.l_orderkey)") {
			t.Fatalf("the dashboard join shape no longer plans a merge join:\n%s", body)
		}
		_, metrics := get(t, ts.URL+"/metrics")
		if want := fmt.Sprintf("robustqo_mergejoin_unsorted_input_total %d\n", run); !strings.Contains(metrics, want) {
			t.Fatalf("after %d executions, metrics missing %q", run, want)
		}
	}
}

// TestServeChargesOutputOnce pins that a /query response reports what
// engine.Run reports for the same cached plan: the same row count, and a
// simulated time whose output-tuple charge is counted exactly once — not
// dropped, not doubled. The query returns enough rows that either slip
// would move the printed seconds.
func TestServeChargesOutputOnce(t *testing.T) {
	s := newTestServer(t, 5000, 1)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	sqlText := "SELECT l_orderkey FROM lineitem WHERE l_quantity < 20"
	code, body := get(t, ts.URL+"/query?sql="+url.QueryEscape(sqlText))
	if code != http.StatusOK {
		t.Fatalf("query: code %d body %q", code, body)
	}

	q, err := sqlparse.Parse(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	plan, outcome, err := s.cache.Plan(plancache.Env{
		Ctx: s.ctx, Est: s.est, DOP: s.dop,
		Optimize: func(*optimizer.Query) (*optimizer.Plan, error) {
			return nil, fmt.Errorf("the served plan was not cached")
		},
	}, q)
	if err != nil || outcome != plancache.Hit {
		t.Fatalf("cached plan lookup: %v %v, want hit", outcome, err)
	}
	res, c, sim, err := engine.Run(s.ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("simulated execution: %.4f s\n(%d rows)\n", sim, len(res.Rows))
	if !strings.HasSuffix(body, want) {
		t.Fatalf("response does not end with engine.Run's numbers %q:\n%s", want, body)
	}
	for _, slip := range []int64{0, 2 * c.Output} {
		wrong := c
		wrong.Output = slip
		if fmt.Sprintf("%.4f", s.ctx.Model.Time(wrong)) == fmt.Sprintf("%.4f", sim) {
			t.Fatalf("fixture: %d rows do not move the printed time when %d output tuples are charged",
				len(res.Rows), slip)
		}
	}
}

func TestServeLedgerAndQueriesEndpoints(t *testing.T) {
	ts := testServer(t)

	// Empty state renders, with zero counts.
	code, body := get(t, ts.URL+"/debug/ledger")
	if code != http.StatusOK || !strings.Contains(body, "0 fingerprints, 0 observations") {
		t.Fatalf("empty ledger: code %d body %q", code, body)
	}
	code, body = get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK || !strings.Contains(body, "0 in-flight queries") {
		t.Fatalf("empty queries: code %d body %q", code, body)
	}

	// A query feeds the ledger: its scan fingerprint shows up with the
	// value-binned literal, and the drift table attributes it to lineitem.
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
	if code, body := get(t, ts.URL+"/query?sql="+sql); code != http.StatusOK {
		t.Fatalf("query: code %d body %q", code, body)
	}
	code, body = get(t, ts.URL+"/debug/ledger?n=5")
	if code != http.StatusOK {
		t.Fatalf("ledger: code %d", code)
	}
	for _, want := range []string{"lineitem|l_quantity<b4", "per-table drift:", "lineitem"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/ledger missing %q:\n%s", want, body)
		}
	}
	if code, _ := get(t, ts.URL+"/debug/ledger?n=nope"); code != http.StatusBadRequest {
		t.Errorf("bad n: code %d, want 400", code)
	}

	// The ledger and latency series land in /metrics.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"robustqo_ledger_appends_total",
		"robustqo_ledger_qerror_count",
		"robustqo_query_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeQueryErrors(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		name, path string
	}{
		{"missing sql", "/query"},
		{"bad sql", "/query?sql=" + url.QueryEscape("DELETE FROM lineitem")},
		{"bad threshold", "/query?threshold=nope&sql=" + url.QueryEscape("SELECT * FROM lineitem LIMIT 1")},
		{"threshold out of range", "/query?threshold=1.5&sql=" + url.QueryEscape("SELECT * FROM lineitem LIMIT 1")},
		{"unknown table", "/query?sql=" + url.QueryEscape("SELECT * FROM ghost")},
	} {
		if code, _ := get(t, ts.URL+tc.path); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", tc.name, code)
		}
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path not 404: %d", code)
	}
}

// TestServeTakesNoEstimateFallback: every statement shape of serve.adhoc
// (a LIMIT over one table, part lookups joined to part, date ranges over
// one to three tables) and of paper.crossover (the two experiment
// queries) has a covering synopsis, so planning them at any threshold
// counts no estimate fallback.
func TestServeTakesNoEstimateFallback(t *testing.T) {
	s := newTestServer(t, 5000, 1)
	var qs []*optimizer.Query
	for _, sql := range []string{
		"SELECT l_quantity FROM lineitem WHERE l_extendedprice > 1000 AND l_quantity < 40 LIMIT 7",
		"SELECT o_totalprice FROM orders WHERE o_totalprice BETWEEN 1000 AND 90000 LIMIT 3",
		"SELECT p_size FROM part WHERE p_size < 30 LIMIT 5",
		"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, part WHERE p_attr1 = 17 AND l_quantity < 30",
		"SELECT MAX(l_quantity) FROM lineitem, orders, part WHERE p_attr2 BETWEEN 5 AND 6",
		"SELECT COUNT(*) FROM lineitem WHERE l_partkey = 9 AND l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-05-15'",
		"SELECT MIN(l_id) FROM lineitem, orders WHERE l_receiptdate = DATE '1996-06-01' AND l_id < 4000",
		"SELECT SUM(l_quantity) FROM lineitem, orders, part WHERE l_shipdate BETWEEN DATE '1994-02-03' AND DATE '1994-02-03'",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	for _, x := range []int64{0, 17, 39} {
		qs = append(qs, tpch.Experiment1Query(3*x), tpch.Experiment2Query(x))
	}
	for _, q := range qs {
		for _, threshold := range []core.ConfidenceThreshold{0.05, 0.8, 0.95} {
			est, err := s.bayes.WithThreshold(threshold)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.execute(context.Background(), request{sql: "q", q: q, est: est}); err != nil {
				t.Fatalf("%v: %v", q, err)
			}
		}
	}
	var b strings.Builder
	if err := s.reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "robustqo_estimate_fallback_total") {
		t.Errorf("fallbacks counted:\n%s", b.String())
	}
}
