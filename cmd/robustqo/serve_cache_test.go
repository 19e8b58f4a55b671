package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"robustqo/internal/plancache"
)

func TestServeQueryPlanCacheHit(t *testing.T) {
	ts := testServer(t)
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")

	code, body := get(t, ts.URL+"/query?sql="+sql)
	if code != http.StatusOK || !strings.Contains(body, "plan cache: miss") {
		t.Fatalf("cold query: code %d body:\n%s", code, body)
	}
	code, body = get(t, ts.URL+"/query?sql="+sql)
	if code != http.StatusOK || !strings.Contains(body, "plan cache: hit") {
		t.Fatalf("warm query: code %d body:\n%s", code, body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"robustqo_plancache_misses_total 1",
		"robustqo_plancache_hits_total 1",
		"robustqo_admission_admitted_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/queries surfaces cache + admission state.
	code, body = get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("debug/queries: code %d", code)
	}
	for _, want := range []string{"plan cache: 1 entries", "hits=1", "admission:", "admitted=2"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries missing %q:\n%s", want, body)
		}
	}
}

func TestServePrepareExec(t *testing.T) {
	ts := testServer(t)

	sql := url.QueryEscape("SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1995-03-28'")
	code, body := get(t, ts.URL+"/prepare?sql="+sql)
	if code != http.StatusOK {
		t.Fatalf("prepare: code %d body %q", code, body)
	}
	var prep struct {
		Stmt   string `json:"stmt"`
		Params int    `json:"params"`
	}
	if err := json.Unmarshal([]byte(body), &prep); err != nil {
		t.Fatalf("prepare response not JSON: %v\n%s", err, body)
	}
	if prep.Stmt == "" || prep.Params != 2 {
		t.Fatalf("prepare = %+v, want 2 params", prep)
	}

	// First execution optimizes and caches the template's plan.
	code, body = get(t, ts.URL+"/exec?stmt="+prep.Stmt+"&args="+url.QueryEscape("1995-01-01,1995-03-28"))
	if code != http.StatusOK || !strings.Contains(body, "plan cache: miss") {
		t.Fatalf("first exec: code %d body:\n%s", code, body)
	}
	if !strings.Contains(body, "rows)") {
		t.Fatalf("first exec has no row count:\n%s", body)
	}
	// Identical binding: pure cache hit.
	code, body = get(t, ts.URL+"/exec?stmt="+prep.Stmt+"&args="+url.QueryEscape("1995-01-01,1995-03-28"))
	if code != http.StatusOK || !strings.Contains(body, "plan cache: hit") {
		t.Fatalf("repeat exec: code %d body:\n%s", code, body)
	}
	// A new binding is its own cache entry: optimized cold once, then hit.
	for _, want := range []string{"plan cache: miss", "plan cache: hit"} {
		code, body = get(t, ts.URL+"/exec?stmt="+prep.Stmt+"&args="+url.QueryEscape("1995-04-01,1995-06-28"))
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Fatalf("new binding, want %q: code %d body:\n%s", want, code, body)
		}
	}

	// Error paths are structured JSON.
	code, body = get(t, ts.URL+"/exec?stmt=nope&args=1,2")
	if code != http.StatusNotFound || !strings.Contains(body, `"unknown_stmt"`) {
		t.Errorf("unknown stmt: code %d body %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/exec?stmt="+prep.Stmt+"&args=1"); code != http.StatusBadRequest {
		t.Errorf("arity mismatch: code %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/exec?stmt="+prep.Stmt+"&args="+url.QueryEscape("abc,def")); code != http.StatusBadRequest {
		t.Errorf("unparseable args: code %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/prepare"); code != http.StatusBadRequest {
		t.Errorf("prepare without sql: code %d, want 400", code)
	}
}

func TestServeOverloadShedsBounded(t *testing.T) {
	s := newTestServer(t, 20000, 1)
	// One execution slot and one queue seat. The test holds the slot
	// itself while the clients arrive, so the overload does not depend
	// on how long a query runs: the first client queues, every later one
	// finds the queue full and is shed, and the queued one is admitted
	// once the slot is released. Its queue timeout outlasts the wait.
	s.adm = plancache.NewAdmission(plancache.AdmissionConfig{
		Slots: 1, MaxQueue: 1, QueueTimeout: time.Minute,
	}, 1, s.reg)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	baseline := runtime.NumGoroutine()
	release, err := s.adm.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < 90000 AND l_quantity >= 10")
	const clients = 8
	codes := make([]int, clients)
	var retryAfter string
	var mu sync.Mutex
	var queued, arrivals sync.WaitGroup
	client := func(wg *sync.WaitGroup, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?sql=" + sql)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				retryAfter = resp.Header.Get("Retry-After")
				mu.Unlock()
			}
		}()
	}
	client(&queued, 0)
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.adm.Waiting() == 0 {
		release()
		t.Fatal("the first client never queued behind the held slot")
	}
	for i := 1; i < clients; i++ {
		client(&arrivals, i)
	}
	arrivals.Wait()
	release()
	queued.Wait()

	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d under overload", c)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed == 0 {
		t.Error("no request was shed despite slots=1 queue=1")
	}
	if retryAfter == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.reg.Counter("robustqo_admission_shed_total").Value() +
		s.reg.Counter("robustqo_admission_timeouts_total").Value(); got == 0 {
		t.Error("no shed/timeout counters recorded")
	}

	// The gate recovers: a fresh request is admitted.
	if code, body := get(t, ts.URL+"/query?sql="+sql); code != http.StatusOK {
		t.Fatalf("post-overload query: code %d body %q", code, body)
	}

	// No goroutine leak: queued waiters and shed requests all unwound.
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+4 {
		t.Errorf("goroutines grew from %d to %d after overload", baseline, n)
	}
}

func TestServeQueryTimeout(t *testing.T) {
	s := newTestServer(t, 5000, 1)
	s.reqTimeout = time.Nanosecond
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 40")
	code, body := get(t, ts.URL+"/query?sql="+sql)
	if code != http.StatusGatewayTimeout || !strings.Contains(body, `"query_timeout"`) {
		t.Fatalf("timed-out query: code %d body %q", code, body)
	}
}

func TestServeShutdownRejects(t *testing.T) {
	s := newTestServer(t, 5000, 1)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.adm.Close(ctx); err != nil {
		t.Fatal(err)
	}
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
	code, body := get(t, ts.URL+"/query?sql="+sql)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"shutting_down"`) {
		t.Fatalf("draining server: code %d body %q", code, body)
	}
}

func TestServeBodyLimit(t *testing.T) {
	s := newTestServer(t, 5000, 1)
	s.maxBody = 64
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	big := "sql=" + url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10"+strings.Repeat(" ", 4096))
	resp, err := http.Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: code %d, want 400", resp.StatusCode)
	}

	// A small POST body still works.
	small := "sql=" + url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem")
	resp2, err := http.Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small POST body: code %d, want 200", resp2.StatusCode)
	}
}
