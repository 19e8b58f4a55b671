package main

// Concurrency stress for the serve subcommand: many clients hammer
// /query with mixed confidence thresholds (re-running the optimizer and
// the parallel engine per request) while /metrics is scraped the whole
// time. The test asserts every request succeeds and the final counters
// add up; running under -race in CI is what makes it bite — it covers
// the shared quantile cache, the registry, and the Exchange worker
// pools all at once.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

func TestServeConcurrentQueries(t *testing.T) {
	// 25000 lineitem rows puts the fact table past the parallel cutoff,
	// so parallelism=2 plans real Exchange operators under load.
	s := newTestServer(t, 25000, 2)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	queries := []string{
		"SELECT l_id FROM lineitem WHERE l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30' LIMIT 5",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10",
		"SELECT COUNT(*) FROM lineitem, orders, part WHERE p_attr1 < 20",
	}
	thresholds := []string{"", "0.5", "0.8", "0.95"}
	const clients, reqsPerClient = 8, 6

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reqsPerClient; i++ {
				u := ts.URL + "/query?sql=" + url.QueryEscape(queries[(g+i)%len(queries)])
				if th := thresholds[(g+i)%len(thresholds)]; th != "" {
					u += "&threshold=" + th
				}
				if (g+i)%2 == 0 {
					u += "&analyze=1"
				}
				resp, err := http.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: code %d body %q", g, i, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	// Scrape /metrics continuously until the clients finish.
	stop := make(chan struct{})
	scrapeDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scrapeDone <- nil
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				scrapeDone <- err
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				scrapeDone <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				scrapeDone <- fmt.Errorf("metrics scrape: code %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-scrapeDone; err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final metrics: code %d", code)
	}
	want := fmt.Sprintf("robustqo_queries_total %d", clients*reqsPerClient)
	if !strings.Contains(body, want) {
		t.Errorf("metrics missing %q:\n%s", want, body)
	}
	// The concurrent optimizer runs shared one posterior-quantile cache;
	// its exported totals must have survived the race intact.
	if !strings.Contains(body, "robustqo_quantile_cache_hits_total") {
		t.Errorf("metrics missing quantile cache counters:\n%s", body)
	}
}

// TestServeParallelJoinStress hammers a join query at parallelism 4: the
// lineitem scan is past the parallel cutoff, so the optimizer wraps it in
// an Exchange under the serial join, and every request runs its build,
// its scan workers and its probe concurrently with its siblings. Under
// -race this covers the worker pool under concurrent requests and the
// hash-join metrics at once.
func TestServeParallelJoinStress(t *testing.T) {
	s := newTestServer(t, 25000, 4)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	joinSQL := "SELECT COUNT(*) FROM lineitem, part WHERE p_size < 30"
	const clients, reqsPerClient = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reqsPerClient; i++ {
				u := ts.URL + "/query?sql=" + url.QueryEscape(joinSQL)
				if (g+i)%2 == 0 {
					u += "&analyze=1"
				}
				resp, err := http.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: code %d body %q", g, i, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final metrics: code %d", code)
	}
	want := fmt.Sprintf("robustqo_queries_total %d", clients*reqsPerClient)
	if !strings.Contains(body, want) {
		t.Errorf("metrics missing %q:\n%s", want, body)
	}
	// The engine's metering is wired into the server registry: every
	// request built a hash table, so the build counter must be exported.
	if !strings.Contains(body, "robustqo_hashjoin_builds_total") {
		t.Errorf("metrics missing hash-join build counters:\n%s", body)
	}
}
