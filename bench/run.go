package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"robustqo/internal/storage"
	"robustqo/internal/tpch"
)

// workload is one named traffic mix.
type workload struct {
	name string
	gen  func(seed int64) []request
	// serve workloads drive a real `robustqo serve` subprocess over HTTP;
	// the others host the engine in the benchmark process.
	serve   bool
	clients int
	// sys is the in-process system: the one measured for the in-process
	// workloads, and the one a traced run replays a serve workload on.
	sys systemConfig
	// fullRows compares whole answers; serve replies only carry a count.
	fullRows bool
}

var workloads = []workload{
	{name: "serve.dashboard", gen: genDashboard, serve: true, clients: 2,
		sys: systemConfig{data: tpch.Config{Lines: serveLines}, dop: 1, planCache: true}},
	{name: "serve.adhoc", gen: genAdhoc, serve: true, clients: 2,
		sys: systemConfig{data: tpch.Config{Lines: serveLines}, dop: 1, planCache: true}},
	{name: "scan.columnar", gen: genColumnar, clients: 1, fullRows: true,
		sys: systemConfig{data: tpch.Config{Lines: columnarLines, ClusterDates: true, Partitions: 4}, columnar: true, dop: 2, planCache: true}},
	{name: "paper.crossover", gen: genCrossover, clients: 1, fullRows: true,
		sys: systemConfig{data: tpch.Config{Lines: serveLines, PartCorrelation: 0.5}, dop: 1}},
}

// setupRuns is how many cold starts one run makes; setup_s is their median.
const setupRuns = 5

// windows is how many equal windows the measured time is cut into; the
// latency and throughput figures are medians over the windows, which
// keeps one noisy second from moving a whole run.
const windows = 5

// run holds what one benchmark run has counted so far.
type run struct {
	w       workload
	reqs    []request
	seconds float64
	outDir  string
	bin     string // the robustqo binary

	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
		fmt.Fprintf(os.Stderr, "bench: first failed operation: %v\n", err)
	}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// expect fills in every request's expected answer from the reference
// evaluator, once per distinct statement, and returns the positions of
// the list's distinct requests in order of first appearance.
func (r *run) expect(db *storage.Database) ([]int, error) {
	ref, err := newRefDB(db)
	if err != nil {
		return nil, err
	}
	first := map[string]int{}
	var distinct []int
	for i := range r.reqs {
		req := &r.reqs[i]
		key := req.key()
		if j, ok := first[key]; ok {
			req.wantRows, req.wantCount = r.reqs[j].wantRows, r.reqs[j].wantCount
			continue
		}
		first[key] = i
		distinct = append(distinct, i)
		if r.w.fullRows {
			req.wantRows, err = ref.eval(req.spec)
			req.wantCount = len(req.wantRows)
		} else {
			req.wantCount, err = ref.count(req.spec)
		}
		if err != nil {
			return nil, fmt.Errorf("reference answer for %q: %w", req.sql, err)
		}
	}
	return distinct, nil
}

// askFunc sends one request on behalf of a client, checks the answer
// against the reference, and returns the simulated cost of the query.
type askFunc func(client int, req *request) (sim float64, err error)

// checkPass asks every distinct statement once, in list order, with one
// client: it fills the plan cache in an order that does not depend on
// timing, checks each answer, and collects the simulated cost, spread
// over the whole list so that repeated statements weigh as often as
// they are asked.
func (r *run) checkPass(distinct []int, ask askFunc) []float64 {
	simOf := map[string]float64{}
	for _, i := range distinct {
		req := &r.reqs[i]
		r.attempt()
		sim, err := ask(0, req)
		if err != nil {
			r.fail(fmt.Errorf("%s: %w", req.sql, err))
		}
		simOf[req.key()] = sim
	}
	sims := make([]float64, len(r.reqs))
	for i := range r.reqs {
		sims[i] = simOf[r.reqs[i].key()]
	}
	return sims
}

// connect opens n keep-alive clients to the server, prepares the
// statements of the list's prepared requests, and returns the function
// that sends a request on one of the clients and checks the row count of
// the reply, which is all of the answer a reply carries.
func (r *run) connect(ctx context.Context, srv *server, n int, distinct []int) (askFunc, error) {
	stmts := map[int]string{}
	clients := make([]*client, n)
	for c := range clients {
		clients[c] = newClient(srv.base, stmts)
	}
	for _, i := range distinct {
		if req := &r.reqs[i]; req.prepared && stmts[req.tpl] == "" {
			if err := clients[0].prepare(ctx, req); err != nil {
				return nil, err
			}
		}
	}
	return func(c int, req *request) (float64, error) {
		rep, err := clients[c].do(ctx, req)
		if err == nil && rep.rows != req.wantCount {
			err = fmt.Errorf("%d rows, reference says %d", rep.rows, req.wantCount)
		}
		return rep.sim, err
	}, nil
}

// verify compares an in-process answer with the reference.
func (r *run) verify(req *request, out outcome) error {
	if r.w.fullRows && !sameRows(out.res.Rows, req.wantRows, req.spec.orderBy >= 0) {
		return fmt.Errorf("answer %v, reference says %v", out.res.Rows, req.wantRows)
	}
	if len(out.res.Rows) != req.wantCount {
		return fmt.Errorf("%d rows, reference says %d", len(out.res.Rows), req.wantCount)
	}
	return nil
}

// timing is one correct reply: when it completed, counted from the start
// of the measured time, and how long the client waited for it.
type timing struct {
	done, latency time.Duration
}

// closedLoop runs one goroutine per client, each sending its share of
// the list (client c takes positions c, c+clients, ...) over and over,
// the next request only after the previous reply, until the time is up.
func (r *run) closedLoop(ctx context.Context, clients int, d time.Duration, ask askFunc) []timing {
	start := time.Now()
	per := make([][]timing, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Since(start) < d && ctx.Err() == nil; i += clients {
				req := &r.reqs[i%len(r.reqs)]
				r.attempt()
				t0 := time.Now()
				if _, err := ask(c, req); err != nil {
					r.fail(fmt.Errorf("%s: %w", req.sql, err))
					continue
				}
				per[c] = append(per[c], timing{done: time.Since(start), latency: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	var all []timing
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// endToEnd is the client-side summary of a measured period.
type endToEnd struct {
	p50ms, p95ms, qps float64
	// The tail figure: the highest percentile with at least ten samples
	// beyond it, over all samples of the period.
	tailPct, tailMS float64
	samples         int
	meanMS          float64
	// The per-window figures the medians were taken over.
	windowP50, windowP95, windowQPS []float64
}

// summarize cuts the period into equal windows by completion time and
// reports the median over the windows of each window's p50, p95 and
// replies per second.
func summarize(samples []timing, d time.Duration) endToEnd {
	byWindow := make([][]float64, windows)
	var all []float64
	for _, s := range samples {
		w := int(int64(s.done) * windows / int64(d))
		if w >= windows {
			w = windows - 1 // in flight when the time was up
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		byWindow[w] = append(byWindow[w], ms)
		all = append(all, ms)
	}
	var p50s, p95s, rates []float64
	for _, lat := range byWindow {
		sorted := sortedCopyOf(lat)
		p50s = append(p50s, percentile(sorted, 50))
		p95s = append(p95s, percentile(sorted, 95))
		rates = append(rates, float64(len(lat))/(d.Seconds()/windows))
	}
	out := endToEnd{p50ms: median(p50s), p95ms: median(p95s), qps: median(rates), samples: len(all), meanMS: mean(all),
		windowP50: p50s, windowP95: p95s, windowQPS: rates}
	if p, ok := tailPercentile(len(all)); ok {
		out.tailPct, out.tailMS = p, percentile(sortedCopyOf(all), p)
	}
	return out
}

// untraced measures the end-to-end metrics of the workload: the gated
// ones BENCHMARK.json lists, and the tail figure and sample count that
// are reported without a bound.
func (r *run) untraced(ctx context.Context) (gated, ungated map[string]metric, err error) {
	var (
		e2e    endToEnd
		sims   []float64
		setups []float64
		rss    float64
	)
	if r.w.serve {
		e2e, sims, setups, rss, err = r.untracedServe(ctx)
	} else {
		e2e, sims, setups, rss, err = r.untracedInproc(ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: per window: p50 %.3v ms, p95 %.3v ms, %.4v replies/s; set-ups %.3v s\n",
		r.w.name, e2e.windowP50, e2e.windowP95, e2e.windowQPS, setups)
	gated = map[string]metric{
		"p50_ms":        {e2e.p50ms, "ms"},
		"p95_ms":        {e2e.p95ms, "ms"},
		"qps":           {e2e.qps, "1/s"},
		"sim_cost_s":    {mean(sims), "s"},
		"sim_cost_sd_s": {stddev(sims), "s"},
		"rss_mb":        {rss, "MiB"},
		"setup_s":       {median(setups), "s"},
	}
	ungated = map[string]metric{
		"tail_ms":  {e2e.tailMS, "ms"},
		"tail_pct": {e2e.tailPct, "%"},
		"samples":  {float64(e2e.samples), "count"},
		"mean_ms":  {e2e.meanMS, "ms"},
	}
	return gated, ungated, nil
}

func (r *run) untracedServe(ctx context.Context) (e2e endToEnd, sims, setups []float64, rss float64, err error) {
	// The expected answers come from a copy of the data the server will
	// generate for itself; it is dropped before the server starts.
	db, err := tpch.Generate(tpch.Config{Lines: r.w.sys.data.Lines, Seed: dataSeed})
	if err != nil {
		return
	}
	distinct, err := r.expect(db)
	if err != nil {
		return
	}
	db = nil
	debug.FreeOSMemory()

	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		if srv, took, err = startServer(ctx, r.bin, r.outDir, r.w.sys.data.Lines); err != nil {
			return
		}
		setups = append(setups, took.Seconds())
	}
	defer srv.stop()

	before, err := srv.counters()
	if err != nil {
		return
	}
	ask, err := r.connect(ctx, srv, r.w.clients, distinct)
	if err != nil {
		return
	}
	sims = r.checkPass(distinct, ask)
	d := time.Duration(r.seconds * float64(time.Second))
	samples := r.closedLoop(ctx, r.w.clients, d, ask)
	e2e = summarize(samples, d)

	after, err := srv.counters()
	if err != nil {
		return
	}
	for _, name := range []string{"robustqo_admission_shed_total", "robustqo_admission_timeouts_total"} {
		if n := after[name] - before[name]; n > 0 {
			r.fail(fmt.Errorf("server reports %s = %d", name, n))
		}
	}
	rss, err = peakRSSMiB(srv.cmd.Process.Pid)
	return
}

func (r *run) untracedInproc(ctx context.Context) (e2e endToEnd, sims, setups []float64, rss float64, err error) {
	var sys *system
	for i := 0; i < setupRuns; i++ {
		sys = nil
		runtime.GC()
		t0 := time.Now()
		if sys, err = buildSystem(r.w.sys); err != nil {
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	distinct, err := r.expect(sys.ctx.DB)
	if err != nil {
		return
	}
	debug.FreeOSMemory()

	p := newPipeline(sys, nil, false)
	ask := func(_ int, req *request) (float64, error) {
		out, err := p.exec(ctx, req)
		if err == nil {
			err = r.verify(req, out)
		}
		return out.sim, err
	}
	sims = r.checkPass(distinct, ask)

	d := time.Duration(r.seconds * float64(time.Second))
	e2e = summarize(r.closedLoop(ctx, r.w.clients, d, ask), d)
	rss, err = peakRSSMiB(os.Getpid())
	return
}
