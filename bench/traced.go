package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"robustqo/internal/engine"
	"robustqo/internal/obs"
)

// traceFileQueries bounds how many requests' spans the Chrome trace file
// holds; the metrics use every span.
const traceFileQueries = 2000

// planOps are the access paths and join methods a plan is classified by.
var planOps = []string{"SeqScan", "IndexRangeScan", "IndexIntersect", "HashJoin", "MergeJoin", "INLJoin", "StarSemiJoin"}

// traced measures the per-layer metrics. All layer times come from
// running the request list inside this process with a span around every
// call into a layer; a serve workload is replayed through the calls the
// server's handler makes, after a short HTTP period against the real
// server that supplies the client-side latency and the server's own
// cache counters. Times are means per request, so that the layers add up
// to the in-process latency.
func (r *run) traced(ctx context.Context) (metrics, ungated map[string]metric, err error) {
	sys, err := buildSystem(r.w.sys)
	if err != nil {
		return nil, nil, err
	}
	distinct, err := r.expect(sys.ctx.DB)
	if err != nil {
		return nil, nil, err
	}
	total := time.Duration(r.seconds * float64(time.Second))

	var httpMeanUS, hitRatio, evictions float64
	if r.w.serve {
		if httpMeanUS, hitRatio, evictions, err = r.httpPeriod(ctx, distinct, total/4); err != nil {
			return nil, nil, err
		}
	}

	// Untraced first: the check pass warms the plan cache, then whole
	// passes over the list give the latency tracing is compared with.
	bare := newPipeline(sys, nil, r.w.serve)
	r.checkPass(distinct, func(_ int, req *request) (float64, error) {
		out, err := bare.exec(ctx, req)
		if err == nil {
			err = r.verify(req, out)
		}
		return out.sim, err
	})
	plainMS, err := r.sweep(ctx, bare, total/4, nil)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	p := newPipeline(sys, tr, r.w.serve)
	p.stmts = bare.stmts
	reg := sys.reg
	cacheBefore, err := registryCounters(reg)
	if err != nil {
		return nil, nil, err
	}
	qHitsBefore, qMissBefore := sys.est.Quantiles.Stats()
	segs := func() (skipped, scanned int64) {
		return reg.Counter("robustqo_columnar_segments_skipped_total").Value(), reg.Counter("robustqo_columnar_segments_scanned_total").Value()
	}

	var (
		queries          int
		opSelf           = map[string]time.Duration{}
		pages, tuples    int64 // first pass only: exact counts of the list
		allTuples        int64
		shapes           = map[string]map[string]bool{} // slice -> plan shapes
		plansWith        = map[string]int{}
		roots            []engine.Node
		dateSkip, dateSc int64
	)
	sk0, sc0 := segs()
	_, err = r.sweep(ctx, p, total/2, func(pass, i int, req *request, out outcome) {
		queries++
		allTuples += out.counters.Tuples
		opSelfTimes(out.inst, opSelf)
		sk1, sc1 := segs()
		if req.slice == "date" {
			dateSkip, dateSc = dateSkip+sk1-sk0, dateSc+sc1-sc0
		}
		sk0, sc0 = sk1, sc1
		if pass > 0 {
			return
		}
		pages += out.counters.SeqPages + out.counters.RandPages
		tuples += out.counters.Tuples
		if shapes[req.slice] == nil {
			shapes[req.slice] = map[string]bool{}
		}
		shapes[req.slice][planShape(out.plan.Root)] = true
		for _, op := range planOps {
			if containsOp(out.inst, op) {
				plansWith[op]++
			}
		}
		if i%(len(r.reqs)/128+1) == 0 {
			roots = append(roots, out.plan.Root)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if queries == 0 {
		return nil, nil, fmt.Errorf("no traced request succeeded")
	}

	selfNS, calls := layerTotals(tr.spans)
	perQueryUS := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += selfNS[n]
		}
		return float64(ns) / float64(queries) / 1e3
	}
	// The traced latency less the probes that only tracing adds is what
	// the layers add up to.
	var requestNS int64
	for _, s := range tr.spans {
		if s.name == "request" {
			requestNS += s.end - s.start
		}
	}
	inprocUS := float64(requestNS)/float64(queries)/1e3 - perQueryUS("core.observe_probe", "plancache.normalize_probe")

	instFrac, allocs := r.engineOverheads(sys, roots, total/10)

	if !r.w.serve && sys.cache != nil {
		cacheAfter, err := registryCounters(reg)
		if err != nil {
			return nil, nil, err
		}
		hitRatio, evictions = cacheUse(cacheBefore, cacheAfter)
	}
	qHits, qMiss := sys.est.Quantiles.Stats()
	qHits, qMiss = qHits-qHitsBefore, qMiss-qMissBefore

	m := map[string]metric{
		"sqlparse.parse_us":               {perQueryUS("sqlparse.parse"), "us"},
		"plancache.normalize_us":          {perQueryUS("plancache.normalize_probe"), "us"},
		"plancache.plan_us":               {perQueryUS("plancache.plan", "plancache.bind"), "us"},
		"plancache.hit_ratio":             {hitRatio, "ratio"},
		"plancache.evictions":             {evictions, "count"},
		"optimizer.enumerate_us":          {perQueryUS("optimizer.optimize"), "us"},
		"optimizer.plan_shapes":           {0, "count"},
		"core.estimate_us":                {perQueryUS("core.estimate"), "us"},
		"core.estimate_calls_per_query":   {float64(calls["core.estimate"]) / float64(queries), "count"},
		"core.observe_us":                 {perQueryUS("core.observe_probe"), "us"},
		"core.quantile_us":                {nonNegative(perQueryUS("core.estimate") - perQueryUS("core.observe_probe")), "us"},
		"core.quantile_hit_ratio":         {safeDiv(float64(qHits), float64(qHits+qMiss)), "ratio"},
		"engine.execute_us":               {perQueryUS("engine.execute"), "us"},
		"engine.ns_per_tuple":             {safeDiv(float64(selfNS["engine.execute"]), float64(allTuples)), "ns"},
		"engine.pages":                    {float64(pages), "count"},
		"engine.tuples":                   {float64(tuples), "count"},
		"engine.allocs_per_query":         {allocs, "count"},
		"colstore.segments_skipped_ratio": {safeDiv(float64(dateSkip), float64(dateSkip+dateSc)), "ratio"},
		"colstore.encoded_ratio":          {0, "ratio"},
		"colstore.encode_s":               {sys.stage["colstore.encode_s"], "s"},
		"tpch.generate_s":                 {sys.stage["tpch.generate_s"], "s"},
		"engine.index_build_s":            {sys.stage["engine.index_build_s"], "s"},
		"sample.build_s":                  {sys.stage["sample.build_s"], "s"},
		"obs.instrument_overhead_frac":    {instFrac, "frac"},
		"serve.render_us":                 {perQueryUS("serve.render"), "us"},
		"serve.http_latency_us":           {httpMeanUS, "us"},
		"serve.glue_us":                   {0, "us"},
		"serve.unattributed_frac":         {0, "frac"},
		"bench.other_us":                  {perQueryUS("request"), "us"},
		"bench.inproc_latency_us":         {inprocUS, "us"},
		"trace_overhead_frac":             {safeDiv(float64(requestNS)/float64(queries)/1e6, mean(plainMS)) - 1, "frac"},
	}
	if sys.encs != nil {
		m["colstore.encoded_ratio"] = metric{safeDiv(float64(sys.encs.RawBytes()), float64(sys.encs.EncodedBytes())), "ratio"}
	}
	if r.w.serve {
		// What the client waits for beyond the layers: HTTP, admission
		// queueing, lifecycle bookkeeping. The untraced in-process mean is
		// the base, so tracing overhead does not hide in it.
		glue := httpMeanUS - mean(plainMS)*1e3
		m["serve.glue_us"] = metric{glue, "us"}
		m["serve.unattributed_frac"] = metric{safeDiv(glue, httpMeanUS), "frac"}
	}
	for _, op := range opNames {
		m["engine.op."+op+"_self_us"] = metric{float64(opSelf[op]) / float64(queries) / 1e3, "us"}
	}
	for _, op := range planOps {
		m["optimizer.plans."+op] = metric{float64(plansWith[op]), "count"}
	}
	ungated = map[string]metric{
		"traced_queries":          {float64(queries), "count"},
		"untraced_inproc_mean_ms": {mean(plainMS), "ms"},
	}
	all := map[string]bool{}
	var slices []string
	for slice := range shapes {
		slices = append(slices, slice)
	}
	sort.Strings(slices)
	for _, slice := range slices {
		for s := range shapes[slice] {
			all[s] = true
		}
		if slice != "" { // serve.dashboard does not divide its list
			ungated["optimizer.plan_shapes."+slice] = metric{float64(len(shapes[slice])), "count"}
		}
	}
	m["optimizer.plan_shapes"] = metric{float64(len(all)), "count"}

	keep := tr.spans
	for i, s := range keep {
		if s.query >= traceFileQueries {
			keep = keep[:i]
			break
		}
	}
	file := filepath.Join(r.outDir, r.w.name+".trace.json")
	if err := writeChrome(file, keep); err != nil {
		return nil, nil, err
	}
	return m, ungated, nil
}

func nonNegative(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryCounters reads an in-process registry the way /metrics is
// read from a server: as text.
func registryCounters(reg *obs.Registry) (map[string]int64, error) {
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return nil, err
	}
	return parseCounters(&text)
}

// cacheUse returns, for the plan-cache lookups between two counter
// readings, the share served without a full optimization, and the
// number of evictions.
func cacheUse(before, after map[string]int64) (hitRatio, evictions float64) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	cached := d("robustqo_plancache_hits_total") + d("robustqo_plancache_rebinds_total")
	lookups := cached + d("robustqo_plancache_misses_total") + d("robustqo_plancache_rejects_total")
	return safeDiv(cached, lookups), d("robustqo_plancache_evictions_total")
}

func containsOp(n *engine.Instrumented, op string) bool {
	if engine.OpName(n) == op {
		return true
	}
	for _, k := range n.Kids {
		if containsOp(k, op) {
			return true
		}
	}
	return false
}

// sweep sends whole passes of the list through p, one request after the
// other, until at least d has gone by. each, if not nil, sees every correct answer
// with the number of its pass; answers are checked outside the spans.
// It returns the latency of each correct request in milliseconds.
func (r *run) sweep(ctx context.Context, p *pipeline, d time.Duration, each func(pass, i int, req *request, out outcome)) ([]float64, error) {
	var ms []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i := range r.reqs {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			req := &r.reqs[i]
			r.attempt()
			t0 := time.Now()
			out, err := p.exec(ctx, req)
			took := time.Since(t0)
			if err == nil {
				err = r.verify(req, out)
			}
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", req.sql, err))
				continue
			}
			ms = append(ms, float64(took)/float64(time.Millisecond))
			if each != nil {
				each(pass, i, req, out)
			}
		}
	}
	return ms, nil
}

// httpPeriod starts the real server, checks every distinct statement
// once, and then runs one client in a closed loop for d. It returns the
// mean client latency in microseconds and, from the server's /metrics
// over that loop, the plan-cache hit ratio and eviction count.
func (r *run) httpPeriod(ctx context.Context, distinct []int, d time.Duration) (meanUS, hitRatio, evictions float64, err error) {
	srv, _, err := startServer(ctx, r.bin, r.outDir, r.w.sys.data.Lines)
	if err != nil {
		return
	}
	defer srv.stop()
	ask, err := r.connect(ctx, srv, 1, distinct)
	if err != nil {
		return
	}
	r.checkPass(distinct, ask)
	before, err := srv.counters()
	if err != nil {
		return
	}
	e2e := summarize(r.closedLoop(ctx, 1, d, ask), d)
	after, err := srv.counters()
	if err != nil {
		return
	}
	hitRatio, evictions = cacheUse(before, after)
	return e2e.meanMS * 1e3, hitRatio, evictions, nil
}

// engineOverheads runs the sampled plans bare and under engine.Instrument
// in turn, for at least d, and returns how much slower the instrumented
// runs were as a fraction, and the heap allocations of one bare run.
func (r *run) engineOverheads(sys *system, roots []engine.Node, d time.Duration) (instFrac, allocsPerQuery float64) {
	if len(roots) == 0 {
		return 0, 0
	}
	var bareT, instT time.Duration
	timeBare := func(root engine.Node) {
		t0 := time.Now()
		_, _, _, err := engine.Run(sys.ctx, root)
		bareT += time.Since(t0)
		if err != nil {
			r.fail(err)
		}
	}
	timeInst := func(root engine.Node) {
		t0 := time.Now()
		_, _, _, err := engine.Run(sys.ctx, engine.Instrument(root))
		instT += time.Since(t0)
		if err != nil {
			r.fail(err)
		}
	}
	for start, rounds := time.Now(), 0; rounds == 0 || time.Since(start) < d; rounds++ {
		for i, root := range roots {
			if (i+rounds)%2 == 0 {
				timeBare(root)
				timeInst(root)
			} else {
				timeInst(root)
				timeBare(root)
			}
		}
	}
	instFrac = safeDiv(float64(instT), float64(bareT)) - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, root := range roots {
		timeBare(root)
	}
	runtime.ReadMemStats(&after)
	return instFrac, float64(after.Mallocs-before.Mallocs) / float64(len(roots))
}
