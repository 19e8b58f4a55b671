package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// Exchange runs a morselizable source on DOP worker goroutines and merges
// their output back into the serial Open/Next/Close contract. Workers
// claim morsels from a shared counter, run each morsel's windows into one
// pooled Batch while accumulating into private cost.Counters, and ship
// (morsel index, batch) to the coordinator, which re-sequences morsels by
// index — so rows come out in the source's serial order — emits each
// batch as it is, and returns it to the pool when it moves on. At the
// barrier the per-worker counters fold into the shared counters exactly
// once, in worker order. A full drain is therefore byte-identical, in
// both rows and counters, to running the source serially.
//
// With DOP < 2, or over a source that cannot be morselized, Exchange
// degrades to a pure pass-through of the source's own operator.
//
// Under a fused global aggregate (fold.go) the same pool folds each
// morsel into a partial aggregate state instead of a batch, and the
// coordinator merges the partials in morsel order (drainFold).
type Exchange struct {
	Source Node
	DOP    int
	// Trace, when non-nil, receives one worker-N span per worker carrying
	// the morsel and row totals it processed.
	Trace *obs.Trace
}

// Schema implements Node.
func (e *Exchange) Schema(ctx *Context) (expr.RelSchema, error) {
	return e.Source.Schema(ctx)
}

// Describe implements Node.
func (e *Exchange) Describe() string {
	return fmt.Sprintf("Exchange(dop=%d, %s)", e.DOP, e.Source.Describe())
}

// Stream implements Node.
func (e *Exchange) Stream() Operator { return &exchangeOp{node: e} }

// morselResult carries one finished morsel from a worker to the
// coordinator: its rows in a batch, or folded into a partial aggregate
// state part. Ownership of b travels with it: the receiver puts it back
// in the pool. b is nil when err is set. rows counts the morsel's rows.
type morselResult struct {
	m    int
	b    *Batch
	part *aggState
	rows int64
	err  error
}

// runMorsel runs every window of morsel m into one pooled batch, which
// the caller owns on success.
func runMorsel(r morselRunner, w morselWorker, m int, counters *cost.Counters) morselResult {
	b := getBatch(r.schema())
	lo, hi := r.morselSpan(m)
	for next := lo; next < hi; next += BatchSize {
		if err := w.window(b, next, min(next+BatchSize, hi), counters); err != nil {
			putBatch(b)
			return morselResult{m: m, err: err}
		}
	}
	return morselResult{m: m, b: b, rows: int64(b.Len())}
}

// foldPartial folds morsel m into a partial state, recycled from the
// coordinator when one is free.
func (o *exchangeOp) foldPartial(r morselRunner, w morselWorker, m int, counters *cost.Counters) morselResult {
	var part *aggState
	select {
	case part = <-o.free:
	default:
		part = o.fold.a.newAggState()
	}
	res := morselResult{m: m, part: part}
	res.rows, _, res.err = foldMorsel(r, w.(foldWorker), o.fold, part, m, counters)
	return res
}

// workerReport is each worker's final accounting: the counters it
// accumulated privately, published into its own slot of
// exchangeOp.reports as it exits and read by the coordinator after the
// barrier. busy/wall are wall-clock utilization figures; they never
// influence results or cost.Counters.
type workerReport struct {
	counters cost.Counters
	morsels  int
	rows     int64
	busy     time.Duration
	wall     time.Duration
}

type exchangeOp struct {
	node     *Exchange
	counters *cost.Counters
	// fold, when set, makes the workers fold morsels into partial states
	// of a global aggregate (drainFold), which free recycles.
	fold *aggFold
	free chan *aggState

	// passthrough is set when the source runs serially (DOP < 2 or not
	// morselizable); every call then delegates to it.
	passthrough Operator

	// metrics, when non-nil, receives the robustqo_exchange_* utilization
	// series: per-worker busy fractions, queue depth samples, and row/
	// shard skew. Copied from Context.Metrics at Open.
	metrics *obs.Registry
	// shardOf maps a morsel index to its shard; shardRows accumulates
	// emitted rows per shard for the skew metric. Both nil unless the
	// runner spans several shards and metrics are on.
	shardOf   []int
	shardRows []int64

	workers  []morselWorker
	nMorsels int
	claim    atomic.Int64
	stopCh   chan struct{}
	inflight chan struct{} // semaphore: morsels claimed but not yet emitted
	results  chan morselResult
	reports  []workerReport // one slot per worker
	wg       sync.WaitGroup
	spans    []*obs.Span

	next    int                  // next morsel index to emit
	pending map[int]morselResult // received out-of-order morsels
	cur     *Batch               // the morsel batch last emitted; ours to put back
	merged  bool
}

func (o *exchangeOp) Open(ctx *Context, counters *cost.Counters) error {
	o.counters = counters
	src, stats, ok := morselSourceOf(o.node.Source)
	if o.node.DOP < 2 || !ok {
		if o.fold != nil {
			o.passthrough = foldStream(o.node.Source, o.fold)
		} else {
			o.passthrough = o.node.Source.Stream()
		}
		return o.passthrough.Open(ctx, counters)
	}
	runner, err := openMorselSource(ctx, src, stats, counters)
	if err != nil {
		return err
	}
	o.metrics = ctx.Metrics
	if o.metrics != nil {
		// Shards ascend, so the last morsel's is the highest.
		if sr, ok := runner.(shardedRunner); ok {
			if sh := sr.morselShards(); len(sh) > 0 && sh[len(sh)-1] > 0 {
				o.shardOf, o.shardRows = sh, make([]int64, sh[len(sh)-1]+1)
			}
		}
	}
	o.nMorsels = runner.numMorsels()
	nWorkers := min(o.node.DOP, o.nMorsels)
	o.pending = make(map[int]morselResult, nWorkers)
	o.stopCh = make(chan struct{})
	// Two morsels per worker may be in flight — claimed but not yet
	// emitted — so a worker can fill its next morsel while the previous
	// one waits its turn, and no more: every in-flight morsel pins a
	// pooled batch. inflight is the counting semaphore: a worker takes a
	// slot before it claims a morsel and the coordinator frees one for
	// each morsel it emits; results is as deep, so a send never blocks.
	o.inflight = make(chan struct{}, nWorkers*2)
	o.results = make(chan morselResult, cap(o.inflight))
	if o.fold != nil {
		// No more partial states exist than morsels in flight, so a
		// recycled one never blocks the coordinator.
		o.free = make(chan *aggState, cap(o.inflight))
	}
	o.reports = make([]workerReport, nWorkers)
	o.spans = make([]*obs.Span, nWorkers)
	for w := 0; w < nWorkers; w++ {
		mw, err := newMorselWorker(runner, stats)
		if err != nil {
			o.finish()
			return err
		}
		o.workers = append(o.workers, mw)
		o.spans[w] = o.node.Trace.StartSpanDetached(fmt.Sprintf("worker-%d", w))
		o.wg.Add(1)
		go func(w int, mw morselWorker) {
			defer o.wg.Done()
			// Counters stay goroutine-local; they reach the shared
			// counters only via this worker's report slot, merged at the
			// coordinator's barrier. busy/wall time the morsel work vs the
			// worker's whole lifetime — the busy fraction's complement is
			// time spent waiting on the coordinator's backpressure.
			var wc cost.Counters
			var rows int64
			var busy time.Duration
			morsels, wallStart := 0, time.Now()
		claim:
			for {
				select {
				case o.inflight <- struct{}{}:
				case <-o.stopCh:
					break claim
				}
				m := int(o.claim.Add(1)) - 1
				if m >= o.nMorsels {
					break
				}
				start := time.Now()
				var res morselResult
				if o.fold != nil {
					res = o.foldPartial(runner, mw, m, &wc)
				} else {
					res = runMorsel(runner, mw, m, &wc)
				}
				busy += time.Since(start)
				rows += res.rows
				morsels++
				o.results <- res
				if res.err != nil {
					// Stop claiming; the coordinator surfaces the error
					// when emission order reaches this morsel.
					break
				}
			}
			o.reports[w] = workerReport{counters: wc, morsels: morsels, rows: rows, busy: busy, wall: time.Since(wallStart)}
		}(w, mw)
	}
	return nil
}

// Next emits the next in-order morsel batch. The batch handed out stays
// the coordinator's: it goes back to the pool on the following call (the
// Operator contract's validity window) or at Close.
func (o *exchangeOp) Next() (*Batch, error) {
	if o.passthrough != nil {
		return o.passthrough.Next()
	}
	for {
		putBatch(o.cur)
		o.cur = nil
		if o.next >= o.nMorsels {
			o.finish()
			return nil, nil
		}
		res := o.await()
		if res.err != nil {
			return nil, res.err
		}
		if o.cur = res.b; o.cur.Len() > 0 {
			return o.cur, nil
		}
	}
}

// await blocks until the next in-order morsel arrives, stashing any that
// arrive ahead of their turn, and returns it. Morsels are claimed in
// index order and every claimed morsel gets exactly one result, so this
// always terminates.
func (o *exchangeOp) await() morselResult {
	res, ok := o.pending[o.next]
	for !ok {
		if o.metrics != nil && o.fold == nil {
			// Sampled just before each blocking receive: how far the
			// workers have run ahead of the in-order merge. A fused
			// drain's results are partial states, not queued batches.
			o.metrics.Histogram("robustqo_exchange_queue_depth", obs.DepthBuckets).Observe(float64(len(o.results)))
		}
		r := <-o.results
		if o.shardRows != nil {
			o.shardRows[o.shardOf[r.m]] += r.rows
		}
		o.pending[r.m] = r
		res, ok = o.pending[o.next]
	}
	delete(o.pending, o.next)
	o.next++
	<-o.inflight
	return res
}

// drainFold implements folder: it merges the morsels' partial states
// into the global one in morsel order, recycling each, and reports one
// batch per non-empty morsel, as Next emits them. A morsel's error
// surfaces when the merge reaches it.
func (o *exchangeOp) drainFold() (rows, batches int64, err error) {
	if o.passthrough != nil {
		return o.passthrough.(folder).drainFold()
	}
	for o.next < o.nMorsels {
		res := o.await()
		if res.err != nil {
			return rows, batches, res.err
		}
		o.fold.st.merge(res.part)
		res.part.reset()
		select {
		case o.free <- res.part:
		default:
		}
		rows += res.rows
		batches += min(res.rows, 1)
	}
	o.finish()
	return rows, batches, nil
}

func (o *exchangeOp) Close() {
	if o.passthrough != nil {
		o.passthrough.Close()
		return
	}
	o.finish()
}

// finish stops the pool, waits for every worker, returns every morsel
// batch the exchange still holds — undelivered, out of order, or last
// emitted — to the batch pool, and merges the per-worker counters into
// the shared counters and the per-worker tallies into the bypassed
// Instrumented wrappers' stats (worker.release) — exactly once, in worker
// order, so repeated drains and early Closes both account every charge
// deterministically.
func (o *exchangeOp) finish() {
	if o.merged {
		return
	}
	o.merged = true
	if o.stopCh != nil {
		close(o.stopCh)
	}
	o.wg.Wait()
	for {
		// Undelivered morsels (nil channel: skipped) still own a batch.
		select {
		case r := <-o.results:
			putBatch(r.b)
			continue
		default:
		}
		break
	}
	for _, r := range o.pending {
		putBatch(r.b)
	}
	putBatch(o.cur)
	o.pending, o.cur = nil, nil
	var totalRows, totalMorsels, maxWorkerRows int64
	for w, mw := range o.workers {
		mw.release()
		r := o.reports[w]
		o.counters.Add(r.counters)
		totalRows += r.rows
		totalMorsels += int64(r.morsels)
		maxWorkerRows = max(maxWorkerRows, r.rows)
		if sp := o.spans[w]; sp != nil {
			sp.SetAttr("morsels", fmt.Sprintf("%d", r.morsels))
			sp.SetAttr("rows", fmt.Sprintf("%d", r.rows))
			sp.End()
		}
		if o.metrics != nil && r.wall > 0 {
			o.metrics.Histogram("robustqo_exchange_worker_busy_ratio", obs.RatioBuckets).
				Observe(r.busy.Seconds() / r.wall.Seconds())
		}
	}
	o.exportSkew(totalRows, totalMorsels, maxWorkerRows, len(o.workers))
}

// exportSkew emits the drain-level utilization series: totals, the
// max-over-mean row skew across workers, and — when the runner is
// sharded — the same skew statistic across shards. A skew of 1.0 is a
// perfectly balanced drain; the histogram buckets (obs.SkewBuckets) top
// out at 10x.
func (o *exchangeOp) exportSkew(totalRows, totalMorsels, maxWorkerRows int64, nWorkers int) {
	if o.metrics == nil {
		return
	}
	o.metrics.Counter("robustqo_exchange_rows_total").Add(totalRows)
	o.metrics.Counter("robustqo_exchange_morsels_total").Add(totalMorsels)
	if totalRows > 0 && nWorkers > 0 {
		skew := float64(maxWorkerRows) * float64(nWorkers) / float64(totalRows)
		o.metrics.Histogram("robustqo_exchange_row_skew", obs.SkewBuckets).Observe(skew)
	}
	if o.shardRows != nil {
		var shardTotal, shardMax int64
		for _, r := range o.shardRows {
			shardTotal += r
			if r > shardMax {
				shardMax = r
			}
		}
		if shardTotal > 0 {
			skew := float64(shardMax) * float64(len(o.shardRows)) / float64(shardTotal)
			o.metrics.Histogram("robustqo_exchange_shard_skew", obs.SkewBuckets).Observe(skew)
		}
	}
}
