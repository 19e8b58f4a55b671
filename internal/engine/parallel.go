package engine

// The morsel pipeline: the one implementation of the leaf scans, serial
// and parallel. A morselizable source splits its streaming work into
// fixed-size contiguous morsels; a worker turns one ≤BatchSize window of
// a morsel at a time into rows of a Batch. Serial execution is DOP 1 of
// this pipeline (morselScanOp in scan.go walks morsels × windows in order
// on the caller's goroutine); under an Exchange the same workers run on a
// goroutine pool. The morsel sources are the leaf scans: SeqScan,
// IndexRangeScan and IndexIntersect. The blocking Open-phase work
// (catalog resolution, index seeks, RID intersection) happens once in
// openMorsels, charged to the shared counters before any window runs.
//
// The window-worker contract: window(out, lo, hi, counters) appends the
// survivors of the source's rows [lo, hi) to out and charges that
// window's page and tuple work to counters; hi-lo ≤ BatchSize and [lo, hi)
// lies inside one morsel. The caller owns out. The serial driver resets
// its one pooled batch before every window and hands it up the pipeline;
// an Exchange worker fills one pooled batch per morsel and sends it to
// the coordinator, which returns it to the pool when it advances past it
// (or drains it on an early Close); a semaphore bounds how many such
// batches are in flight. A worker itself owns only scratch — bound
// predicates, selection vectors, gathered columns — so workers of one
// runner run disjoint windows concurrently. A SeqScan's worker can also
// fold a window's survivors straight into a global aggregate's state
// instead of appending them (foldWorker, fold.go).
//
// Counter exactness is the load-bearing property: a full drain produces
// byte-identical cost.Counters at any DOP because the windows themselves
// are identical at any DOP. Morsel boundaries are multiples of BatchSize
// from the source's (or shard's) base, so cutting every morsel into
// BatchSize windows yields the same windows whether one worker walks all
// morsels or several split them, and every charge is a property of a
// window (SeqScan: pages whose first tuple falls inside it) or of a row
// (one random page and one tuple per RID fetched). int64 addition is
// commutative, so merging per-worker counters in any order reproduces the
// serial totals.

import (
	"fmt"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/obs"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// MorselSize is the number of rows (or RIDs) one morsel covers. It is a
// multiple of BatchSize so a morsel is a whole number of windows.
const MorselSize = 4 * BatchSize

// morselSource is implemented by nodes whose streaming phase can be
// partitioned into morsels. openMorsels performs the node's blocking
// Open work — charged to the shared counters on the caller's goroutine —
// and returns a runner over the remaining streaming work.
type morselSource interface {
	Node
	openMorsels(ctx *Context, counters *cost.Counters) (morselRunner, error)
}

// morselRunner partitions a source's streaming work into numMorsels
// contiguous morsels; morselSpan gives morsel m's extent [lo, hi) in the
// source's own coordinate (global row ids, or positions in a RID list),
// ascending in m. newWorker returns an independent worker; it is only
// ever called on the coordinator (see takeBound). schema is the schema of
// the batches workers fill.
type morselRunner interface {
	schema() expr.RelSchema
	numMorsels() int
	morselSpan(m int) (lo, hi int)
	newWorker() (morselWorker, error)
}

// morselWorker processes single windows; see the contract above. release
// is called once, after the worker's last window, by whoever created it —
// for an Exchange that is the coordinator, after the barrier.
type morselWorker interface {
	window(out *Batch, lo, hi int, counters *cost.Counters) error
	release()
}

// morselSourceOf unwraps instrumentation and reports whether a node can
// feed the morsel pipeline. stats is the unwrapped Instrumented's, nil
// for a bare node: workers bypass the wrapper's own Stream, so whoever
// runs them feeds its stats instead (openMorselSource, newMorselWorker).
func morselSourceOf(n Node) (src morselSource, stats *obs.OpStats, ok bool) {
	for {
		inst, isInst := n.(*Instrumented)
		if !isInst {
			break
		}
		n, stats = inst.Inner, inst.Stats
	}
	src, ok = n.(morselSource)
	return src, stats, ok
}

// openMorselSource is src.openMorsels, timed into the bypassed wrapper's
// stats when there is one — what instrumentedOp.Open would have recorded.
func openMorselSource(ctx *Context, src morselSource, stats *obs.OpStats, counters *cost.Counters) (morselRunner, error) {
	start := time.Now()
	r, err := src.openMorsels(ctx, counters)
	if stats != nil {
		stats.OpenTime += time.Since(start)
		stats.Opens++
	}
	return r, err
}

// newMorselWorker is r.newWorker, wrapped to tally into stats when the
// source node is instrumented.
func newMorselWorker(r morselRunner, stats *obs.OpStats) (morselWorker, error) {
	w, err := r.newWorker()
	if err != nil || stats == nil {
		return w, err
	}
	return &tallyWorker{morselWorker: w, stats: stats}, nil
}

// tallyWorker records what one worker produced for one instrumented
// source node: rows, non-empty windows (the batches a serial wrapper
// would have counted, so Batches agrees at every DOP), and the time spent
// inside window, which a serial wrapper records as NextTime. The tallies
// are worker-local; release folds them into the node's stats, which is
// race-free and deterministic because release runs on the coordinator,
// after the barrier, in worker order.
type tallyWorker struct {
	morselWorker
	stats         *obs.OpStats
	rows, batches int64
	busy          time.Duration
}

//qo:hotpath
func (w *tallyWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	start, before := time.Now(), out.Len()
	err := w.morselWorker.window(out, lo, hi, counters)
	w.busy += time.Since(start)
	if n := out.Len() - before; n > 0 {
		w.rows += int64(n)
		w.batches++
	}
	return err
}

func (w *tallyWorker) release() {
	w.stats.Rows += w.rows
	w.stats.Batches += w.batches
	w.stats.NextTime += w.busy
	w.morselWorker.release()
}

// shardedRunner is implemented by runners that know which shard each
// morsel was tiled from (ascending, one entry per morsel); the Exchange
// uses it for the per-shard row-skew metric. Runners over unpartitioned
// sources simply don't implement it.
type shardedRunner interface {
	morselShards() []int
}

// takeBound hands a worker its bound predicate — an *expr.Bound or a
// *storage.Filter. A scan binds its filter at Open, so a malformed
// predicate fails there even when no worker ever runs (a zero-morsel
// scan); the first worker — which the coordinator creates, serially or
// before an Exchange launches its pool — takes that binding, and each
// later worker binds its own copy, because a bound predicate carries
// evaluation scratch.
func takeBound[T any](open **T, bind func() (*T, error)) (*T, error) {
	if b := *open; b != nil {
		*open = nil
		return b, nil
	}
	return bind()
}

// --- SeqScan ---

// openMorsels implements morselSource. A SeqScan charges nothing at Open.
// It splits its filter once (storage.Filter): the pushable prefix runs
// first, skipping the tiles its zones exclude and checking the rest on
// the table's typed payloads, and the residual only on the prefix's
// survivors.
func (s *SeqScan) openMorsels(ctx *Context, _ *cost.Counters) (morselRunner, error) {
	t, full, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	filter, err := storage.NewFilter(s.Filter, full)
	if err != nil {
		return nil, err
	}
	cols, err := newScanCols(full, s.Emit, filter.Residual())
	if err != nil {
		return nil, err
	}
	morsels, shards := spanMorselsShards(scanSpans(t, s.Partitions))
	r := &seqMorselRunner{
		node: s, t: t, full: full, sch: pickFields(full, cols.emit), filter: filter,
		cols: cols, morsels: morsels, shards: shards,
	}
	if ctx.Metrics != nil && len(filter.Bounds()) > 0 {
		r.mScanned = ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total")
		r.mSkipped = ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total")
	}
	return r, nil
}

type seqMorselRunner struct {
	node *SeqScan
	t    *storage.Table
	// filter is the Open-time split of the scan's filter until the first
	// worker takes it (takeBound).
	filter *storage.Filter
	// cols is the column plan of the projection.
	cols *scanCols
	// full is the table's schema, which the filter binds against; sch is
	// the projected schema of the batches workers fill.
	full, sch expr.RelSchema
	// morsels are the shard-major (shard, morsel) work units: ascending
	// row-id windows, each inside one surviving shard, so walking them in
	// index order reproduces global row-id order.
	morsels []rowSpan
	// shards[m] is the span (shard) index morsel m was tiled from.
	shards []int
	// mScanned and mSkipped meter the zone verdict of every tile a worker
	// enters; nil without metrics or without a pushable prefix.
	mScanned, mSkipped *obs.Counter
}

func (r *seqMorselRunner) schema() expr.RelSchema        { return r.sch }
func (r *seqMorselRunner) numMorsels() int               { return len(r.morsels) }
func (r *seqMorselRunner) morselSpan(m int) (lo, hi int) { return r.morsels[m].lo, r.morsels[m].hi }

// morselShards implements shardedRunner.
func (r *seqMorselRunner) morselShards() []int { return r.shards }

func (r *seqMorselRunner) newWorker() (morselWorker, error) {
	f, err := takeBound(&r.filter, func() (*storage.Filter, error) { return storage.NewFilter(r.node.Filter, r.full) })
	if err != nil {
		return nil, err
	}
	return &seqMorselWorker{r: r, f: f, tile: -1}, nil
}

// seqMorselWorker owns its filter's scratch, and the folders of a fused
// aggregate (fold.go). tile is the first row of the last tile it metered.
type seqMorselWorker struct {
	r     *seqMorselRunner
	f     *storage.Filter
	tile  int
	folds []colFold
	bins  *value.SumBins
}

// window appends the projected columns of the window's survivors
// (filter), gathered from the filter's scratch when the residual read
// them and loaded from the table otherwise.
//
//qo:hotpath
func (w *seqMorselWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	fin, keep, err := w.filter(lo, hi, counters)
	if err != nil || len(fin) == 0 {
		return err
	}
	cols, t := w.r.cols, w.r.t
	cols.gatherPred(out, w.f.Scratch, keep)
	for j, i := range cols.restOut {
		t.AppendColumnSel(&out.cols[i], cols.rest[j], lo, fin)
	}
	out.n += len(fin)
	return nil
}

// filter charges the pages whose first tuple falls inside [lo, hi) — over
// any disjoint covering of the table this sums to exactly NumPages — and
// one tuple per row, meters the window's tile, then runs the window
// filter (storage.Filter.Window) and returns its survivors. The charge
// comes first, so a window inside a tile the zones skip costs exactly
// what a scanned one does.
//
//qo:hotpath
func (w *seqMorselWorker) filter(lo, hi int, counters *cost.Counters) (fin, keep []int, err error) {
	const per = storage.TuplesPerPage
	counters.SeqPages += int64((hi+per-1)/per - (lo+per-1)/per)
	counters.Tuples += int64(hi - lo)
	t := w.r.t
	if w.r.mScanned != nil {
		// Meter each tile once, at the first window this worker reads in it.
		if tile, skipped := w.f.TileSkipped(t, lo); tile != w.tile {
			w.tile = tile
			if skipped {
				w.r.mSkipped.Inc()
			} else {
				w.r.mScanned.Inc()
			}
		}
	}
	if fin, keep, err = w.f.Window(t, lo, hi); err != nil {
		//qo:alloc-ok error path, cold
		return nil, nil, fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
	}
	return fin, keep, nil
}

func (w *seqMorselWorker) release() {
	if w.bins != nil {
		sumBins.Put(w.bins)
		w.bins = nil
	}
}

// --- RID-list scans (IndexRangeScan, IndexIntersect) ---

// openMorsels implements morselSource: the index seek happens here, once,
// before any row is fetched.
func (s *IndexRangeScan) openMorsels(ctx *Context, counters *cost.Counters) (morselRunner, error) {
	t, full, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	ix, ok := ctx.Indexes.Lookup(s.Table, s.Range.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, s.Range.Column)
	}
	r, err := newRidRunner(t, full, s.Residual, s.Emit, fmt.Sprintf("IndexRangeScan(%s)", s.Table))
	if err != nil {
		return nil, err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(s.Range.Lo, s.Range.Hi)
	counters.IndexEntries += int64(scanned)
	r.rids = pruneRids(t, s.Partitions, rids)
	return r, nil
}

// openMorsels implements morselSource: all probes and the intersection —
// inherently blocking — happen here, once.
func (s *IndexIntersect) openMorsels(ctx *Context, counters *cost.Counters) (morselRunner, error) {
	if len(s.Ranges) == 0 {
		return nil, fmt.Errorf("engine: IndexIntersect(%s) with no ranges", s.Table)
	}
	t, full, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	r, err := newRidRunner(t, full, s.Residual, s.Emit, fmt.Sprintf("IndexIntersect(%s)", s.Table))
	if err != nil {
		return nil, err
	}
	lists := make([][]int32, len(s.Ranges))
	for i, kr := range s.Ranges {
		ix, ok := ctx.Indexes.Lookup(s.Table, kr.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, kr.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(kr.Lo, kr.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	r.rids = pruneRids(t, s.Partitions, index.Intersect(lists...))
	return r, nil
}

// newRidRunner binds a RID-list scan's residual over the table schema
// full and resolves its column plan; the caller fills in the RIDs.
func newRidRunner(t *storage.Table, full expr.RelSchema, residual expr.Expr, emit []int, errCtx string) (*ridMorselRunner, error) {
	pred, err := expr.Bind(residual, full)
	if err != nil {
		return nil, err
	}
	cols, err := newScanCols(full, emit, residual)
	if err != nil {
		return nil, err
	}
	return &ridMorselRunner{
		t: t, full: full, sch: pickFields(full, cols.emit), residual: residual, pred: pred,
		cols: cols, errCtx: errCtx,
	}, nil
}

// ridMorselRunner partitions a RID list by position; each RID costs one
// random page and one tuple wherever it lands.
type ridMorselRunner struct {
	t *storage.Table
	// full is the table's schema, which the residual binds against; sch is
	// the projected schema of the batches workers fill.
	full, sch expr.RelSchema
	residual  expr.Expr
	// pred is the Open-time residual binding until the first worker takes it.
	pred   *expr.Bound
	cols   *scanCols
	rids   []int32
	errCtx string
}

func (r *ridMorselRunner) schema() expr.RelSchema { return r.sch }
func (r *ridMorselRunner) numMorsels() int        { return (len(r.rids) + MorselSize - 1) / MorselSize }

func (r *ridMorselRunner) morselSpan(m int) (lo, hi int) {
	return m * MorselSize, min((m+1)*MorselSize, len(r.rids))
}

func (r *ridMorselRunner) newWorker() (morselWorker, error) {
	pred, err := takeBound(&r.pred, func() (*expr.Bound, error) { return expr.Bind(r.residual, r.full) })
	if err != nil {
		return nil, err
	}
	w := &ridMorselWorker{r: r, pred: pred, scratch: make([]value.Vec, len(r.full.Fields))}
	for c, f := range r.full.Fields {
		w.scratch[c].Kind = f.Type
	}
	return w, nil
}

// ridMorselWorker owns scratch, the full-width columns a window's
// residual reads, and kept, the RIDs of the window's survivors.
type ridMorselWorker struct {
	r       *ridMorselRunner
	pred    *expr.Bound
	sel     []int
	kept    []int32
	scratch []value.Vec
}

// window fetches the rows behind RID positions [lo, hi), charging one
// random page and one tuple per RID: it gathers the columns the residual
// reads for every RID, applies the residual, and gathers the rest of the
// projection for the survivors only.
//
//qo:hotpath
func (w *ridMorselWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	r, cols := w.r, w.r.cols
	rids := r.rids[lo:hi]
	counters.RandPages += int64(len(rids))
	counters.Tuples += int64(len(rids))
	w.sel = storage.RangeSel(w.sel, 0, len(rids))
	keep := w.sel
	if r.residual != nil {
		for _, c := range cols.pred {
			w.scratch[c].Reset(w.scratch[c].Kind)
			r.t.AppendColumnRows(&w.scratch[c], c, rids)
		}
		var err error
		if keep, err = w.pred.EvalBatch(w.scratch, w.sel); err != nil {
			//qo:alloc-ok error path, cold
			return fmt.Errorf("engine: %s: %v", r.errCtx, err)
		}
		cols.gatherPred(out, w.scratch, keep)
		w.kept = w.kept[:0]
		for _, k := range keep {
			w.kept = append(w.kept, rids[k])
		}
		rids = w.kept
	}
	for j, i := range cols.restOut {
		r.t.AppendColumnRows(&out.cols[i], cols.rest[j], rids)
	}
	out.n += len(keep)
	return nil
}

func (w *ridMorselWorker) release() {}
