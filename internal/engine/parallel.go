package engine

// The morsel pipeline: the one implementation of the leaf scans, serial
// and parallel. A morselizable source splits its streaming work into
// fixed-size contiguous morsels; a worker turns one ≤BatchSize window of
// a morsel at a time into rows of a Batch. Serial execution is DOP 1 of
// this pipeline (morselScanOp in scan.go walks morsels × windows in order
// on the caller's goroutine); under an Exchange the same workers run on a
// goroutine pool. The blocking Open-phase work (catalog resolution, index
// seeks, RID intersection, hash build) happens once in openMorsels,
// charged to the shared counters before any window runs.
//
// The window-worker contract: window(out, lo, hi, counters) appends the
// survivors of the source's rows [lo, hi) to out and charges that
// window's page and tuple work to counters; hi-lo ≤ BatchSize and [lo, hi)
// lies inside one morsel. The caller owns out. The serial driver resets
// its one pooled batch before every window and hands it up the pipeline;
// an Exchange worker fills one pooled batch per morsel and sends it to
// the coordinator, which returns it to the pool when it advances past it
// (or drains it on an early Close); a semaphore bounds how many such
// batches are in flight. A worker itself owns only scratch —
// bound predicates, selection vectors, a join's probe-side batch — so
// workers of one runner run disjoint windows concurrently.
//
// Counter exactness is the load-bearing property: a full drain produces
// byte-identical cost.Counters at any DOP because the windows themselves
// are identical at any DOP. Morsel boundaries are multiples of BatchSize
// from the source's (or shard's) base, so cutting every morsel into
// BatchSize windows yields the same windows whether one worker walks all
// morsels or several split them, and every charge is a property of a
// window (SeqScan: pages whose first tuple falls inside it) or of a row
// (one random page per RID fetched; one probe per probe row, one tuple
// per match). int64 addition is commutative, so merging per-worker
// counters in any order reproduces the serial totals.

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
// and returns a runner over the remaining streaming work. dop is the
// worker count that will run; leaf scans ignore it, while HashJoin uses
// it to partition its build across that many workers before the probe
// morsels start.
type morselSource interface {
	Node
	openMorsels(ctx *Context, counters *cost.Counters, dop int) (morselRunner, error)
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
	// A HashJoin is morselizable exactly when its probe side is: the
	// build is blocking Open-phase work either way. Checked before the
	// plain interface assertion so an ineligible probe disqualifies the
	// join instead of failing later.
	if hj, isJoin := n.(*HashJoin); isJoin {
		if _, _, ok := morselSourceOf(hj.Probe); !ok {
			return nil, nil, false
		}
		return hj, stats, true
	}
	src, ok = n.(morselSource)
	return src, stats, ok
}

// openMorselSource is src.openMorsels, timed into the bypassed wrapper's
// stats when there is one — what instrumentedOp.Open would have recorded.
func openMorselSource(ctx *Context, src morselSource, stats *obs.OpStats, counters *cost.Counters, dop int) (morselRunner, error) {
	start := time.Now()
	r, err := src.openMorsels(ctx, counters, dop)
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
// inside window — inclusive of a join's probe side, as a wrapper's
// NextTime is. The tallies are worker-local; release folds them into the
// node's stats, which is race-free and deterministic because release
// runs on the coordinator, after the barrier, in worker order.
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

// takeBound hands a worker its bound predicate. A scan binds its filter
// at Open, so a malformed predicate fails there even when no worker ever
// runs (a zero-morsel scan); the first worker — which the coordinator
// creates, serially or before an Exchange launches its pool — takes that
// binding, and each later worker binds its own copy, because a bound
// predicate carries evaluation scratch.
func takeBound(open **expr.Bound, pred expr.Expr, schema expr.RelSchema) (*expr.Bound, error) {
	if b := *open; b != nil {
		*open = nil
		return b, nil
	}
	return expr.Bind(pred, schema)
}

// --- SeqScan ---

// openMorsels implements morselSource. A SeqScan charges nothing at Open.
func (s *SeqScan) openMorsels(ctx *Context, _ *cost.Counters, _ int) (morselRunner, error) {
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Bind(s.Filter, schema)
	if err != nil {
		return nil, err
	}
	filterCols, otherCols, err := splitFilterColumns(s.Filter, schema)
	if err != nil {
		return nil, err
	}
	morsels, shards := spanMorselsShards(scanSpans(t, s.Partitions))
	return &seqMorselRunner{
		node: s, t: t, sch: schema, pred: pred,
		spec:       prepareEncScan(ctx, t, schema, s),
		filterCols: filterCols, otherCols: otherCols,
		morsels: morsels, shards: shards,
	}, nil
}

// splitFilterColumns partitions the schema's ordinals into those the
// filter reads and the rest, each ascending. A nil filter reads none.
func splitFilterColumns(filter expr.Expr, schema expr.RelSchema) (read, rest []int, err error) {
	reads := make([]bool, len(schema.Fields))
	for _, ref := range expr.Columns(filter) {
		c, err := schema.Resolve(ref)
		if err != nil {
			return nil, nil, err
		}
		reads[c] = true
	}
	for c, r := range reads {
		if r {
			read = append(read, c)
		} else {
			rest = append(rest, c)
		}
	}
	return read, rest, nil
}

type seqMorselRunner struct {
	node *SeqScan
	// pred is the Open-time filter binding until the first worker takes it.
	pred *expr.Bound
	t    *storage.Table
	// spec is the shared encoded-scan plan, nil on the row path; each
	// worker derives its own mutable encScan state from it.
	spec *encScanSpec
	// filterCols are the ordinals the filter reads, otherCols the rest:
	// the row path loads the first for the whole window and the second
	// for survivors only.
	filterCols, otherCols []int
	sch                   expr.RelSchema
	// morsels are the shard-major (shard, morsel) work units: ascending
	// row-id windows, each inside one surviving shard, so walking them in
	// index order reproduces global row-id order.
	morsels []rowSpan
	// shards[m] is the span (shard) index morsel m was tiled from.
	shards []int
}

func (r *seqMorselRunner) schema() expr.RelSchema        { return r.sch }
func (r *seqMorselRunner) numMorsels() int               { return len(r.morsels) }
func (r *seqMorselRunner) morselSpan(m int) (lo, hi int) { return r.morsels[m].lo, r.morsels[m].hi }

// morselShards implements shardedRunner.
func (r *seqMorselRunner) morselShards() []int { return r.shards }

func (r *seqMorselRunner) newWorker() (morselWorker, error) {
	pred, err := takeBound(&r.pred, r.node.Filter, r.sch)
	if err != nil {
		return nil, err
	}
	w := &seqMorselWorker{r: r, pred: pred}
	if r.spec != nil {
		if w.enc, err = r.spec.newState(r.sch); err != nil {
			return nil, err
		}
	}
	return w, nil
}

type seqMorselWorker struct {
	r    *seqMorselRunner
	pred *expr.Bound
	enc  *encScan
	sel  []int
}

// window charges the pages whose first tuple falls inside [lo, hi) — over
// any disjoint covering of the table this sums to exactly NumPages — and
// one tuple per row, then loads and filters the window from the row store
// (rowWindow) or through the encoded path; neither charges anything of its
// own.
//
//qo:hotpath
func (w *seqMorselWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	const per = storage.TuplesPerPage
	counters.SeqPages += int64((hi+per-1)/per - (lo+per-1)/per)
	counters.Tuples += int64(hi - lo)
	var err error
	if w.enc != nil {
		err = w.enc.window(out, lo, hi)
	} else {
		err = w.rowWindow(out, lo, hi)
	}
	if err != nil {
		//qo:alloc-ok error path, cold
		return fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
	}
	return nil
}

// rowWindow appends the survivors of rows [lo, hi) from the row store,
// filter first — the row-store analogue of the late encoded scan. It
// bulk-loads only the columns the filter reads, evaluates the filter once
// over the window, compacts those columns to the survivors in place, and
// loads every other column for the survivors only. The filter sees the
// same values in the same order as over a fully loaded window, so rows
// and errors are unchanged. A nil filter bulk-loads every column.
//
//qo:hotpath
func (w *seqMorselWorker) rowWindow(out *Batch, lo, hi int) error {
	r, base := w.r, out.n
	if r.node.Filter == nil {
		for c := range out.cols {
			out.cols[c] = r.t.AppendColumn(out.cols[c], c, lo, hi)
		}
		out.n += hi - lo
		return nil
	}
	for _, c := range r.filterCols {
		out.cols[c] = r.t.AppendColumn(out.cols[c], c, lo, hi)
	}
	w.sel = rangeSel(w.sel, base, base+hi-lo)
	keep, err := w.pred.EvalBatch(out.cols, w.sel)
	if err != nil {
		for _, c := range r.filterCols {
			out.cols[c] = out.cols[c][:base]
		}
		return err
	}
	for _, c := range r.filterCols {
		col := out.cols[c]
		for i, k := range keep {
			col[base+i] = col[k]
		}
		out.cols[c] = col[:base+len(keep)]
	}
	// keep is EvalBatch's fresh slice, so it can be rebased in place from
	// batch positions to offsets from lo.
	for i := range keep {
		keep[i] -= base
	}
	for _, c := range r.otherCols {
		out.cols[c] = r.t.AppendColumnSel(out.cols[c], c, lo, keep)
	}
	out.n = base + len(keep)
	return nil
}

func (w *seqMorselWorker) release() {}

// --- RID-list scans (IndexRangeScan, IndexIntersect) ---

// openMorsels implements morselSource: the index seek happens here, once,
// before any row is fetched.
func (s *IndexRangeScan) openMorsels(ctx *Context, counters *cost.Counters, _ int) (morselRunner, error) {
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	ix, ok := ctx.Indexes.Lookup(s.Table, s.Range.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, s.Range.Column)
	}
	pred, err := expr.Bind(s.Residual, schema)
	if err != nil {
		return nil, err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(s.Range.Lo, s.Range.Hi)
	counters.IndexEntries += int64(scanned)
	rids = pruneRids(t, s.Partitions, rids)
	return &ridMorselRunner{
		t: t, sch: schema, residual: s.Residual, pred: pred, rids: rids,
		errCtx: fmt.Sprintf("IndexRangeScan(%s)", s.Table),
	}, nil
}

// openMorsels implements morselSource: all probes and the intersection —
// inherently blocking — happen here, once.
func (s *IndexIntersect) openMorsels(ctx *Context, counters *cost.Counters, _ int) (morselRunner, error) {
	if len(s.Ranges) == 0 {
		return nil, fmt.Errorf("engine: IndexIntersect(%s) with no ranges", s.Table)
	}
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Bind(s.Residual, schema)
	if err != nil {
		return nil, err
	}
	lists := make([][]int32, len(s.Ranges))
	for i, r := range s.Ranges {
		ix, ok := ctx.Indexes.Lookup(s.Table, r.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, r.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(r.Lo, r.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	rids := pruneRids(t, s.Partitions, index.Intersect(lists...))
	return &ridMorselRunner{
		t: t, sch: schema, residual: s.Residual, pred: pred, rids: rids,
		errCtx: fmt.Sprintf("IndexIntersect(%s)", s.Table),
	}, nil
}

// ridMorselRunner partitions a RID list by position; each RID costs one
// random page and one tuple wherever it lands.
type ridMorselRunner struct {
	t        *storage.Table
	sch      expr.RelSchema
	residual expr.Expr
	// pred is the Open-time residual binding until the first worker takes it.
	pred   *expr.Bound
	rids   []int32
	errCtx string
}

func (r *ridMorselRunner) schema() expr.RelSchema { return r.sch }
func (r *ridMorselRunner) numMorsels() int        { return (len(r.rids) + MorselSize - 1) / MorselSize }

func (r *ridMorselRunner) morselSpan(m int) (lo, hi int) {
	return m * MorselSize, min((m+1)*MorselSize, len(r.rids))
}

func (r *ridMorselRunner) newWorker() (morselWorker, error) {
	pred, err := takeBound(&r.pred, r.residual, r.sch)
	if err != nil {
		return nil, err
	}
	return &ridMorselWorker{r: r, pred: pred, buf: make(value.Row, len(r.sch.Fields))}, nil
}

type ridMorselWorker struct {
	r    *ridMorselRunner
	pred *expr.Bound
	buf  value.Row
	sel  []int
}

// window fetches the rows behind RID positions [lo, hi), charging one
// random page and one tuple per RID as the row is actually fetched, and
// applies the residual.
//
//qo:hotpath
func (w *ridMorselWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	base := out.n
	for _, rid := range w.r.rids[lo:hi] {
		counters.RandPages++
		counters.Tuples++
		w.r.t.ReadRow(int(rid), w.buf)
		out.AppendRow(w.buf)
	}
	var err error
	if w.sel, err = out.filterTail(base, w.pred, w.sel); err != nil {
		//qo:alloc-ok error path, cold
		return fmt.Errorf("engine: %s: %v", w.r.errCtx, err)
	}
	return nil
}

func (w *ridMorselWorker) release() {}
