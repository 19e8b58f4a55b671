package engine

// The SeqScan's morsel pipeline: the one implementation of the table
// scan, serial and parallel, and the engine's one morsel source. Open
// splits the scan's live row-id spans into morsels, one zone-map tile
// each (span.go), and a worker turns one window of at most BatchSize rows
// of a morsel at a time into rows of a Batch. Serial execution is DOP 1
// of this pipeline (morselScanOp in scan.go walks morsels × windows in
// order on the caller's goroutine); under an Exchange (exchange.go) the
// same workers run on a goroutine pool. The RID-list scans have no
// morsels: they fetch on the caller's goroutine (ridScanOp, scan.go).
//
// The window contract: window(out, lo, hi, counters) appends the
// survivors of rows [lo, hi) to out and charges that window's page and
// tuple work to counters; hi-lo ≤ BatchSize and [lo, hi) lies inside one
// morsel. The caller owns out. The serial driver resets its one pooled
// batch before every window and hands it up the pipeline; an Exchange
// worker fills one pooled batch per morsel and sends it to the
// coordinator, which returns it to the pool when it advances past it (or
// drains it on an early Close); a semaphore bounds how many such batches
// are in flight. A worker itself owns only scratch — its bound filter and
// the folders of a fused aggregate — so workers of one runner run
// disjoint windows concurrently. A worker can also fold a window's
// survivors straight into a global aggregate's state instead of
// appending them (foldWindow, fold.go).
//
// Counter exactness is the load-bearing property: a full drain produces
// byte-identical cost.Counters at any DOP because the windows themselves
// are identical at any DOP. Morsel boundaries are multiples of BatchSize
// from the shard's base, so cutting every morsel into BatchSize windows
// yields the same windows whether one worker walks all morsels or several
// split them, and every charge is a property of a window: the pages whose
// first tuple falls inside it, and one tuple per row. int64 addition is
// commutative, so merging per-worker counters in any order reproduces the
// serial totals.

import (
	"fmt"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// openMorsels is the scan's Open work, which charges nothing. It splits
// its filter once (storage.Filter): the pushable prefix runs first,
// skipping the tiles its zones exclude and checking the rest on the
// table's typed payloads, and the residual only on the prefix's
// survivors.
func (s *SeqScan) openMorsels(ctx *Context) (*seqMorselRunner, error) {
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

// seqMorselRunner is one opened SeqScan: its table, filter and column
// plan, and the morsels its workers run.
type seqMorselRunner struct {
	node *SeqScan
	t    *storage.Table
	// filter is the Open-time split of the scan's filter until the first
	// worker takes it (newWorker).
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

// newWorker returns a worker over r's morsels. The scan binds its filter
// at Open, so a malformed predicate fails there even when no worker ever
// runs (a zero-morsel scan); the first worker takes that binding, and
// each later one binds its own copy, because a bound filter carries
// evaluation scratch. Only the coordinator creates workers: serially, or
// before an Exchange launches its pool.
func (r *seqMorselRunner) newWorker() (*seqMorselWorker, error) {
	f := r.filter
	r.filter = nil
	if f == nil {
		var err error
		if f, err = storage.NewFilter(r.node.Filter, r.full); err != nil {
			return nil, err
		}
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

// release returns the worker's SUM scratch, once, after its last window.
func (w *seqMorselWorker) release() {
	if w.bins != nil {
		sumBins.Put(w.bins)
		w.bins = nil
	}
}
