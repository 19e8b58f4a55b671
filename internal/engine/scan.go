package engine

import (
	"fmt"
	"strings"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// SeqScan reads every page of a table sequentially, applying an optional
// filter. Its cost is essentially independent of the filter's selectivity —
// it is the paper's archetypal "stable" plan.
type SeqScan struct {
	Table  string
	Filter expr.Expr // nil means no filter
	// Partitions, when non-nil, restricts the scan to the listed shards
	// of a partitioned table (the optimizer's pruning pass sets it). nil
	// scans everything; an empty list scans nothing.
	Partitions []int
	// Emit, when non-nil, lists the table ordinals of the columns the scan
	// outputs, in output order; the filter may read others. nil outputs
	// every column. PruneColumns sets it.
	Emit []int
}

// Schema implements Node.
func (s *SeqScan) Schema(ctx *Context) (expr.RelSchema, error) {
	return emitSchema(ctx, s.Table, s.Emit)
}

// Describe implements Node.
func (s *SeqScan) Describe() string {
	if s.Filter == nil {
		return fmt.Sprintf("SeqScan(%s%s)", s.Table, partsSuffix(s.Partitions))
	}
	return fmt.Sprintf("SeqScan(%s, filter=%s%s)", s.Table, s.Filter, partsSuffix(s.Partitions))
}

// Stream implements Node.
func (s *SeqScan) Stream() Operator { return &morselScanOp{src: s} }

// morselScanOp is the SeqScan's serial operator, DOP 1 of its morsel
// pipeline (parallel.go). Open resolves the scan and takes one window
// worker; Next walks morsels × windows in order on the caller's
// goroutine, charging the shared counters one window at a time, so a
// LIMIT above stops the scan — and its charges — at the last window
// pulled.
type morselScanOp struct {
	src *SeqScan
	// fold, when set, folds the scan into a global aggregate (drainFold)
	// in place of Next.
	fold     *aggFold
	counters *cost.Counters
	runner   *seqMorselRunner
	worker   *seqMorselWorker
	m        int // current morsel
	next     int // first row of the next window
	out      *Batch
}

func (o *morselScanOp) Open(ctx *Context, counters *cost.Counters) error {
	var err error
	if o.runner, err = o.src.openMorsels(ctx); err != nil {
		return err
	}
	if o.worker, err = o.runner.newWorker(); err != nil {
		return err
	}
	o.counters = counters
	if o.fold == nil {
		o.out = getBatch(o.runner.sch)
	}
	return nil
}

// Next returns the first window from the current position with any
// survivors. Morsels ascend, so next only ever moves forward.
//
//qo:hotpath
func (o *morselScanOp) Next() (*Batch, error) {
	for o.m < len(o.runner.morsels) {
		s := o.runner.morsels[o.m]
		if o.next < s.lo {
			o.next = s.lo
		}
		if o.next >= s.hi {
			o.m++
			continue
		}
		end := min(o.next+BatchSize, s.hi)
		o.out.Reset()
		if err := o.worker.window(o.out, o.next, end, o.counters); err != nil {
			return nil, err
		}
		o.next = end
		if o.out.Len() > 0 {
			return o.out, nil
		}
	}
	return nil, nil
}

func (o *morselScanOp) Close() {
	if o.worker != nil {
		o.worker.release()
		o.worker = nil
	}
	putBatch(o.out)
	o.out = nil
}

// KeyRange is one indexed range condition lo <= column <= hi over an Int
// or Date column.
type KeyRange struct {
	Column string
	Lo, Hi int64
}

func (k KeyRange) String() string {
	return fmt.Sprintf("%s in [%d, %d]", k.Column, k.Lo, k.Hi)
}

// IndexRangeScan probes a single secondary index for a key range, fetches
// the qualifying rows by RID (one random page read each), and applies an
// optional residual predicate.
type IndexRangeScan struct {
	Table    string
	Range    KeyRange
	Residual expr.Expr
	// Partitions, when non-nil, drops RIDs of pruned shards before any
	// row is fetched; the index seek itself stays global.
	Partitions []int
	// Emit is the output projection, as for SeqScan.
	Emit []int
}

// Schema implements Node.
func (s *IndexRangeScan) Schema(ctx *Context) (expr.RelSchema, error) {
	return emitSchema(ctx, s.Table, s.Emit)
}

// Describe implements Node.
func (s *IndexRangeScan) Describe() string {
	d := fmt.Sprintf("IndexRangeScan(%s, %s", s.Table, s.Range)
	if s.Residual != nil {
		d += ", residual=" + s.Residual.String()
	}
	return d + partsSuffix(s.Partitions) + ")"
}

// Stream implements Node: the index seek happens at Open (the probe is
// unavoidable); the random-page fetches are deferred to Next, one window
// of RIDs at a time.
func (s *IndexRangeScan) Stream() Operator { return &ridScanOp{node: s} }

// openRids binds the scan's residual into o and seeks the index, once,
// before any row is fetched.
func (s *IndexRangeScan) openRids(ctx *Context, o *ridScanOp, counters *cost.Counters) error {
	t, full, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return err
	}
	ix, ok := ctx.Indexes.Lookup(s.Table, s.Range.Column)
	if !ok {
		return fmt.Errorf("engine: no index on %s.%s", s.Table, s.Range.Column)
	}
	if err := o.bind(t, full, s.Residual, s.Emit); err != nil {
		return err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(s.Range.Lo, s.Range.Hi)
	counters.IndexEntries += int64(scanned)
	o.rids = pruneRids(t, s.Partitions, rids)
	return nil
}

// IndexIntersect is the paper's risky plan: probe one index per range
// condition, intersect the RID lists, fetch only the surviving rows (one
// random page read each), and apply an optional residual predicate. Very
// fast when few rows qualify; much slower than a scan when many do.
type IndexIntersect struct {
	Table    string
	Ranges   []KeyRange
	Residual expr.Expr
	// Partitions, when non-nil, drops RIDs of pruned shards after the
	// intersection, before any row is fetched.
	Partitions []int
	// Emit is the output projection, as for SeqScan.
	Emit []int
}

// Schema implements Node.
func (s *IndexIntersect) Schema(ctx *Context) (expr.RelSchema, error) {
	return emitSchema(ctx, s.Table, s.Emit)
}

// Describe implements Node.
func (s *IndexIntersect) Describe() string {
	parts := make([]string, len(s.Ranges))
	for i, r := range s.Ranges {
		parts[i] = r.String()
	}
	d := fmt.Sprintf("IndexIntersect(%s, %s", s.Table, strings.Join(parts, " & "))
	if s.Residual != nil {
		d += ", residual=" + s.Residual.String()
	}
	return d + partsSuffix(s.Partitions) + ")"
}

// Stream implements Node: all index probes and the RID intersection
// happen at Open — that work is inherently blocking — and the surviving
// row fetches stream.
func (s *IndexIntersect) Stream() Operator { return &ridScanOp{node: s} }

// openRids binds the scan's residual into o, then runs every probe and
// the intersection, once, before any row is fetched.
func (s *IndexIntersect) openRids(ctx *Context, o *ridScanOp, counters *cost.Counters) error {
	if len(s.Ranges) == 0 {
		return fmt.Errorf("engine: IndexIntersect(%s) with no ranges", s.Table)
	}
	t, full, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return err
	}
	if err := o.bind(t, full, s.Residual, s.Emit); err != nil {
		return err
	}
	lists := make([][]int32, len(s.Ranges))
	for i, kr := range s.Ranges {
		ix, ok := ctx.Indexes.Lookup(s.Table, kr.Column)
		if !ok {
			return fmt.Errorf("engine: no index on %s.%s", s.Table, kr.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(kr.Lo, kr.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	o.rids = pruneRids(t, s.Partitions, index.Intersect(lists...))
	return nil
}

// ridScanOp is the serial operator of both RID-list scans. Open runs the
// node's blocking work (openRids), charged to the shared counters before
// any row is fetched; Next fetches the rows behind at most BatchSize RIDs
// at a time, each costing one random page and one tuple, so a LIMIT above
// stops the fetches, and their charges, at the last window pulled.
type ridScanOp struct {
	node     Node // *IndexRangeScan or *IndexIntersect
	counters *cost.Counters
	t        *storage.Table
	residual expr.Expr
	pred     *expr.Bound
	cols     *scanCols
	// rids are the RIDs to fetch, ascending; next is the first not yet
	// fetched.
	rids []int32
	next int
	// sel and kept are a window's selection vector and the RIDs of its
	// survivors; scratch holds the full-width columns the residual reads.
	sel     []int
	kept    []int32
	scratch []value.Vec
	out     *Batch
}

func (o *ridScanOp) Open(ctx *Context, counters *cost.Counters) error {
	o.counters = counters
	if s, ok := o.node.(*IndexRangeScan); ok {
		return s.openRids(ctx, o, counters)
	}
	return o.node.(*IndexIntersect).openRids(ctx, o, counters)
}

// bind binds the residual over the table schema full, resolves the
// column plan of the projection emit, and takes the output batch.
func (o *ridScanOp) bind(t *storage.Table, full expr.RelSchema, residual expr.Expr, emit []int) error {
	pred, err := expr.Bind(residual, full)
	if err != nil {
		return err
	}
	cols, err := newScanCols(full, emit, residual)
	if err != nil {
		return err
	}
	o.t, o.residual, o.pred, o.cols = t, residual, pred, cols
	if residual != nil {
		o.scratch = make([]value.Vec, len(full.Fields))
		for c, f := range full.Fields {
			o.scratch[c].Kind = f.Type
		}
	}
	o.out = getBatch(pickFields(full, cols.emit))
	return nil
}

// Next returns the first window from the current position with any
// survivors.
//
//qo:hotpath
func (o *ridScanOp) Next() (*Batch, error) {
	for o.next < len(o.rids) {
		end := min(o.next+BatchSize, len(o.rids))
		o.out.Reset()
		if err := o.window(o.rids[o.next:end]); err != nil {
			return nil, err
		}
		o.next = end
		if o.out.Len() > 0 {
			return o.out, nil
		}
	}
	return nil, nil
}

// window fetches the rows behind rids into out, charging one random page
// and one tuple per RID: it gathers the columns the residual reads for
// every RID, applies the residual, and gathers the rest of the projection
// for the survivors only.
//
//qo:hotpath
func (o *ridScanOp) window(rids []int32) error {
	cols, out := o.cols, o.out
	o.counters.RandPages += int64(len(rids))
	o.counters.Tuples += int64(len(rids))
	o.sel = storage.RangeSel(o.sel, 0, len(rids))
	keep := o.sel
	if o.residual != nil {
		for _, c := range cols.pred {
			o.scratch[c].Reset(o.scratch[c].Kind)
			o.t.AppendColumnRows(&o.scratch[c], c, rids)
		}
		var err error
		if keep, err = o.pred.EvalBatch(o.scratch, o.sel); err != nil {
			//qo:alloc-ok error path, cold
			return fmt.Errorf("engine: %s(%s): %v", OpName(o.node), o.t.Name(), err)
		}
		cols.gatherPred(out, o.scratch, keep)
		o.kept = o.kept[:0]
		for _, k := range keep {
			o.kept = append(o.kept, rids[k])
		}
		rids = o.kept
	}
	for j, i := range cols.restOut {
		o.t.AppendColumnRows(&out.cols[i], cols.rest[j], rids)
	}
	out.n += len(keep)
	return nil
}

func (o *ridScanOp) Close() {
	putBatch(o.out)
	o.out = nil
}
