package engine

import (
	"fmt"
	"strings"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
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

// morselScanOp is the serial form of every leaf scan — DOP 1 of the
// morsel pipeline (parallel.go). Open runs the node's blocking work and
// takes one window worker; Next walks morsels × windows in order on the
// caller's goroutine, charging the shared counters one window at a time,
// so a LIMIT above stops the scan — and its charges — at the last window
// pulled.
type morselScanOp struct {
	src morselSource
	// fold, when set, folds the scan into a global aggregate (drainFold)
	// in place of Next.
	fold     *aggFold
	counters *cost.Counters
	runner   morselRunner
	worker   morselWorker
	m        int // current morsel
	next     int // start of the next window, in the runner's coordinate
	out      *Batch
}

func (o *morselScanOp) Open(ctx *Context, counters *cost.Counters) error {
	var err error
	if o.runner, err = o.src.openMorsels(ctx, counters); err != nil {
		return err
	}
	if o.worker, err = o.runner.newWorker(); err != nil {
		return err
	}
	o.counters = counters
	if o.fold == nil {
		o.out = getBatch(o.runner.schema())
	}
	return nil
}

// Next returns the first window from the current position with any
// survivors. Morsel spans ascend, so next only ever moves forward.
//
//qo:hotpath
func (o *morselScanOp) Next() (*Batch, error) {
	for o.m < o.runner.numMorsels() {
		lo, hi := o.runner.morselSpan(o.m)
		if o.next < lo {
			o.next = lo
		}
		if o.next >= hi {
			o.m++
			continue
		}
		end := min(o.next+BatchSize, hi)
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
func (s *IndexRangeScan) Stream() Operator { return &morselScanOp{src: s} }

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
func (s *IndexIntersect) Stream() Operator { return &morselScanOp{src: s} }
