package engine

// The fused global aggregate: an Aggregate with no GROUP BY over one
// SeqScan folds the scan's survivors into its state inside the window
// workers, so no batch is built, no value is boxed and, under an
// Exchange, only one small partial state per morsel crosses the channel.
// The SeqScan may sit directly under the Aggregate or under an Exchange,
// either possibly Instrumented, and every argument must be COUNT(*) or a
// column of an Int, Date or Float column; any other aggregate runs the
// batch path. Nothing but the plan's shape chooses it.
//
// Each window runs the scan's own charge, tile metering and
// storage.Filter step (seqMorselWorker.filter), then folds the typed
// payloads of its survivors (storage.Table.FoldSel) and charges the
// Aggregate's tuple and hash-build work per survivor, as the batch path
// does per input row, so cost.Counters are identical. Serially the
// windows fold into the one global state in row order; under an
// Exchange each morsel folds into its own partial state on the pool's
// existing claim/report/barrier code and the coordinator merges the
// partials in morsel order. SUM and AVG add exactly (value.ExactSum) and
// MIN and MAX keep the first of equal values, so the result is
// bit-identical at every DOP, shard layout and morsel boundary, and to
// the batch path. A residual error surfaces from the lowest failing
// morsel, as a batch drain's does.
//
// Instrumented wrappers on the folded path see the rows and batches the
// batch path would have returned them (drainFold): the Exchange one
// batch per non-empty morsel, a serial scan one per non-empty window.

import (
	"sync"
	"time"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// aggFold is one execution of a global aggregate folded into its scan.
type aggFold struct {
	a *Aggregate
	// cols[i] is the table ordinal of aggregate i's argument column, -1
	// for COUNT(*).
	cols []int
	// st is the global state every window or morsel partial folds into.
	st *aggState
}

// newAggFold returns the fold of a, whose input schema is in, or nil
// when a must run the batch path. Its arguments are already bound, so
// they resolve.
func newAggFold(a *Aggregate, in expr.RelSchema) *aggFold {
	scan := foldLeaf(a.Input, false)
	if scan == nil || len(a.GroupBy) > 0 {
		return nil
	}
	f := &aggFold{a: a, cols: make([]int, len(a.Aggs)), st: a.newAggState()}
	for i, spec := range a.Aggs {
		if spec.Arg == nil {
			f.cols[i] = -1
			continue
		}
		j := payloadArg(spec, in)
		if j < 0 {
			return nil
		}
		if f.cols[i] = j; scan.Emit != nil {
			f.cols[i] = scan.Emit[j]
		}
	}
	return f
}

// payloadArg returns the ordinal in in of spec's argument when it is a
// plain Int, Date or Float column, whose typed payload an aggregate folds
// in place; otherwise -1.
func payloadArg(spec AggSpec, in expr.RelSchema) int {
	col, ok := spec.Arg.(expr.Col)
	if !ok {
		return -1
	}
	j, err := in.Resolve(col.Ref)
	if err != nil || in.Fields[j].Type == catalog.String {
		return -1
	}
	return j
}

// foldLeaf returns the SeqScan under n when n is one, possibly under one
// Exchange and any Instrumented wrappers; otherwise nil.
func foldLeaf(n Node, underExchange bool) *SeqScan {
	switch t := n.(type) {
	case *Instrumented:
		return foldLeaf(t.Inner, underExchange)
	case *Exchange:
		if !underExchange {
			return foldLeaf(t.Source, true)
		}
	case *SeqScan:
		return t
	}
	return nil
}

// folder is an input operator opened to fold into a global aggregate:
// after Open, drainFold runs it dry in place of Next and reports the rows
// and non-empty batches Next would have returned.
type folder interface {
	Operator
	drainFold() (rows, batches int64, err error)
}

// foldStream returns n's stream set to fold into f; n is a shape
// foldLeaf accepts.
func foldStream(n Node, f *aggFold) folder {
	switch t := n.(type) {
	case *Instrumented:
		return &instrumentedOp{node: t, inner: foldStream(t.Inner, f)}
	case *Exchange:
		return &exchangeOp{node: t, fold: f}
	default:
		return &morselScanOp{src: n.(*SeqScan), fold: f}
	}
}

// foldMorsel folds every window of morsel m into st and reports the rows
// and non-empty windows folded.
func foldMorsel(w *seqMorselWorker, f *aggFold, st *aggState, m int, counters *cost.Counters) (rows, batches int64, err error) {
	s := w.r.morsels[m]
	for lo := s.lo; lo < s.hi; lo += BatchSize {
		n, err := w.foldWindow(f, st, lo, min(lo+BatchSize, s.hi), counters)
		if err != nil {
			return rows, batches, err
		}
		rows += int64(n)
		batches += int64(min(n, 1))
	}
	return rows, batches, nil
}

// drainFold implements folder: the serial scan folds window by window,
// in row order, into the global state.
func (o *morselScanOp) drainFold() (rows, batches int64, err error) {
	for m := range o.runner.morsels {
		r, b, err := foldMorsel(o.worker, o.fold, o.fold.st, m, o.counters)
		rows, batches = rows+r, batches+b
		if err != nil {
			return rows, batches, err
		}
	}
	return rows, batches, nil
}

// drainFold implements folder, timing the drain and counting what it
// reports as Next would have. A folded input is never a plan's root, so
// there are no live rows to report.
func (o *instrumentedOp) drainFold() (rows, batches int64, err error) {
	start := time.Now()
	rows, batches, err = o.inner.(folder).drainFold()
	st := o.node.Stats
	st.NextTime += time.Since(start)
	st.Rows += rows
	st.Batches += batches
	return rows, batches, err
}

// foldWindow folds the survivors of rows [lo, hi) into st: it runs the
// window's charge and filter as window does, and returns how many rows
// survived.
//
//qo:hotpath
func (w *seqMorselWorker) foldWindow(f *aggFold, st *aggState, lo, hi int, counters *cost.Counters) (int, error) {
	fin, _, err := w.filter(lo, hi, counters)
	if err != nil || len(fin) == 0 {
		return 0, err
	}
	n := int64(len(fin))
	counters.Tuples += n
	counters.HashBuilds += n
	st.count += n
	if w.folds == nil {
		w.startFold(f)
	}
	t := w.r.t
	for i, c := range f.cols {
		if c >= 0 {
			w.folds[i] = colFold{st: st, i: i, fn: f.a.Aggs[i].Func, bins: w.bins}
			storage.FoldSel(t, c, lo, fin, &w.folds[i])
		}
	}
	return len(fin), nil
}

// startFold gives the worker its folders and SUM scratch, at its first
// fused window.
func (w *seqMorselWorker) startFold(f *aggFold) {
	w.folds = make([]colFold, len(f.cols))
	w.bins = sumBins.Get().(*value.SumBins)
}

// sumBins recycles the SUM scratch of fused workers (value.AddSel), which
// every use leaves empty.
var sumBins = sync.Pool{New: func() any { return new(value.SumBins) }}

// colFold folds aggregate i's typed argument payloads into st: the
// storage.Folder of a fused window.
type colFold struct {
	st   *aggState
	i    int
	fn   AggFunc
	bins *value.SumBins
}

// FoldInts implements storage.Folder.
func (c *colFold) FoldInts(xs []int64, shift int, offs []int) {
	foldPayload(c, xs, shift, offs)
}

// FoldFloats implements storage.Folder.
func (c *colFold) FoldFloats(xs []float64, shift int, offs []int) {
	foldPayload(c, xs, shift, offs)
}

// foldPayload folds the typed payloads xs[shift+o] into aggregate c.i of
// c.st: one loop per function, kept to the fields finalize reads for it,
// with exact additions and the f < m || m != m tests on float64(x) (not
// the min and max builtins, which differ on NaN and -0).
//
//qo:hotpath
func foldPayload[T int64 | float64](c *colFold, xs []T, shift int, offs []int) {
	acc := &c.st.aggs[c.i]
	switch c.fn {
	case Sum, Avg:
		value.AddSel(&acc.sum, c.bins, xs, shift, offs)
	case Min:
		m := acc.min
		for _, o := range offs {
			if f := float64(xs[shift+o]); f < m || m != m {
				m = f
			}
		}
		acc.min = m
	case Max:
		m := acc.max
		for _, o := range offs {
			if f := float64(xs[shift+o]); f > m || m != m {
				m = f
			}
		}
		acc.max = m
	}
	acc.count += int64(len(offs))
}

// merge folds o, the state of rows that follow st's, into st: exact sums
// add, and a later MIN or MAX wins only when strictly better or when st's
// is still NaN, as it would have folded row by row.
func (st *aggState) merge(o *aggState) {
	st.count += o.count
	for i := range st.aggs {
		acc, oa := &st.aggs[i], &o.aggs[i]
		acc.sum.Merge(&oa.sum)
		if oa.min < acc.min || acc.min != acc.min {
			acc.min = oa.min
		}
		if oa.max > acc.max || acc.max != acc.max {
			acc.max = oa.max
		}
		acc.count += oa.count
	}
}
