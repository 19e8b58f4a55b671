package engine

import (
	"sync"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// BatchSize is the target number of rows per Batch. Operators may return
// smaller batches (the tail of a table, heavily filtered input) and joins
// may exceed it when a single input batch fans out, but pulls advance the
// pipeline roughly this many rows at a time.
const BatchSize = 1024

// Batch is a column-oriented slice of up to ~BatchSize rows flowing
// between streaming operators, typed by its schema: column c is one
// value.Vec of kind Schema.Fields[c].Type — an []int64 for Int and Date,
// an []float64 for Float, an []string for String — and row r of it is
// its r-th payload. Every column has length Len(). Operators move
// payloads between batches by copy or by index gather; a value.Value is
// built only where a row leaves the pipeline (Row, CloneRow) or a
// generic expression reads a cell.
//
// A batch returned by Operator.Next is owned by the producer and is valid
// only until the producer's next Next or Close call. Consumers may mutate
// it in place (Gather, Truncate) but must not retain references across
// pulls; rows that outlive the pull must be copied out (CloneRow).
type Batch struct {
	Schema expr.RelSchema
	cols   []value.Vec
	n      int
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Cols exposes the column vectors for batch expression evaluation. The
// vectors are owned by the batch; callers must not grow them.
func (b *Batch) Cols() []value.Vec { return b.cols }

// Reset empties the batch, keeping column capacity.
func (b *Batch) Reset() {
	for c := range b.cols {
		b.cols[c].Truncate(0)
	}
	b.n = 0
}

// AppendRow appends one row, copying its values into the columns.
//
//qo:hotpath
func (b *Batch) AppendRow(row value.Row) {
	for i, v := range row {
		b.cols[i].Append(v)
	}
	b.n++
}

// appendConcat appends the concatenation of two row fragments as one row.
//
//qo:hotpath
func (b *Batch) appendConcat(left, right value.Row) {
	for i, v := range left {
		b.cols[i].Append(v)
	}
	for i, v := range right {
		b.cols[len(left)+i].Append(v)
	}
	b.n++
}

// Row copies row i into dst, which must have one slot per column.
func (b *Batch) Row(i int, dst value.Row) {
	for c := range b.cols {
		dst[c] = b.cols[c].At(i)
	}
}

// CloneRow returns a freshly allocated copy of row i.
func (b *Batch) CloneRow(i int) value.Row {
	out := make(value.Row, len(b.cols))
	b.Row(i, out)
	return out
}

// Gather compacts the batch in place to the rows named by the selection
// vector sel, which must be strictly increasing row indices < Len().
func (b *Batch) Gather(sel []int) { b.gatherFrom(0, sel) }

// gatherFrom compacts the rows at and after base down to those named by
// sel (strictly increasing indices in [base, Len())); rows before base are
// left alone.
//
//qo:hotpath
func (b *Batch) gatherFrom(base int, sel []int) {
	for c := range b.cols {
		b.cols[c].Compact(base, sel)
	}
	b.n = base + len(sel)
}

// filterTail keeps, of the rows appended since base, those passing pred.
// It is how a window worker filters what it just appended without
// touching earlier windows' survivors in the same batch. sel is the
// caller's selection-vector scratch, returned for reuse.
//
//qo:hotpath
func (b *Batch) filterTail(base int, pred *expr.Bound, sel []int) ([]int, error) {
	sel = storage.RangeSel(sel, base, b.n)
	keep, err := pred.EvalBatch(b.cols, sel)
	if err != nil {
		return sel, err
	}
	b.gatherFrom(base, keep)
	return sel, nil
}

// Truncate drops all rows past the first n.
func (b *Batch) Truncate(n int) {
	if n >= b.n {
		return
	}
	for c := range b.cols {
		b.cols[c].Truncate(n)
	}
	b.n = n
}

// batchPool recycles Batch structs and their column backing arrays
// between operator lifetimes. An operator that owns its output batch
// takes one with getBatch at Open and returns it with putBatch at Close;
// batches that merely alias a child's columns (Filter, the non-duplicating
// Project view) are never pooled. Pooled columns keep their last values
// until overwritten, so retention is bounded by the pool's own lifetime —
// the same bound a fresh batch per Open had, minus the reallocations.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// getBatch returns an empty batch for the schema, reusing pooled column
// storage when available. Pair with putBatch at operator Close.
func getBatch(schema expr.RelSchema) *Batch {
	b, ok := batchPool.Get().(*Batch)
	if !ok {
		b = &Batch{}
	}
	b.Schema = schema
	n := len(schema.Fields)
	if cap(b.cols) < n {
		b.cols = append(b.cols[:cap(b.cols)], make([]value.Vec, n-cap(b.cols))...)
	}
	b.cols = b.cols[:n]
	for i, f := range schema.Fields {
		c := &b.cols[i]
		c.Reset(f.Type)
		switch {
		case f.Type == catalog.Float && c.F == nil:
			c.F = make([]float64, 0, BatchSize)
		case f.Type == catalog.String && c.S == nil:
			c.S = make([]string, 0, BatchSize)
		case isIntKind(f.Type) && c.I == nil:
			c.I = make([]int64, 0, BatchSize)
		}
	}
	b.n = 0
	return b
}

// putBatch returns a batch to the pool. Safe on nil, so Close paths can
// call it unconditionally.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.Reset()
	b.Schema = expr.RelSchema{}
	batchPool.Put(b)
}

// Operator is the streaming execution contract every physical operator
// implements: a pull-based Open/Next/Close iterator over Batches.
//
// Open binds the operator against the runtime context and captures the
// counters pointer all subsequent work is charged to; pipeline breakers
// (hash-join build, merge join, sort, aggregation, star dimension arms)
// consume their blocking inputs during Open. Next returns the next
// non-empty batch, or nil when the stream is exhausted; streaming
// operators charge page and tuple work incrementally as batches are
// actually pulled, which is what lets a LIMIT above them terminate the
// pipeline early. Close releases held inputs; it is safe to call after a
// failed Open and more than once.
type Operator interface {
	Open(ctx *Context, counters *cost.Counters) error
	Next() (*Batch, error)
	Close()
}

// drainRows pulls an opened operator to exhaustion, cloning every row out
// of the transient batches.
func drainRows(op Operator) ([]value.Row, error) {
	var rows []value.Row
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.CloneRow(i))
		}
	}
}

// openAndDrain runs a node to completion — a plan root for Run, a blocking
// child for pipeline breakers: it opens the node's stream against the
// shared counters, drains it, and closes it before returning.
func openAndDrain(ctx *Context, n Node, counters *cost.Counters) ([]value.Row, error) {
	op := n.Stream()
	defer op.Close()
	if err := op.Open(ctx, counters); err != nil {
		return nil, err
	}
	return drainRows(op)
}

// drainVecs runs n to completion into typed vectors of its schema —
// the build side of a hash join, an input of a merge join: it opens n's
// stream against the shared counters, appends every batch it produces a
// column at a time, and closes it. It returns the vectors and their row
// count.
func drainVecs(ctx *Context, n Node, schema expr.RelSchema, counters *cost.Counters) ([]value.Vec, int, error) {
	op := n.Stream()
	defer op.Close()
	if err := op.Open(ctx, counters); err != nil {
		return nil, 0, err
	}
	cols := make([]value.Vec, len(schema.Fields))
	for c, f := range schema.Fields {
		cols[c].Kind = f.Type
	}
	rows := 0
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return cols, rows, err
		}
		for c := range cols {
			cols[c].AppendVec(&b.cols[c])
		}
		rows += b.Len()
	}
}
