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
// payloads between batches by copy or by index gather, from scan through
// join, sort and aggregate, and expressions evaluate over the same
// vectors; a row is boxed only where it leaves the engine, in Run's
// drain.
//
// A batch returned by Operator.Next is owned by the producer and is valid
// only until the producer's next Next or Close call. Consumers may mutate
// it in place (Gather, Truncate) but must not retain references across
// pulls; values that outlive the pull must be copied out (a breaker
// appends them to its own vectors).
type Batch struct {
	Schema expr.RelSchema
	cols   []value.Vec
	n      int
}

// vecsFor returns one empty vector per field of schema, of the field's
// kind.
func vecsFor(schema expr.RelSchema) []value.Vec {
	cols := make([]value.Vec, len(schema.Fields))
	for c, f := range schema.Fields {
		cols[c].Kind = f.Type
	}
	return cols
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
	cols := vecsFor(schema)
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

// emitter hands a pipeline breaker's finished output up a batch at a
// time: output row k is row perm[k] of the pooled batch src, whose
// columns the breaker filled, so a Sort or an Aggregate emits its rows in
// order by one typed gather a column per batch, without copying its
// output whole.
type emitter struct {
	src, out *Batch
	perm     []int32
	next     int
}

// Next gathers the next BatchSize output rows into the pooled batch.
//
//qo:hotpath
func (e *emitter) Next() (*Batch, error) {
	if e.next >= len(e.perm) {
		return nil, nil
	}
	idx := e.perm[e.next:min(e.next+BatchSize, len(e.perm))]
	e.out.Reset()
	for c := range e.src.cols {
		value.AppendSel(&e.out.cols[c], &e.src.cols[c], idx)
	}
	e.out.n = len(idx)
	e.next += len(idx)
	return e.out, nil
}

func (e *emitter) Close() {
	putBatch(e.src)
	putBatch(e.out)
	e.src, e.out = nil, nil
}
