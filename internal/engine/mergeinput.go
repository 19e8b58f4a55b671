package engine

import (
	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// A merge-join input is drained into typed vectors (drainVecs), and its
// key column's []int64 is its key vector. The merge walks the key vectors
// in sorted order, collects a batch of (left, right) sorted positions,
// and gathers each output column from its drained vector with one typed
// loop (value.AppendSel); no row is materialized on either side.

// mergeInput is one input of the streaming merge join. Rows are
// addressed by sorted position: keys, the key column's own vector, holds
// the join key of every position once sort has run, and order maps a
// position to the drained row of every other column — nil while the
// drain order is already key order.
type mergeInput struct {
	cols  []value.Vec
	key   int
	keys  []int64
	order []uint32
	// buf is the scratch gather resolves positions into.
	buf []int32
}

// drainMergeInput drains n, whose join key is column key of schema, into
// a merge input; joinKey has checked that the key is Int or Date.
func drainMergeInput(ctx *Context, n Node, schema expr.RelSchema, key int, counters *cost.Counters) (*mergeInput, error) {
	cols, _, err := drainVecs(ctx, n, schema, counters)
	if err != nil {
		return nil, err
	}
	return &mergeInput{cols: cols, key: key, keys: cols[key].I}, nil
}

// isIntKind reports whether values of kind t live in the int64 payload:
// Int and Date.
func isIntKind(t catalog.Type) bool { return t == catalog.Int || t == catalog.Date }

// sort orders the input by key and reports whether it had to. It sorts
// the key column in place, so only the other columns go through order.
func (in *mergeInput) sort() (sorted bool) {
	for i := 1; i < len(in.keys); i++ {
		if in.keys[i-1] > in.keys[i] {
			in.order = radixOrder(in.keys)
			return true
		}
	}
	return false
}

// gather appends the rows at sorted positions pos to out's columns from
// base on: the key column by position, the others through order. The
// caller counts the rows.
//
//qo:hotpath
func (in *mergeInput) gather(out *Batch, base int, pos []int32) {
	rows := pos
	if in.order != nil && len(in.cols) > 1 {
		in.buf = in.buf[:0]
		for _, p := range pos {
			in.buf = append(in.buf, int32(in.order[p]))
		}
		rows = in.buf
	}
	for c := range in.cols {
		idx := rows
		if c == in.key {
			idx = pos
		}
		value.AppendSel(&out.cols[base+c], &in.cols[c], idx)
	}
}
