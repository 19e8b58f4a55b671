package engine

import "robustqo/internal/value"

// The row-at-a-time helpers of the tests and the reference engine: the
// engine itself boxes rows only in Run's drain.

// addRow appends one boxed row to b, each value into its column's typed
// payload.
func addRow(b *Batch, row value.Row) {
	for c, v := range row {
		b.cols[c].Append(v)
	}
	b.n++
}

// cloneRow returns a freshly allocated, boxed copy of row i of b.
func cloneRow(b *Batch, i int) value.Row {
	out := make(value.Row, len(b.cols))
	for c := range b.cols {
		out[c] = b.cols[c].At(i)
	}
	return out
}
