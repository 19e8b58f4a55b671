package storage

import (
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// Filter is a predicate split once for filter-first evaluation: its
// pushable prefix (expr.SplitPushdown) skips the tiles whose zones some
// bound excludes and is checked on the other tiles' typed payloads, and
// the bound residual runs only on the prefix's survivors —
// the rows, in the order, the unsplit predicate's left-to-right And would
// reach it, so results and errors match evaluating the whole predicate.
// A scan window and a synopsis count both run it. A Filter carries
// selection and column scratch, so it must not be shared between
// goroutines.
type Filter struct {
	bounds   []expr.ColBound
	residual *expr.Bound // nil when the prefix is the whole predicate
	reads    []int       // the columns the residual reads, ascending
	// Scratch[c], for each column c the residual reads, holds that column
	// of the last window's prefix survivors, densely, as a vector of the
	// column's kind: evalResidual's keep indexes it.
	Scratch []value.Vec
	// sel and sel2 are the prefix's selection buffers; the residual reuses
	// sel2 for its dense selection.
	sel, sel2 []int
}

// NewFilter splits pred over schema and binds its residual. A nil
// predicate keeps every row.
func NewFilter(pred expr.Expr, schema expr.RelSchema) (*Filter, error) {
	bounds, residual := expr.SplitPushdown(pred, schema)
	f := &Filter{bounds: bounds}
	if residual == nil {
		return f, nil
	}
	b, err := expr.Bind(residual, schema)
	if err != nil {
		return nil, err
	}
	f.residual = b
	f.Scratch = make([]value.Vec, len(schema.Fields))
	for c, fd := range schema.Fields {
		f.Scratch[c].Kind = fd.Type
	}
	if f.reads, err = schema.Ordinals(residual); err != nil {
		return nil, err
	}
	return f, nil
}

// Bounds returns the pushed prefix, one closed interval per conjunct.
func (f *Filter) Bounds() []expr.ColBound { return f.bounds }

// Residual returns the conjuncts the prefix leaves, nil when it covers
// the whole predicate.
func (f *Filter) Residual() expr.Expr {
	if f.residual == nil {
		return nil
	}
	return f.residual.Expr()
}

// Window returns the offsets from lo of the rows of [lo, hi) of t that
// pass the filter: the pushed prefix, then the residual on its
// survivors (evalResidual).
//
//qo:hotpath
func (f *Filter) Window(t *Table, lo, hi int) (fin, keep []int, err error) {
	return f.evalResidual(t, lo, f.prefix(t, lo, hi))
}

// TileSkipped reports whether the pushed prefix's zones exclude the tile
// holding global row row of t, and returns the global row id at which
// that tile starts, which tells one tile from another. With no prefix no
// tile is skipped.
//
//qo:hotpath
func (f *Filter) TileSkipped(t *Table, row int) (start int, skipped bool) {
	p, k, _ := t.tileAt(row)
	return t.bases[p] + k*SegmentRows, len(f.bounds) > 0 && t.tileExcluded(f.bounds, p, k)
}

// prefix returns the offsets from lo of the rows of [lo, hi) of t that
// pass the pushed prefix: in each tile no bound's zone excludes, the
// first bound reads the tile's rows in place (FilterRange), and every
// later bound reads the typed payloads of the rows the ones before it
// kept — no value is boxed. With no prefix every row passes. The result
// is valid until the next call.
//
//qo:hotpath
func (f *Filter) prefix(t *Table, lo, hi int) []int {
	if len(f.bounds) == 0 {
		f.sel = RangeSel(f.sel, 0, hi-lo)
		return f.sel
	}
	src, dst := f.sel[:0], f.sel2
	if cap(src) < hi-lo {
		src = make([]int, 0, hi-lo)
	}
	if cap(dst) < hi-lo {
		dst = make([]int, 0, hi-lo)
	}
	for r := lo; r < hi; {
		p, k, end := t.tileAt(r)
		end = min(end, hi)
		if !t.tileExcluded(f.bounds, p, k) {
			// A tile lies inside one shard.
			src = t.FilterRange(f.bounds[0], lo, r-lo, end-lo, src)
		}
		r = end
	}
	for _, b := range f.bounds[1:] {
		if len(src) == 0 {
			break
		}
		dst = t.FilterSel(b, lo, src, dst[:0])
		src, dst = dst, src
	}
	f.sel, f.sel2 = src, dst
	return src
}

// evalResidual runs the residual over rows, the offsets from lo of a
// prefix's survivors, ascending. It loads the columns the residual reads
// for those rows alone, from t into Scratch, and returns fin, the
// offsets from lo of the rows that pass, and keep, their positions in
// Scratch. With no rows the residual is never evaluated, so it cannot
// fail; with no residual every row passes and keep is nil. Both results
// are valid until the next call.
//
//qo:hotpath
func (f *Filter) evalResidual(t *Table, lo int, rows []int) (fin, keep []int, err error) {
	if len(rows) == 0 || f.residual == nil {
		return rows, nil, nil
	}
	for _, c := range f.reads {
		f.Scratch[c].Reset(f.Scratch[c].Kind)
		t.AppendColumnSel(&f.Scratch[c], c, lo, rows)
	}
	// Scratch holds the rows densely, so the residual's selection is
	// 0..len(rows)-1 — rows itself when every row passed the prefix.
	if rows[len(rows)-1] == len(rows)-1 {
		keep, err = f.residual.EvalBatch(f.Scratch, rows)
		return keep, keep, err
	}
	// rows may be sel, never sel2, which is free until the next window.
	f.sel2 = RangeSel(f.sel2, 0, len(rows))
	if keep, err = f.residual.EvalBatch(f.Scratch, f.sel2); err != nil {
		return nil, nil, err
	}
	// EvalBatch neither keeps nor aliases its selection, so the survivors'
	// offsets overwrite it in place.
	fin = f.sel2[:0]
	for _, k := range keep {
		fin = append(fin, rows[k])
	}
	return fin, keep, nil
}

// RangeSel returns the selection vector lo, lo+1, ..., hi-1, reusing
// buf's storage when it is large enough. The make runs once per
// high-water mark, not per call.
//
//qo:hotpath
func RangeSel(buf []int, lo, hi int) []int {
	if cap(buf) < hi-lo {
		buf = make([]int, hi-lo)
	}
	buf = buf[:hi-lo]
	for i := range buf {
		buf[i] = lo + i
	}
	return buf
}
