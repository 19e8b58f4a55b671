package engine

// Column pruning: every plan node carries only the columns some ancestor
// reads.
//
// PruneColumns stamps a projection of table ordinals on the leaves of a
// plan — SeqScan, IndexRangeScan and IndexIntersect (Emit), INLJoin's
// inner side (InnerEmit) and StarSemiJoin's fact side (FactEmit) — and
// every other node's Schema follows from its inputs', so a node's schema
// is exactly what some ancestor reads. Hash build vectors, merge inputs,
// the top-K heap and the aggregate narrow with it.
//
// A leaf's predicate may read columns it does not emit. Its window loads
// the columns the predicate reads into worker-local scratch, evaluates
// there, and appends only the projected columns of the survivors to its
// output (scanCols). INLJoin and StarSemiJoin fill one batch that carries
// the projection first and the residual-only columns after it, run the
// residual over all of it, and emit the projected prefix. A nil
// projection is the identity: hand-built plans run through the same code.
//
// Pruning cannot move cost.Counters: every charge is per page, row,
// probe or match, never per column, and the windows a leaf runs do not
// depend on what it emits.

import (
	"fmt"
	"slices"

	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// PruneColumns narrows the leaves of the plan rooted at root, in place,
// to the columns their ancestors read. The root keeps every column unless
// it is a Project or an Aggregate, which read only their own references;
// Sort keys, Filter predicates, join keys and join residuals add to what
// a node's inputs must carry. A column is kept when a needed reference
// matches it by RelSchema.Resolve's rule, so a reference ambiguous over
// the full schemas stays ambiguous over the pruned ones. Leaves over
// tables the context does not know keep every column.
func PruneColumns(ctx *Context, root Node) {
	pruneCols(ctx, root, colNeeds{all: true})
}

// colNeeds is the set of column references some ancestor reads; all
// means every column.
type colNeeds struct {
	all  bool
	refs []expr.ColumnRef
}

// with returns the set extended by refs, never sharing n's storage.
func (n colNeeds) with(refs ...expr.ColumnRef) colNeeds {
	if n.all || len(refs) == 0 {
		return n
	}
	return colNeeds{refs: append(slices.Clip(n.refs), refs...)}
}

// emit returns the projection of table the set needs: nil (every column)
// when it needs all, otherwise the ascending ordinals of the matching
// columns, possibly none.
func (n colNeeds) emit(ctx *Context, table string) []int {
	t, ok := ctx.DB.Table(table)
	if n.all || !ok {
		return nil
	}
	emit := []int{}
	for c, f := range expr.SchemaForTable(t.Schema()).Fields {
		if matchesAny(f, n.refs) {
			emit = append(emit, c)
		}
	}
	return emit
}

// matchesAny reports whether some reference names field f, by the rule
// RelSchema.Resolve matches by.
func matchesAny(f expr.Field, refs []expr.ColumnRef) bool {
	for _, ref := range refs {
		if ref.Column == f.Column && (ref.Table == "" || ref.Table == f.Table) {
			return true
		}
	}
	return false
}

func pruneCols(ctx *Context, n Node, need colNeeds) {
	switch t := n.(type) {
	case *Project:
		pruneCols(ctx, t.Input, colNeeds{refs: t.Cols})
	case *Aggregate:
		refs := slices.Clone(t.GroupBy)
		for _, a := range t.Aggs {
			refs = append(refs, expr.Columns(a.Arg)...)
		}
		pruneCols(ctx, t.Input, colNeeds{refs: refs})
	case *Sort:
		for _, k := range t.By {
			need = need.with(k.Col)
		}
		pruneCols(ctx, t.Input, need)
	case *Limit:
		pruneCols(ctx, t.Input, need)
	case *Filter:
		pruneCols(ctx, t.Input, need.with(expr.Columns(t.Pred)...))
	case *Exchange:
		pruneCols(ctx, t.Source, need)
	case *HashJoin:
		need = need.with(t.BuildCol, t.ProbeCol)
		pruneCols(ctx, t.Build, need)
		pruneCols(ctx, t.Probe, need)
	case *MergeJoin:
		need = need.with(t.LeftCol, t.RightCol)
		pruneCols(ctx, t.Left, need)
		pruneCols(ctx, t.Right, need)
	case *INLJoin:
		t.InnerEmit = need.emit(ctx, t.InnerTable)
		pruneCols(ctx, t.Outer, need.with(t.OuterCol).with(expr.Columns(t.Residual)...))
	case *StarSemiJoin:
		t.FactEmit = need.emit(ctx, t.Fact)
		need = need.with(expr.Columns(t.Residual)...)
		for _, d := range t.Dims {
			pruneCols(ctx, d.Scan, need.with(d.DimPK))
		}
	case *SeqScan:
		t.Emit = need.emit(ctx, t.Table)
	case *IndexRangeScan:
		t.Emit = need.emit(ctx, t.Table)
	case *IndexIntersect:
		t.Emit = need.emit(ctx, t.Table)
	}
}

// emitOrdinals resolves a projection over a table of width columns: nil
// is every column in table order.
func emitOrdinals(width int, emit []int) ([]int, error) {
	if emit == nil {
		ords := make([]int, width)
		for c := range ords {
			ords[c] = c
		}
		return ords, nil
	}
	for _, c := range emit {
		if c < 0 || c >= width {
			return nil, fmt.Errorf("engine: projected column %d of a %d-column table", c, width)
		}
	}
	return emit, nil
}

// pickFields returns the schema of full's fields at ords, in that order.
func pickFields(full expr.RelSchema, ords []int) expr.RelSchema {
	fields := make([]expr.Field, len(ords))
	for i, c := range ords {
		fields[i] = full.Fields[c]
	}
	return expr.RelSchema{Fields: fields}
}

// emitSchema is a leaf's output schema: its table's scan schema narrowed
// to the projection emit.
func emitSchema(ctx *Context, table string, emit []int) (expr.RelSchema, error) {
	_, full, err := tableAndSchema(ctx, table)
	if err != nil || emit == nil {
		return full, err
	}
	if _, err := emitOrdinals(len(full.Fields), emit); err != nil {
		return expr.RelSchema{}, err
	}
	return pickFields(full, emit), nil
}

// withReads returns ords followed by the ordinals of full's other fields
// that refs match, ascending: the columns a node must load to emit ords
// and evaluate an expression over refs. ords itself is never modified.
func withReads(ords []int, full expr.RelSchema, refs []expr.ColumnRef) []int {
	out := slices.Clip(ords)
	for c, f := range full.Fields {
		if matchesAny(f, refs) && !slices.Contains(ords, c) {
			out = append(out, c)
		}
	}
	return out
}

// scanCols is a leaf's column plan over its table's full schema: emit is
// the table ordinal of each output column, pred the ordinals its
// predicate reads. A window loads the pred columns into worker-local
// scratch and evaluates the predicate there; of the output columns, those
// in predOut are then gathered from scratch for the survivors and those
// in restOut are loaded for the survivors only, from table columns rest.
type scanCols struct {
	emit, pred       []int
	predOut, restOut []int
	rest             []int
}

// newScanCols resolves a leaf's projection and the columns its
// predicate reads over the table schema full.
func newScanCols(full expr.RelSchema, emit []int, pred expr.Expr) (*scanCols, error) {
	emit, err := emitOrdinals(len(full.Fields), emit)
	if err != nil {
		return nil, err
	}
	sc := &scanCols{emit: emit}
	if sc.pred, err = full.Ordinals(pred); err != nil {
		return nil, err
	}
	for i, c := range emit {
		if slices.Contains(sc.pred, c) {
			sc.predOut = append(sc.predOut, i)
		} else {
			sc.restOut = append(sc.restOut, i)
			sc.rest = append(sc.rest, c)
		}
	}
	return sc, nil
}

// gatherPred appends, for every output column the predicate also reads,
// the kept rows of its scratch column to out. The caller loads the other
// output columns and counts the rows.
//
//qo:hotpath
func (sc *scanCols) gatherPred(out *Batch, scratch []value.Vec, keep []int) {
	for _, i := range sc.predOut {
		value.AppendSel(&out.cols[i], &scratch[sc.emit[i]], keep)
	}
}
