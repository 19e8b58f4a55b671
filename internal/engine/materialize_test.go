package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// This file is the materialize-everything reference engine, kept as test
// code. The streaming pipeline (batch.go and the per-operator *Op types)
// must produce identical rows and, on full drains, byte-identical
// cost.Counters; TestEngineDifferential and
// BenchmarkExecStreamVsMaterialize hold the two paths against each other.
// Its operators pass whole row slices. Predicates reach the batch
// evaluator a window of at most BatchSize rows at a time, through one
// reusable Batch, so the scratch an operator holds beyond its output stays
// one batch wide: rowFilter filters rows as an operator produces them,
// eachWindow walks rows already materialized. Aggregate arguments do not
// reach it: the reference interprets them itself (bindRefScalar).

// eachWindow copies rows into one reusable Batch a window at a time and
// calls fn with the batch, the selection of all its rows, and the window.
func eachWindow(rows []value.Row, schema expr.RelSchema, fn func(b *Batch, sel []int, window []value.Row) error) error {
	b := NewBatch(schema)
	var sel []int
	for lo := 0; lo < len(rows); lo += BatchSize {
		window := rows[lo:min(lo+BatchSize, len(rows))]
		b.Reset()
		for _, row := range window {
			addRow(b, row)
		}
		sel = storage.RangeSel(sel, 0, len(window))
		if err := fn(b, sel, window); err != nil {
			return err
		}
	}
	return nil
}

// rowFilter keeps the produced rows passing pred. add copies a row into a
// reusable Batch, which is filtered every BatchSize rows and at done; the
// survivors are copied out. After an error later rows are dropped and done
// reports it.
type rowFilter struct {
	pred *expr.Bound
	b    *Batch
	sel  []int
	rows []value.Row
	err  error
}

// add queues row, which the caller may reuse afterwards.
func (f *rowFilter) add(row value.Row) {
	addRow(f.b, row)
	if f.b.Len() == BatchSize {
		f.done()
	}
}

// done filters the queued rows and returns, in order, every survivor so
// far and the first error.
func (f *rowFilter) done() ([]value.Row, error) {
	if f.err == nil {
		f.sel, f.err = f.b.filterTail(0, f.pred, f.sel)
	}
	for r := 0; f.err == nil && r < f.b.Len(); r++ {
		f.rows = append(f.rows, cloneRow(f.b, r))
	}
	f.b.Reset()
	return f.rows, f.err
}

// fetchFiltered reads the rows behind rids and keeps those passing the
// (already bound) predicate.
func fetchFiltered(t *storage.Table, schema expr.RelSchema, rids []int32, pred *expr.Bound) ([]value.Row, error) {
	f := &rowFilter{pred: pred, b: NewBatch(schema)}
	buf := make(value.Row, len(schema.Fields))
	for _, rid := range rids {
		t.ReadRow(int(rid), buf)
		f.add(buf)
	}
	return f.done()
}

// ExecuteMaterialized runs a plan with the materialize-everything engine:
// every operator fully computes its input before doing any work of its
// own. It exists for equivalence testing and allocation benchmarking; the
// production path is Run, which streams. Unlike Run it charges no output
// tuples, so a caller comparing the two adds Output for the root's rows.
func ExecuteMaterialized(ctx *Context, n Node, counters *cost.Counters) (*Result, error) {
	switch t := n.(type) {
	case *SeqScan:
		return t.runMaterialized(ctx, counters)
	case *IndexRangeScan:
		return t.runMaterialized(ctx, counters)
	case *IndexIntersect:
		return t.runMaterialized(ctx, counters)
	case *Filter:
		return t.runMaterialized(ctx, counters)
	case *Project:
		return t.runMaterialized(ctx, counters)
	case *Aggregate:
		return t.runMaterialized(ctx, counters)
	case *Sort:
		return t.runMaterialized(ctx, counters)
	case *Limit:
		return t.runMaterialized(ctx, counters)
	case *HashJoin:
		return t.runMaterialized(ctx, counters)
	case *MergeJoin:
		return t.runMaterialized(ctx, counters)
	case *INLJoin:
		return t.runMaterialized(ctx, counters)
	case *StarSemiJoin:
		return t.runMaterialized(ctx, counters)
	case *benchRowsNode:
		return &Result{Schema: t.schema, Rows: t.rows}, nil
	case *Exchange:
		// Exchange only changes who executes the source, never what it
		// computes; the materialized reference has no parallel analogue.
		return ExecuteMaterialized(ctx, t.Source, counters)
	case *Instrumented:
		return ExecuteMaterialized(ctx, t.Inner, counters)
	default:
		return nil, fmt.Errorf("engine: no materialized implementation for %T", n)
	}
}

func (s *SeqScan) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Bind(s.Filter, schema)
	if err != nil {
		return nil, err
	}
	f := &rowFilter{pred: pred, b: NewBatch(schema)}
	buf := make(value.Row, len(schema.Fields))
	// Walk the surviving shards' spans; the per-span first-tuple-in-window
	// page charge sums to exactly NumPages when nothing is pruned.
	const per = storage.TuplesPerPage
	for _, sp := range scanSpans(t, s.Partitions) {
		counters.SeqPages += int64((sp.hi+per-1)/per - (sp.lo+per-1)/per)
		counters.Tuples += int64(sp.hi - sp.lo)
		for r := sp.lo; r < sp.hi; r++ {
			t.ReadRow(r, buf)
			f.add(buf)
		}
	}
	rows, err := f.done()
	if err != nil {
		return nil, fmt.Errorf("engine: SeqScan(%s): %v", s.Table, err)
	}
	return narrowLeaf(schema, s.Emit, rows)
}

// narrowLeaf is a leaf's materialized result: rows over the table schema
// full, cut down to the projection emit.
func narrowLeaf(full expr.RelSchema, emit []int, rows []value.Row) (*Result, error) {
	ords, err := emitOrdinals(len(full.Fields), emit)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: pickFields(full, ords), Rows: narrowRows(rows, emit)}, nil
}

func (s *IndexRangeScan) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	ix, ok := ctx.Indexes.Lookup(s.Table, s.Range.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, s.Range.Column)
	}
	pred, err := expr.Bind(s.Residual, schema)
	if err != nil {
		return nil, err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(s.Range.Lo, s.Range.Hi)
	counters.IndexEntries += int64(scanned)
	rids = pruneRids(t, s.Partitions, rids)
	counters.RandPages += int64(len(rids))
	counters.Tuples += int64(len(rids))
	rows, err := fetchFiltered(t, schema, rids, pred)
	if err != nil {
		return nil, fmt.Errorf("engine: IndexRangeScan(%s): %v", s.Table, err)
	}
	return narrowLeaf(schema, s.Emit, rows)
}

func (s *IndexIntersect) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	if len(s.Ranges) == 0 {
		return nil, fmt.Errorf("engine: IndexIntersect(%s) with no ranges", s.Table)
	}
	t, schema, err := tableAndSchema(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Bind(s.Residual, schema)
	if err != nil {
		return nil, err
	}
	lists := make([][]int32, len(s.Ranges))
	for i, r := range s.Ranges {
		ix, ok := ctx.Indexes.Lookup(s.Table, r.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, r.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(r.Lo, r.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	rids := pruneRids(t, s.Partitions, index.Intersect(lists...))
	counters.RandPages += int64(len(rids))
	counters.Tuples += int64(len(rids))
	rows, err := fetchFiltered(t, schema, rids, pred)
	if err != nil {
		return nil, fmt.Errorf("engine: IndexIntersect(%s): %v", s.Table, err)
	}
	return narrowLeaf(schema, s.Emit, rows)
}

func (f *Filter) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	in, err := ExecuteMaterialized(ctx, f.Input, counters)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Bind(f.Pred, in.Schema)
	if err != nil {
		return nil, err
	}
	counters.Tuples += int64(len(in.Rows))
	var rows []value.Row
	err = eachWindow(in.Rows, in.Schema, func(b *Batch, sel []int, window []value.Row) error {
		keep, err := pred.EvalBatch(b.Cols(), sel)
		for _, r := range keep {
			rows = append(rows, window[r])
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("engine: Filter: %v", err)
	}
	return &Result{Schema: in.Schema, Rows: rows}, nil
}

func (p *Project) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	in, err := ExecuteMaterialized(ctx, p.Input, counters)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(p.Cols))
	fields := make([]expr.Field, len(p.Cols))
	for i, c := range p.Cols {
		idx, err := in.Schema.Resolve(c)
		if err != nil {
			return nil, fmt.Errorf("engine: Project: %v", err)
		}
		idxs[i] = idx
		fields[i] = in.Schema.Fields[idx]
	}
	counters.Tuples += int64(len(in.Rows))
	rows := make([]value.Row, len(in.Rows))
	for r, row := range in.Rows {
		out := make(value.Row, len(idxs))
		for i, idx := range idxs {
			out[i] = row[idx]
		}
		rows[r] = out
	}
	return &Result{Schema: expr.RelSchema{Fields: fields}, Rows: rows}, nil
}

func (a *Aggregate) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	if len(a.Aggs) == 0 && len(a.GroupBy) == 0 {
		return nil, fmt.Errorf("engine: Aggregate with no aggregates and no group keys")
	}
	in, err := ExecuteMaterialized(ctx, a.Input, counters)
	if err != nil {
		return nil, err
	}
	outSchema, err := a.outSchema(in.Schema)
	if err != nil {
		return nil, err
	}
	groupIdxs := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groupIdxs[i], err = in.Schema.Resolve(g)
		if err != nil {
			return nil, fmt.Errorf("engine: Aggregate group key: %v", err)
		}
	}
	argFns := make([]refScalar, len(a.Aggs))
	for i, spec := range a.Aggs {
		if spec.Arg == nil {
			if spec.Func != Count {
				return nil, fmt.Errorf("engine: %s requires an argument", spec.Func)
			}
			continue
		}
		argFns[i], err = bindRefScalar(spec.Arg, in.Schema)
		if err != nil {
			return nil, fmt.Errorf("engine: Aggregate arg: %v", err)
		}
	}
	counters.Tuples += int64(len(in.Rows))
	counters.HashBuilds += int64(len(in.Rows))

	groups := make(map[string]*aggState)
	keyVals := make(map[string]value.Row)
	var order []string
	keyOf := func(row value.Row) string {
		if len(groupIdxs) == 0 {
			return ""
		}
		var sb strings.Builder
		for _, gi := range groupIdxs {
			sb.WriteString(row[gi].String())
			sb.WriteByte('\x00')
		}
		return sb.String()
	}
	// Each argument is evaluated over a window of rows before the next,
	// as the engine evaluates each over a batch.
	argVecs := make([][]value.Value, len(a.Aggs))
	for i := range argVecs {
		argVecs[i] = make([]value.Value, BatchSize)
	}
	for lo := 0; lo < len(in.Rows); lo += BatchSize {
		window := in.Rows[lo:min(lo+BatchSize, len(in.Rows))]
		for i, fn := range argFns {
			if fn == nil {
				continue
			}
			for r, row := range window {
				if argVecs[i][r], err = fn(row); err != nil {
					return nil, fmt.Errorf("engine: Aggregate: %v", err)
				}
			}
		}
		for r, row := range window {
			k := keyOf(row)
			st, ok := groups[k]
			if !ok {
				st = a.newAggState()
				groups[k] = st
				vals := make(value.Row, len(groupIdxs))
				for i, gi := range groupIdxs {
					vals[i] = row[gi]
				}
				keyVals[k] = vals
				order = append(order, k)
			}
			st.count++
			for i, spec := range a.Aggs {
				if spec.Func == Count && spec.Arg == nil {
					continue
				}
				if err := st.accumulate(i, spec.Func, argVecs[i][r]); err != nil {
					return nil, err
				}
			}
		}
	}
	// A global aggregate over empty input still yields one row.
	if len(groupIdxs) == 0 && len(groups) == 0 {
		groups[""] = a.newAggState()
		order = append(order, "")
	}
	sort.Strings(order) // deterministic output order
	aggSchema := expr.RelSchema{Fields: outSchema.Fields[len(groupIdxs):]}
	rows := make([]value.Row, 0, len(order))
	for _, k := range order {
		aggs := vecsFor(aggSchema)
		a.finalize(groups[k], aggs)
		row := slices.Clone(keyVals[k])
		for i := range aggs {
			row = append(row, aggs[i].At(0))
		}
		rows = append(rows, row)
	}
	return &Result{Schema: outSchema, Rows: rows}, nil
}

// refScalar is the reference engine's own evaluator of an aggregate
// argument over one row, independent of expr.BindScalar's typed kernels,
// which the differential tests hold to it.
type refScalar func(row value.Row) (value.Value, error)

// bindRefScalar compiles a Col, Lit or Arith argument into a refScalar
// that interprets it a row at a time over value.Value. Arithmetic is
// integral unless an operand is a Float; an integral result is a Date
// when the right operand is one and otherwise of the left operand's
// kind. Errors are worded as the engine's.
func bindRefScalar(e expr.Expr, schema expr.RelSchema) (refScalar, error) {
	switch n := e.(type) {
	case expr.Col:
		idx, err := schema.Resolve(n.Ref)
		if err != nil {
			return nil, err
		}
		return func(row value.Row) (value.Value, error) { return row[idx], nil }, nil
	case expr.Lit:
		return func(value.Row) (value.Value, error) { return n.Val, nil }, nil
	case expr.Arith:
		l, err := bindRefScalar(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := bindRefScalar(n.R, schema)
		if err != nil {
			return nil, err
		}
		return func(row value.Row) (value.Value, error) {
			x, err := l(row)
			if err != nil {
				return value.Value{}, err
			}
			y, err := r(row)
			if err != nil {
				return value.Value{}, err
			}
			return refArith(n.Op, x, y)
		}, nil
	}
	return nil, fmt.Errorf("expr: predicate %s used as scalar", e)
}

// refArith applies op to two values, bindRefScalar's rule.
func refArith(op expr.ArithOp, x, y value.Value) (value.Value, error) {
	if !x.Numeric() || !y.Numeric() {
		return value.Value{}, fmt.Errorf("expr: arithmetic over non-numeric values %s %s %s", x, op, y)
	}
	if x.Kind == catalog.Float || y.Kind == catalog.Float {
		a, b := x.AsFloat(), y.AsFloat()
		switch op {
		case expr.Add:
			return value.Float(a + b), nil
		case expr.Sub:
			return value.Float(a - b), nil
		case expr.Mul:
			return value.Float(a * b), nil
		}
		if b == 0 {
			return value.Value{}, fmt.Errorf("expr: division by zero")
		}
		return value.Float(a / b), nil
	}
	kind := x.Kind
	if y.Kind == catalog.Date {
		kind = catalog.Date
	}
	switch op {
	case expr.Add:
		return value.Value{Kind: kind, I: x.I + y.I}, nil
	case expr.Sub:
		return value.Value{Kind: kind, I: x.I - y.I}, nil
	case expr.Mul:
		return value.Value{Kind: kind, I: x.I * y.I}, nil
	}
	if y.I == 0 {
		return value.Value{}, fmt.Errorf("expr: integer division by zero")
	}
	return value.Value{Kind: kind, I: x.I / y.I}, nil
}

// accumulate is the reference engine's own fold: one argument value at a
// time into aggregate i's running state, independent of the engine's
// typed kernels (foldPayload, foldGroups), which the differential tests
// hold to it.
func (st *aggState) accumulate(i int, fn AggFunc, v value.Value) error {
	if !v.Numeric() {
		return fmt.Errorf("engine: %s over non-numeric value %s", fn, v)
	}
	f := v.AsFloat()
	acc := &st.aggs[i]
	acc.sum.Add(f)
	if f < acc.min || acc.min != acc.min {
		acc.min = f
	}
	if f > acc.max || acc.max != acc.max {
		acc.max = f
	}
	acc.count++
	return nil
}

func (s *Sort) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	if len(s.By) == 0 {
		return nil, fmt.Errorf("engine: Sort with no keys")
	}
	in, err := ExecuteMaterialized(ctx, s.Input, counters)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(s.By))
	for i, k := range s.By {
		idxs[i], err = in.Schema.Resolve(k.Col)
		if err != nil {
			return nil, fmt.Errorf("engine: Sort key: %v", err)
		}
	}
	// Validate comparability up front so sort.SliceStable cannot panic on
	// mixed types mid-comparison.
	for _, row := range in.Rows {
		for _, idx := range idxs {
			if len(in.Rows) > 0 {
				if _, err := value.Compare(row[idx], in.Rows[0][idx]); err != nil {
					return nil, fmt.Errorf("engine: Sort: %v", err)
				}
			}
		}
	}
	rows := make([]value.Row, len(in.Rows))
	copy(rows, in.Rows)
	counters.SortTuples += int64(len(rows))
	sort.SliceStable(rows, func(a, b int) bool {
		for ki, idx := range idxs {
			c := sortCompare(rows[a][idx], rows[b][idx])
			if c == 0 {
				continue
			}
			if s.By[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	// The materialized path pays the full sort regardless; TopK only trims
	// the output so both paths return the same rows.
	if s.TopK > 0 && len(rows) > s.TopK {
		rows = rows[:s.TopK]
	}
	return &Result{Schema: in.Schema, Rows: rows}, nil
}

// sortCompare is the reference ORDER BY order of two values of one
// column: value.Compare's, which never fails once comparability has been
// validated, except that a Float NaN sorts after every number and ties
// another NaN, so the order is total.
func sortCompare(x, y value.Value) int {
	if x.Kind == catalog.Float {
		xNaN, yNaN := math.IsNaN(x.F), math.IsNaN(y.F)
		switch {
		case xNaN && yNaN:
			return 0
		case xNaN:
			return 1
		case yNaN:
			return -1
		}
	}
	c, _ := value.Compare(x, y)
	return c
}

func (l *Limit) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	if l.N < 0 {
		return nil, fmt.Errorf("engine: negative limit %d", l.N)
	}
	in, err := ExecuteMaterialized(ctx, l.Input, counters)
	if err != nil {
		return nil, err
	}
	rows := in.Rows
	if len(rows) > l.N {
		rows = rows[:l.N]
	}
	return &Result{Schema: in.Schema, Rows: rows}, nil
}

func (j *HashJoin) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	build, err := ExecuteMaterialized(ctx, j.Build, counters)
	if err != nil {
		return nil, err
	}
	probe, err := ExecuteMaterialized(ctx, j.Probe, counters)
	if err != nil {
		return nil, err
	}
	bIdx, err := joinKey("HashJoin", "build", build.Schema, j.BuildCol)
	if err != nil {
		return nil, err
	}
	pIdx, err := joinKey("HashJoin", "probe", probe.Schema, j.ProbeCol)
	if err != nil {
		return nil, err
	}
	table := make(map[int64][]value.Row, len(build.Rows))
	for _, row := range build.Rows {
		k := row[bIdx].I
		table[k] = append(table[k], row)
	}
	counters.HashBuilds += int64(len(build.Rows))
	counters.HashProbes += int64(len(probe.Rows))
	outSchema := build.Schema.Concat(probe.Schema)
	var rows []value.Row
	for _, pRow := range probe.Rows {
		for _, bRow := range table[pRow[pIdx].I] {
			out := make(value.Row, 0, len(bRow)+len(pRow))
			out = append(out, bRow...)
			out = append(out, pRow...)
			rows = append(rows, out)
		}
	}
	counters.Tuples += int64(len(rows))
	return &Result{Schema: outSchema, Rows: rows}, nil
}

func (j *MergeJoin) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	left, err := ExecuteMaterialized(ctx, j.Left, counters)
	if err != nil {
		return nil, err
	}
	right, err := ExecuteMaterialized(ctx, j.Right, counters)
	if err != nil {
		return nil, err
	}
	lIdx, err := joinKey("MergeJoin", "left", left.Schema, j.LeftCol)
	if err != nil {
		return nil, err
	}
	rIdx, err := joinKey("MergeJoin", "right", right.Schema, j.RightCol)
	if err != nil {
		return nil, err
	}
	j.chargeInput(ctx, len(left.Rows), j.LeftSorted, sortedByKey(left.Rows, lIdx), counters)
	j.chargeInput(ctx, len(right.Rows), j.RightSorted, sortedByKey(right.Rows, rIdx), counters)
	outSchema := left.Schema.Concat(right.Schema)
	rows := mergeRows(left.Rows, right.Rows, lIdx, rIdx)
	counters.Tuples += int64(len(rows))
	return &Result{Schema: outSchema, Rows: rows}, nil
}

func (j *INLJoin) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	outer, err := ExecuteMaterialized(ctx, j.Outer, counters)
	if err != nil {
		return nil, err
	}
	inner, innerSchema, err := tableAndSchema(ctx, j.InnerTable)
	if err != nil {
		return nil, err
	}
	oIdx, err := joinKey("INLJoin", "outer", outer.Schema, j.OuterCol)
	if err != nil {
		return nil, err
	}
	outSchema := outer.Schema.Concat(innerSchema)
	pred, err := expr.Bind(j.Residual, outSchema)
	if err != nil {
		return nil, err
	}
	usePK := inner.Schema().PrimaryKey == j.InnerCol
	f := &rowFilter{pred: pred, b: NewBatch(outSchema)}
	innerBuf := make(value.Row, len(innerSchema.Fields))
	out := make(value.Row, 0, len(outSchema.Fields))
	emit := func(oRow value.Row, rid int) {
		inner.ReadRow(rid, innerBuf)
		out = append(append(out[:0], oRow...), innerBuf...)
		f.add(out)
	}
	if usePK {
		for _, oRow := range outer.Rows {
			counters.RandPages++
			counters.Tuples++
			if rid, ok := inner.LookupPK(oRow[oIdx].I); ok {
				emit(oRow, rid)
			}
		}
	} else {
		ix, ok := ctx.Indexes.Lookup(j.InnerTable, j.InnerCol)
		if !ok {
			return nil, fmt.Errorf("engine: INLJoin: no index on %s.%s", j.InnerTable, j.InnerCol)
		}
		for _, oRow := range outer.Rows {
			counters.IndexSeeks++
			rids, scanned := ix.Equal(oRow[oIdx].I)
			counters.IndexEntries += int64(scanned)
			counters.RandPages += int64(len(rids))
			counters.Tuples += int64(len(rids))
			for _, rid := range rids {
				emit(oRow, int(rid))
			}
		}
	}
	rows, err := f.done()
	if err != nil {
		return nil, err
	}
	counters.Tuples += int64(len(rows))
	// Keep the outer columns and the projected inner ones.
	innerEmit, err := emitOrdinals(len(innerSchema.Fields), j.InnerEmit)
	if err != nil {
		return nil, err
	}
	nOuter := len(outer.Schema.Fields)
	ords := make([]int, 0, nOuter+len(innerEmit))
	for c := range nOuter {
		ords = append(ords, c)
	}
	for _, c := range innerEmit {
		ords = append(ords, nOuter+c)
	}
	return &Result{Schema: pickFields(outSchema, ords), Rows: narrowRows(rows, ords)}, nil
}

func (j *StarSemiJoin) runMaterialized(ctx *Context, counters *cost.Counters) (*Result, error) {
	if len(j.Dims) == 0 {
		return nil, fmt.Errorf("engine: StarSemiJoin(%s) with no dimensions", j.Fact)
	}
	fact, factSchema, err := tableAndSchema(ctx, j.Fact)
	if err != nil {
		return nil, err
	}
	outSchema := factSchema
	states := make([]starDimState, len(j.Dims))
	dimRows := make([][]value.Row, len(j.Dims))
	ridLists := make([][]int32, len(j.Dims))
	for i, d := range j.Dims {
		dimRes, err := ExecuteMaterialized(ctx, d.Scan, counters)
		if err != nil {
			return nil, err
		}
		pkIdx, err := j.dimKey(i, dimRes.Schema)
		if err != nil {
			return nil, err
		}
		pks := make([]int64, len(dimRes.Rows))
		for r, row := range dimRes.Rows {
			pks[r] = row[pkIdx].I
		}
		st, rids, err := j.semijoinDim(ctx, d, fact, pks, counters)
		if err != nil {
			return nil, err
		}
		states[i], dimRows[i] = st, dimRes.Rows
		ridLists[i] = rids
		outSchema = outSchema.Concat(dimRes.Schema)
	}
	pred, err := expr.Bind(j.Residual, outSchema)
	if err != nil {
		return nil, err
	}
	surviving := index.Intersect(ridLists...)
	counters.RandPages += int64(len(surviving))
	counters.Tuples += int64(len(surviving))
	f := &rowFilter{pred: pred, b: NewBatch(outSchema)}
	factBuf := make(value.Row, len(factSchema.Fields))
	out := make(value.Row, 0, len(outSchema.Fields))
	for _, rid := range surviving {
		fact.ReadRow(int(rid), factBuf)
		out = append(out[:0], factBuf...)
		complete := true
		for i, st := range states {
			pos, ok := st.posByPK[factBuf[st.fkIdx].I]
			if !ok {
				complete = false
				break
			}
			out = append(out, dimRows[i][pos]...)
		}
		if complete {
			f.add(out)
		}
	}
	rows, err := f.done()
	if err != nil {
		return nil, err
	}
	// Keep the projected fact columns and every dimension column.
	emit, err := emitOrdinals(len(factSchema.Fields), j.FactEmit)
	if err != nil {
		return nil, err
	}
	ords := slices.Clone(emit)
	for c := len(factSchema.Fields); c < len(outSchema.Fields); c++ {
		ords = append(ords, c)
	}
	return &Result{Schema: pickFields(outSchema, ords), Rows: narrowRows(rows, ords)}, nil
}

// mergeRows joins two inputs already ordered by their integer keys,
// pairing the full equal-key groups. Output rows are left-row followed by
// right-row values.
func mergeRows(lRows, rRows []value.Row, lIdx, rIdx int) []value.Row {
	var rows []value.Row
	i, k := 0, 0
	for i < len(lRows) && k < len(rRows) {
		lk := lRows[i][lIdx].I
		rk := rRows[k][rIdx].I
		switch {
		case lk < rk:
			i++
		case lk > rk:
			k++
		default:
			// Join the full equal-key groups.
			iEnd := i
			for iEnd < len(lRows) && lRows[iEnd][lIdx].I == lk {
				iEnd++
			}
			kEnd := k
			for kEnd < len(rRows) && rRows[kEnd][rIdx].I == lk {
				kEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := k; b < kEnd; b++ {
					out := make(value.Row, 0, len(lRows[a])+len(rRows[b]))
					out = append(out, lRows[a]...)
					out = append(out, rRows[b]...)
					rows = append(rows, out)
				}
			}
			i, k = iEnd, kEnd
		}
	}
	return rows
}

// sortedByKey orders rows in place by the integer key at idx and reports
// whether it had to sort. A sorted input costs one scan and zero
// allocations; an out-of-order input is radix sorted in place — callers
// own the drained row slices.
func sortedByKey(rows []value.Row, idx int) (sorted bool) {
	inOrder := true
	for i := 1; i < len(rows) && inOrder; i++ {
		inOrder = rows[i-1][idx].I <= rows[i][idx].I
	}
	if inOrder {
		return false
	}
	keys := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = r[idx].I
	}
	// Output slot i takes input row order[i]. Follow each cycle of that
	// permutation once, marking a slot done by pointing it at itself.
	order := radixOrder(keys)
	for i := range order {
		if int(order[i]) == i {
			continue
		}
		tmp, j := rows[i], i
		for {
			k := int(order[j])
			order[j] = uint32(j)
			if k == i {
				rows[j] = tmp
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
	return true
}

// narrowRows returns each row cut down to the values at ords — how the
// materialized reference honours a projection. nil ords keeps rows whole.
func narrowRows(rows []value.Row, ords []int) []value.Row {
	if ords == nil {
		return rows
	}
	out := make([]value.Row, len(rows))
	for r, row := range rows {
		nr := make(value.Row, len(ords))
		for i, c := range ords {
			nr[i] = row[c]
		}
		out[r] = nr
	}
	return out
}

// NewBatch returns an empty batch for the schema with capacity for
// BatchSize rows per column.
func NewBatch(schema expr.RelSchema) *Batch {
	return &Batch{Schema: schema, cols: vecsFor(schema)}
}
