package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// This file preserves the pre-streaming row-at-a-time engine verbatim as a
// reference implementation. The streaming pipeline (batch.go and the
// per-operator *Op types) must produce identical rows and, on full drains,
// byte-identical cost.Counters; the equivalence tests and
// BenchmarkExecStreamVsMaterialize hold the two paths against each other.

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
	case *Exchange:
		// Exchange only changes who executes the source, never what it
		// computes; the materialized reference has no parallel analogue.
		return ExecuteMaterialized(ctx, t.Source, counters)
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
	nCols := len(schema.Fields)
	buf := make(value.Row, nCols)
	var rows []value.Row
	// Walk the surviving shards' spans; the per-span first-tuple-in-window
	// page charge sums to exactly NumPages when nothing is pruned.
	const per = storage.TuplesPerPage
	for _, sp := range scanSpans(t, s.Partitions) {
		counters.SeqPages += int64((sp.hi+per-1)/per - (sp.lo+per-1)/per)
		counters.Tuples += int64(sp.hi - sp.lo)
		for r := sp.lo; r < sp.hi; r++ {
			t.ReadRow(r, buf)
			ok, err := pred.Eval(buf)
			if err != nil {
				return nil, fmt.Errorf("engine: SeqScan(%s): %v", s.Table, err)
			}
			if ok {
				rows = append(rows, buf.Clone())
			}
		}
	}
	return &Result{Schema: schema, Rows: rows}, nil
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
	return &Result{Schema: schema, Rows: rows}, nil
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
	return &Result{Schema: schema, Rows: rows}, nil
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
	for _, r := range in.Rows {
		ok, err := pred.Eval(r)
		if err != nil {
			return nil, fmt.Errorf("engine: Filter: %v", err)
		}
		if ok {
			rows = append(rows, r)
		}
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
	argFns := make([]*expr.BoundScalar, len(a.Aggs))
	for i, spec := range a.Aggs {
		if spec.Arg == nil {
			if spec.Func != Count {
				return nil, fmt.Errorf("engine: %s requires an argument", spec.Func)
			}
			continue
		}
		argFns[i], err = expr.BindScalar(spec.Arg, in.Schema)
		if err != nil {
			return nil, fmt.Errorf("engine: Aggregate arg: %v", err)
		}
	}
	counters.Tuples += int64(len(in.Rows))
	counters.HashBuilds += int64(len(in.Rows))

	groups := make(map[string]*aggState)
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
	for _, row := range in.Rows {
		k := keyOf(row)
		st, ok := groups[k]
		if !ok {
			st = a.newAggState(groupIdxs, row)
			groups[k] = st
			order = append(order, k)
		}
		st.count++
		for i, spec := range a.Aggs {
			if spec.Func == Count && spec.Arg == nil {
				continue
			}
			v, err := argFns[i].Eval(row)
			if err != nil {
				return nil, fmt.Errorf("engine: Aggregate: %v", err)
			}
			if err := st.accumulate(i, spec.Func, v); err != nil {
				return nil, err
			}
		}
	}
	// A global aggregate over empty input still yields one row.
	if len(groupIdxs) == 0 && len(groups) == 0 {
		groups[""] = a.newAggState(groupIdxs, nil)
		order = append(order, "")
	}
	sort.Strings(order) // deterministic output order
	rows := make([]value.Row, 0, len(order))
	for _, k := range order {
		rows = append(rows, a.finalize(groups[k], len(outSchema.Fields)))
	}
	return &Result{Schema: outSchema, Rows: rows}, nil
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
			// Comparability was validated above, so the error is
			// impossible here (incomparable pairs sort as equal).
			c, _ := value.Compare(rows[a][idx], rows[b][idx])
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
	bIdx, err := build.Schema.Resolve(j.BuildCol)
	if err != nil {
		return nil, fmt.Errorf("engine: HashJoin build key: %v", err)
	}
	pIdx, err := probe.Schema.Resolve(j.ProbeCol)
	if err != nil {
		return nil, fmt.Errorf("engine: HashJoin probe key: %v", err)
	}
	table := make(map[any][]value.Row, len(build.Rows))
	for _, row := range build.Rows {
		k := row[bIdx].Key()
		table[k] = append(table[k], row)
	}
	counters.HashBuilds += int64(len(build.Rows))
	counters.HashProbes += int64(len(probe.Rows))
	outSchema := build.Schema.Concat(probe.Schema)
	var rows []value.Row
	for _, pRow := range probe.Rows {
		for _, bRow := range table[pRow[pIdx].Key()] {
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
	lIdx, err := left.Schema.Resolve(j.LeftCol)
	if err != nil {
		return nil, fmt.Errorf("engine: MergeJoin left key: %v", err)
	}
	rIdx, err := right.Schema.Resolve(j.RightCol)
	if err != nil {
		return nil, fmt.Errorf("engine: MergeJoin right key: %v", err)
	}
	lRows, err := sortedByKey(left.Rows, lIdx, j.LeftSorted)
	if err != nil {
		return nil, err
	}
	if !j.LeftSorted {
		counters.SortTuples += int64(len(lRows))
	}
	rRows, err := sortedByKey(right.Rows, rIdx, j.RightSorted)
	if err != nil {
		return nil, err
	}
	if !j.RightSorted {
		counters.SortTuples += int64(len(rRows))
	}
	counters.Tuples += int64(len(lRows) + len(rRows))
	outSchema := left.Schema.Concat(right.Schema)
	rows := mergeRows(lRows, rRows, lIdx, rIdx)
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
	oIdx, err := outer.Schema.Resolve(j.OuterCol)
	if err != nil {
		return nil, fmt.Errorf("engine: INLJoin outer key: %v", err)
	}
	outSchema := outer.Schema.Concat(innerSchema)
	pred, err := expr.Bind(j.Residual, outSchema)
	if err != nil {
		return nil, err
	}
	usePK := inner.Schema().PrimaryKey == j.InnerCol
	var rows []value.Row
	innerBuf := make(value.Row, len(innerSchema.Fields))
	emit := func(oRow value.Row, rid int) error {
		inner.ReadRow(rid, innerBuf)
		out := make(value.Row, 0, len(oRow)+len(innerBuf))
		out = append(out, oRow...)
		out = append(out, innerBuf...)
		ok, err := pred.Eval(out)
		if err != nil {
			return err
		}
		if ok {
			rows = append(rows, out)
		}
		return nil
	}
	if usePK {
		for _, oRow := range outer.Rows {
			key := oRow[oIdx]
			if !key.Numeric() {
				return nil, fmt.Errorf("engine: INLJoin over non-numeric key %s", key)
			}
			counters.RandPages++
			counters.Tuples++
			rid, ok := inner.LookupPK(key.I)
			if !ok {
				continue
			}
			if err := emit(oRow, rid); err != nil {
				return nil, err
			}
		}
	} else {
		ix, ok := ctx.Indexes.Lookup(j.InnerTable, j.InnerCol)
		if !ok {
			return nil, fmt.Errorf("engine: INLJoin: no index on %s.%s", j.InnerTable, j.InnerCol)
		}
		for _, oRow := range outer.Rows {
			key := oRow[oIdx]
			if !key.Numeric() {
				return nil, fmt.Errorf("engine: INLJoin over non-numeric key %s", key)
			}
			counters.IndexSeeks++
			rids, scanned := ix.Equal(key.I)
			counters.IndexEntries += int64(scanned)
			counters.RandPages += int64(len(rids))
			counters.Tuples += int64(len(rids))
			for _, rid := range rids {
				if err := emit(oRow, int(rid)); err != nil {
					return nil, err
				}
			}
		}
	}
	counters.Tuples += int64(len(rows))
	return &Result{Schema: outSchema, Rows: rows}, nil
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
	ridLists := make([][]int32, len(j.Dims))
	for i, d := range j.Dims {
		dimRes, err := ExecuteMaterialized(ctx, d.Scan, counters)
		if err != nil {
			return nil, err
		}
		st, rids, err := j.semijoinDim(ctx, i, d, fact, dimRes.Schema, dimRes.Rows, counters)
		if err != nil {
			return nil, err
		}
		states[i] = st
		ridLists[i] = rids
		outSchema = outSchema.Concat(dimRes.Schema)
	}
	pred, err := expr.Bind(j.Residual, outSchema)
	if err != nil {
		return nil, err
	}
	surviving := intersectSorted(ridLists)
	counters.RandPages += int64(len(surviving))
	counters.Tuples += int64(len(surviving))
	factBuf := make(value.Row, len(factSchema.Fields))
	var rows []value.Row
	for _, rid := range surviving {
		fact.ReadRow(int(rid), factBuf)
		out := make(value.Row, 0, len(outSchema.Fields))
		out = append(out, factBuf...)
		complete := true
		for _, st := range states {
			dimRow, ok := st.rowsByPK[factBuf[st.fkIdx].I]
			if !ok {
				complete = false
				break
			}
			out = append(out, dimRow...)
		}
		if !complete {
			continue
		}
		ok, err := pred.Eval(out)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, out)
		}
	}
	return &Result{Schema: outSchema, Rows: rows}, nil
}

func zeroIfInf(f float64) float64 {
	if math.IsInf(f, 0) {
		return 0
	}
	return f
}
