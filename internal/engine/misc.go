package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// Filter applies a predicate to its input's rows.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema(ctx *Context) (expr.RelSchema, error) { return f.Input.Schema(ctx) }

// Describe implements Node.
func (f *Filter) Describe() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// Stream implements Node.
func (f *Filter) Stream() Operator { return &filterOp{node: f} }

// filterOp evaluates the predicate over each input batch's column vectors
// and compacts survivors in place.
type filterOp struct {
	node     *Filter
	input    Operator
	counters *cost.Counters
	pred     *expr.Bound
	sel      []int
}

func (o *filterOp) Open(ctx *Context, counters *cost.Counters) error {
	schema, err := o.node.Input.Schema(ctx)
	if err != nil {
		return err
	}
	pred, err := expr.Bind(o.node.Pred, schema)
	if err != nil {
		return err
	}
	o.input = o.node.Input.Stream()
	if err := o.input.Open(ctx, counters); err != nil {
		return err
	}
	o.counters, o.pred = counters, pred
	return nil
}

// Next gathers the child batch down to the rows passing the predicate,
// in place — no batch of its own, no copies.
//
//qo:hotpath
func (o *filterOp) Next() (*Batch, error) {
	for {
		b, err := o.input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.counters.Tuples += int64(b.Len())
		o.sel = storage.RangeSel(o.sel, 0, b.Len())
		keep, err := o.pred.EvalBatch(b.Cols(), o.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: Filter: %v", err)
		}
		b.Gather(keep)
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (o *filterOp) Close() {
	if o.input != nil {
		o.input.Close()
	}
}

// Project narrows the input to the named columns, in order.
type Project struct {
	Input Node
	Cols  []expr.ColumnRef
}

// Schema implements Node.
func (p *Project) Schema(ctx *Context) (expr.RelSchema, error) {
	in, err := p.Input.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	fields := make([]expr.Field, len(p.Cols))
	for i, c := range p.Cols {
		idx, err := in.Resolve(c)
		if err != nil {
			return expr.RelSchema{}, fmt.Errorf("engine: Project: %v", err)
		}
		fields[i] = in.Fields[idx]
	}
	return expr.RelSchema{Fields: fields}, nil
}

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = c.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Stream implements Node.
func (p *Project) Stream() Operator { return &projectOp{node: p} }

// projectOp re-exposes a subset of the input's column vectors without
// copying. When the projection repeats a column it copies instead, so a
// downstream Gather cannot compact the shared backing slice twice.
type projectOp struct {
	node     *Project
	input    Operator
	counters *cost.Counters
	idxs     []int
	dup      bool
	view     Batch  // aliasing header over the input batch
	out      *Batch // owned storage, used only when dup
}

func (o *projectOp) Open(ctx *Context, counters *cost.Counters) error {
	in, err := o.node.Input.Schema(ctx)
	if err != nil {
		return err
	}
	idxs := make([]int, len(o.node.Cols))
	fields := make([]expr.Field, len(o.node.Cols))
	seen := make(map[int]bool, len(o.node.Cols))
	dup := false
	for i, c := range o.node.Cols {
		idx, err := in.Resolve(c)
		if err != nil {
			return fmt.Errorf("engine: Project: %v", err)
		}
		idxs[i] = idx
		fields[i] = in.Fields[idx]
		if seen[idx] {
			dup = true
		}
		seen[idx] = true
	}
	o.input = o.node.Input.Stream()
	if err := o.input.Open(ctx, counters); err != nil {
		return err
	}
	o.counters, o.idxs, o.dup = counters, idxs, dup
	schema := expr.RelSchema{Fields: fields}
	if dup {
		o.out = getBatch(schema)
	} else {
		o.view = Batch{Schema: schema, cols: make([]value.Vec, len(idxs))}
	}
	return nil
}

func (o *projectOp) Next() (*Batch, error) {
	b, err := o.input.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	o.counters.Tuples += int64(b.Len())
	if !o.dup {
		for i, idx := range o.idxs {
			o.view.cols[i] = b.cols[idx]
		}
		o.view.n = b.Len()
		return &o.view, nil
	}
	o.out.Reset()
	for i, idx := range o.idxs {
		o.out.cols[i].AppendVec(&b.cols[idx])
	}
	o.out.n = b.Len()
	return o.out, nil
}

func (o *projectOp) Close() {
	if o.input != nil {
		o.input.Close()
	}
	putBatch(o.out)
	o.out = nil
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate output: Func applied to the scalar Arg
// (ignored for COUNT, which may leave Arg nil).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // scalar; nil allowed for Count
	As   string    // output column name
}

// Aggregate computes hash-grouped aggregates. With no GroupBy columns it
// produces a single row of grand totals (even over empty input, matching
// SQL semantics for COUNT/SUM over empty sets: COUNT = 0, others NaN-free
// zero values).
type Aggregate struct {
	Input   Node
	GroupBy []expr.ColumnRef
	Aggs    []AggSpec
}

// Schema implements Node.
func (a *Aggregate) Schema(ctx *Context) (expr.RelSchema, error) {
	in, err := a.Input.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	return a.outSchema(in)
}

func (a *Aggregate) outSchema(in expr.RelSchema) (expr.RelSchema, error) {
	var fields []expr.Field
	for _, g := range a.GroupBy {
		idx, err := in.Resolve(g)
		if err != nil {
			return expr.RelSchema{}, fmt.Errorf("engine: Aggregate group key: %v", err)
		}
		fields = append(fields, in.Fields[idx])
	}
	for i, spec := range a.Aggs {
		name := spec.As
		if name == "" {
			name = fmt.Sprintf("%s_%d", strings.ToLower(spec.Func.String()), i)
		}
		typ := catalog.Float
		if spec.Func == Count {
			typ = catalog.Int
		}
		fields = append(fields, expr.Field{Column: name, Type: typ})
	}
	return expr.RelSchema{Fields: fields}, nil
}

// Describe implements Node.
func (a *Aggregate) Describe() string {
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg != nil {
			parts[i] = fmt.Sprintf("%s(%s)", s.Func, s.Arg)
		} else {
			parts[i] = fmt.Sprintf("%s(*)", s.Func)
		}
	}
	d := "Aggregate(" + strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		keys := make([]string, len(a.GroupBy))
		for i, g := range a.GroupBy {
			keys[i] = g.String()
		}
		d += " BY " + strings.Join(keys, ", ")
	}
	return d + ")"
}

// aggState is one group's running aggregates. SUM and AVG add exactly
// (value.ExactSum) and round once, at finalize, so the result is the
// float64 nearest the true sum whatever the order of the rows or the
// states merged. MIN and MAX start at NaN, which the first value folded
// replaces, and then skip NaN: they keep the first of equal values
// (f < m || m != m), so merging states in row order keeps it too, and
// stay NaN only when every value folded was NaN.
type aggState struct {
	count int64
	aggs  []aggAcc // one per aggregate
}

// aggAcc is one aggregate's running values; finalize reads the ones its
// function needs.
type aggAcc struct {
	sum      value.ExactSum
	min, max float64
	count    int64 // the argument values folded (for AVG)
}

// newAggState returns an empty state for one group, or for the grand
// total.
func (a *Aggregate) newAggState() *aggState {
	st := &aggState{aggs: make([]aggAcc, len(a.Aggs))}
	st.reset()
	return st
}

// reset empties a state: no rows, and MIN and MAX at NaN.
func (st *aggState) reset() {
	st.count = 0
	for i := range st.aggs {
		acc := &st.aggs[i]
		acc.sum.Reset()
		acc.min, acc.max, acc.count = math.NaN(), math.NaN(), 0
	}
}

// finalize appends one group's aggregates to out, one typed vector per
// aggregate: an Int count, or a Float.
func (a *Aggregate) finalize(st *aggState, out []value.Vec) {
	for i, spec := range a.Aggs {
		acc, v := &st.aggs[i], &out[i]
		switch spec.Func {
		case Count:
			if spec.Arg == nil {
				v.I = append(v.I, st.count)
			} else {
				v.I = append(v.I, acc.count)
			}
		case Sum:
			v.F = append(v.F, acc.sum.Float64())
		case Min:
			v.F = append(v.F, acc.orZero(acc.min))
		case Max:
			v.F = append(v.F, acc.orZero(acc.max))
		case Avg:
			v.F = append(v.F, acc.orZero(acc.sum.Float64()/float64(acc.count)))
		}
	}
}

// orZero is f, or 0 when no argument value was folded.
func (acc *aggAcc) orZero(f float64) float64 {
	if acc.count == 0 {
		return 0
	}
	return f
}

// Stream implements Node.
func (a *Aggregate) Stream() Operator { return &aggregateOp{node: a} }

// aggregateOp is a pipeline breaker: it consumes its whole input at Open,
// evaluating aggregate arguments a column vector at a time, and emits the
// grouped output in batches.
type aggregateOp struct {
	node *Aggregate
	emitter
}

func (o *aggregateOp) Open(ctx *Context, counters *cost.Counters) error {
	a := o.node
	if len(a.Aggs) == 0 && len(a.GroupBy) == 0 {
		return fmt.Errorf("engine: Aggregate with no aggregates and no group keys")
	}
	inSchema, err := a.Input.Schema(ctx)
	if err != nil {
		return err
	}
	outSchema, err := a.outSchema(inSchema)
	if err != nil {
		return err
	}
	groupIdxs := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groupIdxs[i], err = inSchema.Resolve(g)
		if err != nil {
			return fmt.Errorf("engine: Aggregate group key: %v", err)
		}
	}
	args := make([]*expr.BoundScalar, len(a.Aggs))
	for i, spec := range a.Aggs {
		if spec.Arg == nil {
			if spec.Func != Count {
				return fmt.Errorf("engine: %s requires an argument", spec.Func)
			}
			continue
		}
		if args[i], err = expr.BindScalar(spec.Arg, inSchema); err != nil {
			return fmt.Errorf("engine: Aggregate arg: %v", err)
		}
	}

	o.src, o.out = getBatch(outSchema), getBatch(outSchema)
	if f := newAggFold(a, inSchema); f != nil {
		input := foldStream(a.Input, f)
		defer input.Close()
		if err := input.Open(ctx, counters); err != nil {
			return err
		}
		if _, _, err := input.drainFold(); err != nil {
			return err
		}
		a.finalize(f.st, o.src.cols)
		o.perm = firstRow
		return nil
	}

	input := a.Input.Stream()
	defer input.Close()
	if err := input.Open(ctx, counters); err != nil {
		return err
	}

	g := newAggGroups(a, groupIdxs, inSchema)
	defer g.release()
	var sts []*aggState
	vecs := make([]*value.Vec, len(a.Aggs))
	for {
		b, err := input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		counters.Tuples += int64(n)
		counters.HashBuilds += int64(n)
		if n == 0 {
			continue
		}
		cols := b.Cols()
		for i, x := range args {
			if x != nil {
				if vecs[i], err = x.EvalBatch(cols, g.identity(n)); err != nil {
					return fmt.Errorf("engine: Aggregate: %v", err)
				}
			}
		}
		// A vector's kind is the kind of every row, so the first
		// aggregate over a String argument fails at row 0, as a
		// row-major fold would.
		for i, v := range vecs {
			if v != nil && v.Kind == catalog.String {
				return fmt.Errorf("engine: %s over non-numeric value %s", a.Aggs[i].Func, v.At(0))
			}
		}
		if g.global == nil {
			sts = g.resolve(b, sts)
		}
		g.fold(vecs, n, sts)
	}
	o.perm = g.finish(o.src.cols)
	return nil
}

// aggGroups maps input rows to their groups' states in one of three
// ways, chosen by the GROUP BY: one global state; states keyed by the
// int64 payload of a single Int or Date key column; or, for any other
// shape, states keyed by the NUL-terminated String() forms of the group
// values. Every argument folds from its typed payload: into the global
// state through foldPayload, the fused path's kernel, and into each
// row's group state through foldGroups.
type aggGroups struct {
	a         *Aggregate
	groupIdxs []int
	global    *aggState
	ints      map[int64]*aggState
	strs      map[string]*aggState
	// states lists the groups in creation order; keys[c] holds group key
	// c of each, and strKeys the string key of each, in the same order.
	states  []*aggState
	keys    []value.Vec
	strKeys []string
	// fresh are the rows of the batch being resolved that opened a group.
	fresh []int32
	// bins is the global state's SUM scratch and sel a batch's identity
	// selection (identity).
	bins *value.SumBins
	sel  []int
	// keyBuf holds one row's string key; a lookup by string(keyBuf) does
	// not allocate, so only a new group's key is ever copied out.
	keyBuf []byte
}

func newAggGroups(a *Aggregate, groupIdxs []int, in expr.RelSchema) *aggGroups {
	g := &aggGroups{a: a, groupIdxs: groupIdxs, keys: vecsFor(pickFields(in, groupIdxs))}
	switch {
	case len(groupIdxs) == 0:
		g.global = a.newAggState()
		g.bins = sumBins.Get().(*value.SumBins)
	case len(groupIdxs) == 1 && isIntKind(in.Fields[groupIdxs[0]].Type):
		g.ints = make(map[int64]*aggState)
	default:
		g.strs = make(map[string]*aggState)
	}
	return g
}

// release returns the SUM scratch to its pool.
func (g *aggGroups) release() {
	if g.bins != nil {
		sumBins.Put(g.bins)
		g.bins = nil
	}
}

// resolve fills sts with the state of each row of b, creating states for
// new groups. A single Int or Date key is read from its payload. A new
// group takes only its key columns: the rows that opened groups are
// gathered into keys once the batch is resolved, one column at a time.
//
//qo:hotpath
func (g *aggGroups) resolve(b *Batch, sts []*aggState) []*aggState {
	sts, g.fresh = sts[:0], g.fresh[:0]
	cols := b.Cols()
	if g.ints != nil {
		for r, k := range cols[g.groupIdxs[0]].I[:b.Len()] {
			st := g.ints[k]
			if st == nil {
				g.keyBuf = append(value.AppendKey(g.keyBuf[:0], cols[g.groupIdxs[0]].At(r)), 0)
				st = g.open(r)
				g.ints[k] = st
			}
			sts = append(sts, st)
		}
	} else {
		for r := 0; r < b.Len(); r++ {
			g.keyBuf = g.keyBuf[:0]
			for _, gi := range g.groupIdxs {
				g.keyBuf = append(value.AppendKey(g.keyBuf, cols[gi].At(r)), 0)
			}
			st, ok := g.strs[string(g.keyBuf)]
			if !ok {
				st = g.open(r)
				g.strs[g.strKeys[len(g.strKeys)-1]] = st
			}
			sts = append(sts, st)
		}
	}
	for c, gi := range g.groupIdxs {
		//qo:alloc-ok amortized growth, once per group
		value.AppendSel(&g.keys[c], &cols[gi], g.fresh)
	}
	return sts
}

// open creates the state of a group first seen at row r of the batch
// being resolved, whose string key is in keyBuf.
func (g *aggGroups) open(r int) *aggState {
	st := g.a.newAggState()
	g.states = append(g.states, st)
	g.strKeys = append(g.strKeys, string(g.keyBuf))
	g.fresh = append(g.fresh, int32(r))
	return st
}

// identity returns the selection of a batch's n rows, 0 to n-1, rewriting
// it only when n changes.
func (g *aggGroups) identity(n int) []int {
	if len(g.sel) != n {
		g.sel = storage.RangeSel(g.sel, 0, n)
	}
	return g.sel
}

// fold counts a batch's n rows and folds each aggregate's argument
// vector, vecs[i] (nil for COUNT(*)), into the states of its rows: all
// into the global state through foldPayload, or row r into sts[r]
// through foldGroups. Each state sees its rows in row order.
//
//qo:hotpath
func (g *aggGroups) fold(vecs []*value.Vec, n int, sts []*aggState) {
	if st := g.global; st != nil {
		st.count += int64(n)
		for i, v := range vecs {
			if v == nil {
				continue
			}
			c := colFold{st: st, i: i, fn: g.a.Aggs[i].Func, bins: g.bins}
			if v.Kind == catalog.Float {
				foldPayload(&c, v.F, 0, g.identity(n))
			} else {
				foldPayload(&c, v.I, 0, g.identity(n))
			}
		}
		return
	}
	for _, st := range sts {
		st.count++
	}
	for i, v := range vecs {
		if v == nil {
			continue
		}
		if v.Kind == catalog.Float {
			foldGroups(sts, i, g.a.Aggs[i].Func, v.F[:n])
		} else {
			foldGroups(sts, i, g.a.Aggs[i].Func, v.I[:n])
		}
	}
}

// foldGroups folds xs[r] into aggregate i of sts[r] for every row r, with
// foldPayload's arithmetic: the same exact additions and the same
// f < m || m != m tests on float64(x) (not the min and max builtins,
// which differ on NaN and -0).
//
//qo:hotpath
func foldGroups[T int64 | float64](sts []*aggState, i int, fn AggFunc, xs []T) {
	for r, x := range xs {
		acc, f := &sts[r].aggs[i], float64(x)
		switch fn {
		case Sum, Avg:
			acc.sum.Add(f)
		case Min:
			if f < acc.min || acc.min != acc.min {
				acc.min = f
			}
		case Max:
			if f > acc.max || acc.max != acc.max {
				acc.max = f
			}
		}
		acc.count++
	}
}

// firstRow is the emit order of a global aggregate's one output row.
var firstRow = []int32{0}

// finish writes every group's output row into cols, empty vectors of the
// output schema — the group keys, then one vector per aggregate — in
// creation order, and returns the order to emit them in: by the groups'
// string keys.
func (g *aggGroups) finish(cols []value.Vec) []int32 {
	if g.global != nil {
		g.a.finalize(g.global, cols)
		return firstRow
	}
	copy(cols, g.keys)
	for _, st := range g.states {
		g.a.finalize(st, cols[len(g.keys):])
	}
	perm := make([]int32, len(g.states))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int { return strings.Compare(g.strKeys[x], g.strKeys[y]) })
	return perm
}
