package engine

import (
	"fmt"
	"sort"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// HashJoin builds a hash table over the Build input keyed by BuildCol and
// probes it with the Probe input on ProbeCol. Output rows are build-row
// followed by probe-row values.
type HashJoin struct {
	Build    Node
	Probe    Node
	BuildCol expr.ColumnRef
	ProbeCol expr.ColumnRef
}

// Schema implements Node.
func (j *HashJoin) Schema(ctx *Context) (expr.RelSchema, error) {
	ls, err := j.Build.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	rs, err := j.Probe.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	return ls.Concat(rs), nil
}

// Describe implements Node.
func (j *HashJoin) Describe() string {
	return fmt.Sprintf("HashJoin(%s = %s)", j.BuildCol, j.ProbeCol)
}

// Stream implements Node.
func (j *HashJoin) Stream() Operator { return &hashJoinOp{node: j} }

// joinKeyError is the one error every join operator returns at Open for
// a key column that is not Int or Date: joins match on the int64 payload,
// which no other type carries.
type joinKeyError struct {
	op, role string
	col      expr.Field
}

func (e *joinKeyError) Error() string {
	return fmt.Sprintf("engine: %s %s key %s.%s is %s; join keys must be INT or DATE",
		e.op, e.role, e.col.Table, e.col.Column, e.col.Type)
}

// joinKey resolves the key ref of join operator op in its input schema
// and holds it to the one key rule: an Int or Date column. role names
// the key among the operator's.
func joinKey(op, role string, schema expr.RelSchema, ref expr.ColumnRef) (int, error) {
	idx, err := schema.Resolve(ref)
	if err != nil {
		return 0, fmt.Errorf("engine: %s %s key: %v", op, role, err)
	}
	if f := schema.Fields[idx]; !isIntKind(f.Type) {
		return 0, &joinKeyError{op: op, role: role, col: f}
	}
	return idx, nil
}

// hashJoinOp builds at Open (the build is inherently blocking) and then
// streams the probe side, emitting matches a probe batch at a time. The
// probe is any operator, an Exchange over a parallel scan included.
type hashJoinOp struct {
	node     *HashJoin
	counters *cost.Counters
	probe    Operator
	// build is the drained build side, table the hash table over its key
	// column, and pIdx the probe key's ordinal in the probe schema.
	build []value.Vec
	table *joinTable
	pIdx  int
	// bpos and ppos are scratch: the (build, probe) positions of one probe
	// batch's matches.
	bpos, ppos []int32
	out        *Batch
}

// Open resolves and checks both keys, drains the build side into typed
// vectors, builds the table over its key vector and charges HashBuilds,
// all before the probe side opens.
func (o *hashJoinOp) Open(ctx *Context, counters *cost.Counters) error {
	j := o.node
	buildSchema, err := j.Build.Schema(ctx)
	if err != nil {
		return err
	}
	probeSchema, err := j.Probe.Schema(ctx)
	if err != nil {
		return err
	}
	bIdx, err := joinKey("HashJoin", "build", buildSchema, j.BuildCol)
	if err != nil {
		return err
	}
	if o.pIdx, err = joinKey("HashJoin", "probe", probeSchema, j.ProbeCol); err != nil {
		return err
	}
	build, n, err := drainVecs(ctx, j.Build, buildSchema, counters)
	if err != nil {
		return err
	}
	table := buildJoinTable(build[bIdx].I)
	if ctx.Metrics != nil {
		ctx.Metrics.Counter("robustqo_hashjoin_builds_total").Inc()
		if table.dense() {
			ctx.Metrics.Counter("robustqo_hashjoin_dense_builds_total").Inc()
		}
	}
	counters.HashBuilds += int64(n)
	o.build, o.table, o.counters = build, table, counters
	o.probe = j.Probe.Stream()
	if err := o.probe.Open(ctx, counters); err != nil {
		return err
	}
	o.out = getBatch(buildSchema.Concat(probeSchema))
	return nil
}

// Next probes the table with each surviving probe batch.
//
//qo:hotpath
func (o *hashJoinOp) Next() (*Batch, error) {
	for {
		b, err := o.probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.out.Reset()
		o.probeInto(b)
		if o.out.Len() > 0 {
			return o.out, nil
		}
	}
}

// probeInto joins every row of the probe batch b against the table,
// appending matches to o.out: one HashProbes per probe row, one Tuples
// per match, each key's build rows in build-input order. The probe walks
// b's key vector in one loop per table mode, chosen once per batch, and
// collects the matches as position pairs in o.bpos and o.ppos; the output
// columns are gathered from them, one typed loop a column
// (value.AppendSel, the merge join's gather).
//
//qo:hotpath
func (o *hashJoinOp) probeInto(b *Batch) {
	o.counters.HashProbes += int64(b.Len())
	t, keys := o.table, b.cols[o.pIdx].I[:b.Len()]
	bpos, ppos := o.bpos[:0], o.ppos[:0]
	if heads := t.heads; heads != nil {
		lo := uint64(t.lo)
		for r, k := range keys {
			if d := uint64(k) - lo; d < uint64(len(heads)) {
				for idx := heads[d]; idx >= 0; idx = t.next[idx] {
					bpos = append(bpos, idx)
					ppos = append(ppos, int32(r))
				}
			}
		}
	} else {
		for r, k := range keys {
			for idx := t.first(k); idx >= 0; idx = t.next[idx] {
				bpos = append(bpos, idx)
				ppos = append(ppos, int32(r))
			}
		}
	}
	o.counters.Tuples += int64(len(bpos))
	out := o.out
	for c := range o.build {
		value.AppendSel(&out.cols[c], &o.build[c], bpos)
	}
	for c := range b.cols {
		value.AppendSel(&out.cols[len(o.build)+c], &b.cols[c], ppos)
	}
	out.n += len(bpos)
	o.bpos, o.ppos = bpos, ppos
}

func (o *hashJoinOp) Close() {
	if o.probe != nil {
		o.probe.Close()
	}
	putBatch(o.out)
	o.out = nil
}

// MergeJoin sort-merges its inputs on Int or Date join keys. Inputs
// already ordered by their key (e.g. clustered primary-key order) should
// set LeftSorted/RightSorted to avoid the sort charge.
type MergeJoin struct {
	Left, Right             Node
	LeftCol, RightCol       expr.ColumnRef
	LeftSorted, RightSorted bool
}

// Schema implements Node.
func (j *MergeJoin) Schema(ctx *Context) (expr.RelSchema, error) {
	ls, err := j.Left.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	rs, err := j.Right.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	return ls.Concat(rs), nil
}

// Describe implements Node.
func (j *MergeJoin) Describe() string {
	return fmt.Sprintf("MergeJoin(%s = %s)", j.LeftCol, j.RightCol)
}

// Stream implements Node.
func (j *MergeJoin) Stream() Operator { return &mergeJoinOp{node: j} }

// mergeJoinOp is a pipeline breaker on both sides: it drains both inputs
// into typed vectors and sorts them by key at Open, then merges
// incrementally as batches are pulled — each pull collects up to
// BatchSize (left, right) sorted positions and gathers the output columns
// from them into the pooled output batch, and the tuple charge lands only
// as rows are actually pulled.
//
// Merge cursor state between pulls, in sorted positions: [i, iEnd) x
// [k, kEnd) is the current equal-key group, and (a, b) is the next pair
// to emit within it.
type mergeJoinOp struct {
	node        *MergeJoin
	counters    *cost.Counters
	left, right *mergeInput
	i, k        int
	iEnd, kEnd  int
	a, b        int
	// lpos and rpos are the sorted positions of one output batch's pairs.
	lpos, rpos []int32
	out        *Batch
}

func (o *mergeJoinOp) Open(ctx *Context, counters *cost.Counters) error {
	j := o.node
	lSchema, err := j.Left.Schema(ctx)
	if err != nil {
		return err
	}
	rSchema, err := j.Right.Schema(ctx)
	if err != nil {
		return err
	}
	lIdx, err := joinKey("MergeJoin", "left", lSchema, j.LeftCol)
	if err != nil {
		return err
	}
	rIdx, err := joinKey("MergeJoin", "right", rSchema, j.RightCol)
	if err != nil {
		return err
	}
	if o.left, err = drainMergeInput(ctx, j.Left, lSchema, lIdx, counters); err != nil {
		return err
	}
	if o.right, err = drainMergeInput(ctx, j.Right, rSchema, rIdx, counters); err != nil {
		return err
	}
	j.chargeInput(ctx, len(o.left.keys), j.LeftSorted, o.left.sort(), counters)
	j.chargeInput(ctx, len(o.right.keys), j.RightSorted, o.right.sort(), counters)
	o.counters = counters
	o.lpos = make([]int32, 0, BatchSize)
	o.rpos = make([]int32, 0, BatchSize)
	o.out = getBatch(lSchema.Concat(rSchema))
	return nil
}

// Next collects the sorted groups' cross products, in left-major order,
// as position pairs and gathers them into the pooled batch.
//
//qo:hotpath
func (o *mergeJoinOp) Next() (*Batch, error) {
	lk, rk := o.left.keys, o.right.keys
	lpos, rpos := o.lpos[:0], o.rpos[:0]
	for len(lpos) < BatchSize {
		if o.a < o.iEnd {
			// Emit the rest of left row a's run through the current
			// group, as far as the batch has room.
			end := min(o.kEnd, o.b+BatchSize-len(lpos))
			for b := o.b; b < end; b++ {
				lpos = append(lpos, int32(o.a))
				rpos = append(rpos, int32(b))
			}
			if o.b = end; o.b == o.kEnd {
				o.b = o.k
				o.a++
			}
			continue
		}
		// Current group exhausted: advance both cursors past it and find
		// the next key match.
		o.i, o.k = o.iEnd, o.kEnd
		found := false
		for o.i < len(lk) && o.k < len(rk) {
			key := lk[o.i]
			if key < rk[o.k] {
				o.i++
				continue
			}
			if key > rk[o.k] {
				o.k++
				continue
			}
			o.iEnd = o.i + 1
			for o.iEnd < len(lk) && lk[o.iEnd] == key {
				o.iEnd++
			}
			o.kEnd = o.k + 1
			for o.kEnd < len(rk) && rk[o.kEnd] == key {
				o.kEnd++
			}
			o.a, o.b = o.i, o.k
			found = true
			break
		}
		if !found {
			// No further matches: park every cursor at the scan position so
			// the emit branch stays dead on later pulls.
			o.iEnd, o.kEnd = o.i, o.k
			o.a, o.b = o.i, o.k
			break
		}
	}
	o.lpos, o.rpos = lpos, rpos
	if len(lpos) == 0 {
		return nil, nil
	}
	o.counters.Tuples += int64(len(lpos))
	o.out.Reset()
	o.left.gather(o.out, 0, lpos)
	o.right.gather(o.out, len(o.left.cols), rpos)
	o.out.n = len(lpos)
	return o.out, nil
}

func (o *mergeJoinOp) Close() {
	putBatch(o.out)
	o.out = nil
	o.left, o.right = nil, nil
}

// chargeInput charges one drained, sorted input of n rows as the plan
// declared it — both engines call it: Tuples for every row, and
// SortTuples for every row unless the input is marked sorted. An input
// marked sorted that arrived out of order (sorted reports that it had to
// be sorted) still gets sorted, so results stay correct, but the cost
// model priced that sort at zero; robustqo_mergejoin_unsorted_input_total
// counts each such input.
func (j *MergeJoin) chargeInput(ctx *Context, n int, declared, sorted bool, counters *cost.Counters) {
	counters.Tuples += int64(n)
	if !declared {
		counters.SortTuples += int64(n)
	} else if sorted && ctx.Metrics != nil {
		ctx.Metrics.Counter("robustqo_mergejoin_unsorted_input_total").Inc()
	}
}

// radixOrder stably sorts keys ascending in place and returns the
// permutation it applied: sorted position i held input keys[order[i]].
// Keys spanning at most twice as many values as there are keys (hi−lo <
// 2n) — dense foreign keys, even filtered to half their rows — take one
// stable counting pass over the span. Any others take an LSD
// radix sort of (key, position) pairs on 8-bit digits of the key with its
// sign bit flipped, so unsigned digit order is signed key order — the
// keys stay put and the positions ping-pong between two uint32 buffers —
// that skips every byte on which all keys agree, and the keys are then
// permuted once, in place. Each pass is a stable counting sort, so equal
// keys keep their input order: the order sort.SliceStable gives. Both
// merge-join engines sort through it.
func radixOrder(keys []int64) []uint32 {
	if len(keys) == 0 {
		return nil
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	if span := uint64(hi) - uint64(lo); span < 2*uint64(len(keys)) {
		return countingOrder(keys, lo, int(span)+1)
	}
	src, dst := make([]uint32, len(keys)), make([]uint32, len(keys))
	const sign = 1 << 63
	var diff uint64
	for i, k := range keys {
		src[i] = uint32(i)
		diff |= uint64(k ^ keys[0])
	}
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		counts = [256]int{}
		for _, k := range keys {
			counts[byte((uint64(k)^sign)>>shift)]++
		}
		sum := 0
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, p := range src {
			d := byte((uint64(keys[p]) ^ sign) >> shift)
			dst[counts[d]] = p
			counts[d]++
		}
		src, dst = dst, src
	}
	// Sorted slot i takes input key src[i]. Follow each cycle of that
	// permutation once, in a copy that marks a slot done by pointing it
	// at itself.
	copy(dst, src)
	for i := range dst {
		if int(dst[i]) == i {
			continue
		}
		tmp, j := keys[i], i
		for {
			k := int(dst[j])
			dst[j] = uint32(j)
			if k == i {
				keys[j] = tmp
				break
			}
			keys[j] = keys[k]
			j = k
		}
	}
	return src
}

// countingOrder is radixOrder for keys taking span values from lo on:
// one stable counting sort, then the keys rewritten in order from the
// counts.
func countingOrder(keys []int64, lo int64, span int) []uint32 {
	next := make([]uint32, span)
	for _, k := range keys {
		next[k-lo]++
	}
	sum := uint32(0)
	for v, c := range next {
		next[v] = sum
		sum += c
	}
	order := make([]uint32, len(keys))
	for i, k := range keys {
		order[next[k-lo]] = uint32(i)
		next[k-lo]++
	}
	// next[v] is now the end of value v's run.
	i := 0
	for v, end := range next {
		for ; i < int(end); i++ {
			keys[i] = lo + int64(v)
		}
	}
	return order
}

// INLJoin is an indexed nested-loop join: for every outer row it probes an
// access path on the inner table. Two probe modes are supported, chosen by
// the inner column:
//
//   - inner primary key: one clustered lookup (one random page) per probe;
//   - inner secondary index: an index seek plus one random page per match.
//
// Output rows are outer-row followed by inner-row values.
type INLJoin struct {
	Outer      Node
	OuterCol   expr.ColumnRef
	InnerTable string
	InnerCol   string    // join column of the inner table
	Residual   expr.Expr // evaluated over the combined row
	// InnerEmit, when non-nil, lists the inner table ordinals the join
	// outputs after the outer row's values; the residual may read others.
	// nil outputs every inner column. PruneColumns sets it.
	InnerEmit []int
}

// Schema implements Node.
func (j *INLJoin) Schema(ctx *Context) (expr.RelSchema, error) {
	os, err := j.Outer.Schema(ctx)
	if err != nil {
		return expr.RelSchema{}, err
	}
	is, err := emitSchema(ctx, j.InnerTable, j.InnerEmit)
	if err != nil {
		return expr.RelSchema{}, err
	}
	return os.Concat(is), nil
}

// Describe implements Node.
func (j *INLJoin) Describe() string {
	d := fmt.Sprintf("INLJoin(%s = %s.%s)", j.OuterCol, j.InnerTable, j.InnerCol)
	if j.Residual != nil {
		d += " residual=" + j.Residual.String()
	}
	return d
}

// Stream implements Node.
func (j *INLJoin) Stream() Operator { return &inlJoinOp{node: j} }

// inlJoinOp streams its outer input, probing the inner access path for
// each row of an outer batch and collecting the matches as (outer
// position, inner RID) pairs. Whenever BatchSize pairs are pending it
// gathers them into combined rows and filters those by the residual, so
// the output batch holds at most one outer row's fanout beyond BatchSize
// unfiltered rows. Nothing else is buffered, so a LIMIT above stops both
// the outer scan and the inner probes early.
//
// The combined rows are built in wide: the outer row, the projected inner
// columns, then the inner columns only the residual reads. out is the
// view of wide's projected prefix that Next hands up.
type inlJoinOp struct {
	node     *INLJoin
	counters *cost.Counters
	outer    Operator
	inner    *storage.Table
	pred     *expr.Bound
	oIdx     int
	usePK    bool
	ix       *index.Index
	// innerRead are the inner table ordinals each probe fetches.
	innerRead []int
	// opos and rids are the pending matches: outer position, inner RID.
	opos, rids []int32
	sel        []int
	wide       *Batch
	out        Batch
}

func (o *inlJoinOp) Open(ctx *Context, counters *cost.Counters) error {
	j := o.node
	outerSchema, err := j.Outer.Schema(ctx)
	if err != nil {
		return err
	}
	inner, innerFull, err := tableAndSchema(ctx, j.InnerTable)
	if err != nil {
		return err
	}
	if o.oIdx, err = joinKey("INLJoin", "outer", outerSchema, j.OuterCol); err != nil {
		return err
	}
	emit, err := emitOrdinals(len(innerFull.Fields), j.InnerEmit)
	if err != nil {
		return err
	}
	o.innerRead = withReads(emit, innerFull, expr.Columns(j.Residual))
	wideSchema := outerSchema.Concat(pickFields(innerFull, o.innerRead))
	o.pred, err = expr.Bind(j.Residual, wideSchema)
	if err != nil {
		return err
	}
	o.usePK = inner.Schema().PrimaryKey == j.InnerCol
	if !o.usePK {
		ix, ok := ctx.Indexes.Lookup(j.InnerTable, j.InnerCol)
		if !ok {
			return fmt.Errorf("engine: INLJoin: no index on %s.%s", j.InnerTable, j.InnerCol)
		}
		o.ix = ix
	}
	o.inner = inner
	o.counters = counters
	o.outer = j.Outer.Stream()
	if err := o.outer.Open(ctx, counters); err != nil {
		return err
	}
	o.opos = make([]int32, 0, BatchSize)
	o.rids = make([]int32, 0, BatchSize)
	o.wide = getBatch(wideSchema)
	width := len(outerSchema.Fields) + len(emit)
	o.out = Batch{Schema: expr.RelSchema{Fields: wideSchema.Fields[:width]}, cols: o.wide.cols[:width]}
	return nil
}

// Next probes for every row of the next outer batch, filtering the
// combined rows by the residual a window at a time, and charges one tuple
// per survivor.
//
//qo:hotpath
func (o *inlJoinOp) Next() (*Batch, error) {
	for {
		b, err := o.outer.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.wide.Reset()
		for r, key := range b.cols[o.oIdx].I[:b.Len()] {
			if len(o.rids) >= BatchSize {
				if err := o.flush(b); err != nil {
					return nil, err
				}
			}
			if o.usePK {
				o.counters.RandPages++
				o.counters.Tuples++
				if rid, ok := o.inner.LookupPK(key); ok {
					o.opos = append(o.opos, int32(r))
					o.rids = append(o.rids, int32(rid))
				}
				continue
			}
			o.counters.IndexSeeks++
			rids, scanned := o.ix.Equal(key)
			o.counters.IndexEntries += int64(scanned)
			o.counters.RandPages += int64(len(rids))
			o.counters.Tuples += int64(len(rids))
			for range rids {
				//qo:alloc-ok amortized growth past BatchSize by one outer row's fanout
				o.opos = append(o.opos, int32(r))
			}
			//qo:alloc-ok amortized growth past BatchSize by one outer row's fanout
			o.rids = append(o.rids, rids...)
		}
		if err := o.flush(b); err != nil {
			return nil, err
		}
		o.counters.Tuples += int64(o.wide.Len())
		if o.wide.Len() > 0 {
			o.out.n = o.wide.Len()
			return &o.out, nil
		}
	}
}

// flush appends the pending matches to wide as combined rows, one typed
// gather a column — the outer columns from b by position, the inner ones
// from the heap by RID — and filters them by the residual.
//
//qo:hotpath
func (o *inlJoinOp) flush(b *Batch) error {
	base := o.wide.Len()
	for c := range b.cols {
		value.AppendSel(&o.wide.cols[c], &b.cols[c], o.opos)
	}
	for i, col := range o.innerRead {
		o.inner.AppendColumnRows(&o.wide.cols[len(b.cols)+i], col, o.rids)
	}
	o.wide.n += len(o.rids)
	o.opos, o.rids = o.opos[:0], o.rids[:0]
	var err error
	o.sel, err = o.wide.filterTail(base, o.pred, o.sel)
	return err
}

func (o *inlJoinOp) Close() {
	if o.outer != nil {
		o.outer.Close()
	}
	putBatch(o.wide)
	o.wide = nil
}

// StarDim describes one dimension arm of a StarSemiJoin: the (filtered)
// dimension scan, the dimension's primary-key column, and the fact-table
// foreign-key column pointing at it.
type StarDim struct {
	Scan   Node // produces the selected dimension rows
	DimPK  expr.ColumnRef
	FactFK string // fact column with a secondary index
}

// StarSemiJoin is the sophisticated star-query strategy of Experiment 3:
// for each dimension, the fact table's foreign-key index converts the
// selected dimension keys into a fact RID list (a semijoin); the per-
// dimension RID lists are intersected; only the surviving fact rows are
// fetched; finally each fact row is joined back to its dimension rows.
// Output rows are fact-row values followed by each dimension's row values
// in Dims order.
type StarSemiJoin struct {
	Fact     string
	Dims     []StarDim
	Residual expr.Expr // over the combined row
	// FactEmit, when non-nil, lists the fact table ordinals the join
	// outputs before the dimension rows; the residual and the foreign-key
	// lookups may read others. nil outputs every fact column. PruneColumns
	// sets it.
	FactEmit []int
}

// Schema implements Node.
func (j *StarSemiJoin) Schema(ctx *Context) (expr.RelSchema, error) {
	out, err := emitSchema(ctx, j.Fact, j.FactEmit)
	if err != nil {
		return expr.RelSchema{}, err
	}
	for _, d := range j.Dims {
		ds, err := d.Scan.Schema(ctx)
		if err != nil {
			return expr.RelSchema{}, err
		}
		out = out.Concat(ds)
	}
	return out, nil
}

// Describe implements Node.
func (j *StarSemiJoin) Describe() string {
	return fmt.Sprintf("StarSemiJoin(%s, %d dims)", j.Fact, len(j.Dims))
}

// Stream implements Node.
func (j *StarSemiJoin) Stream() Operator { return &starSemiJoinOp{node: j} }

// starDimState carries what the fetch phase needs from one dimension arm:
// the position of each selected dimension row, keyed by its primary key,
// and the fact column ordinal of the foreign key pointing at them. The
// engine adds the drained rows, cols, and a window's scratch: fk, the
// foreign key of each fetched fact row, and pos, the dimension position
// of each match.
type starDimState struct {
	posByPK map[int64]int32
	fkIdx   int
	cols    []value.Vec
	fk      value.Vec
	pos     []int32
}

// dimKey resolves and checks dimension i's primary key in its scan's
// schema.
func (j *StarSemiJoin) dimKey(i int, dimSchema expr.RelSchema) (int, error) {
	return joinKey("StarSemiJoin", fmt.Sprintf("dim %d", i), dimSchema, j.Dims[i].DimPK)
}

// semijoinDim converts one dimension's selected rows, whose primary keys
// are pks, into a sorted fact RID list via the fact table's foreign-key
// index, charging the index seeks and RID-list construction.
func (j *StarSemiJoin) semijoinDim(ctx *Context, d StarDim, fact *storage.Table, pks []int64, counters *cost.Counters) (starDimState, []int32, error) {
	ix, ok := ctx.Indexes.Lookup(j.Fact, d.FactFK)
	if !ok {
		return starDimState{}, nil, fmt.Errorf("engine: StarSemiJoin: no index on %s.%s", j.Fact, d.FactFK)
	}
	byPK := make(map[int64]int32, len(pks))
	var rids []int32
	for r, pk := range pks {
		byPK[pk] = int32(r)
		counters.IndexSeeks++
		matches, scanned := ix.Equal(pk)
		counters.IndexEntries += int64(scanned)
		rids = append(rids, matches...)
	}
	sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
	counters.Tuples += int64(len(rids)) // RID list construction CPU
	fkIdx := fact.Schema().ColumnIndex(d.FactFK)
	if fkIdx < 0 {
		return starDimState{}, nil, fmt.Errorf("engine: fact table %q has no column %q", j.Fact, d.FactFK)
	}
	return starDimState{posByPK: byPK, fkIdx: fkIdx}, rids, nil
}

// starSemiJoinOp runs every dimension semijoin and the RID intersection at
// Open (the semijoins are inherently blocking), draining each dimension
// scan into typed vectors, then streams the surviving fact-row fetches a
// RID window at a time, charging each random page as the row is pulled
// and filtering the window's combined rows by the residual at once.
//
// A window's matches are (fact RID, dimension positions) pairs, kept in
// rids and each state's pos: a fact row whose foreign keys all find a
// dimension row. The combined rows are gathered into wide from them: the
// projected fact columns, the dimension rows, then the fact columns only
// the residual reads. out is the view of wide's projected prefix that
// Next hands up.
type starSemiJoinOp struct {
	node      *StarSemiJoin
	counters  *cost.Counters
	fact      *storage.Table
	states    []starDimState
	surviving []int32
	next      int
	pred      *expr.Bound
	// factRead are the fact table ordinals each fetch reads: the
	// projection, then the rest.
	factRead []int
	nEmit    int
	rids     []int32
	sel      []int
	wide     *Batch
	out      Batch
}

func (o *starSemiJoinOp) Open(ctx *Context, counters *cost.Counters) error {
	j := o.node
	if len(j.Dims) == 0 {
		return fmt.Errorf("engine: StarSemiJoin(%s) with no dimensions", j.Fact)
	}
	fact, factFull, err := tableAndSchema(ctx, j.Fact)
	if err != nil {
		return err
	}
	emit, err := emitOrdinals(len(factFull.Fields), j.FactEmit)
	if err != nil {
		return err
	}
	states := make([]starDimState, len(j.Dims))
	ridLists := make([][]int32, len(j.Dims))
	var dimsSchema expr.RelSchema
	for i, d := range j.Dims {
		dimSchema, err := d.Scan.Schema(ctx)
		if err != nil {
			return err
		}
		pkIdx, err := j.dimKey(i, dimSchema)
		if err != nil {
			return err
		}
		cols, n, err := drainVecs(ctx, d.Scan, dimSchema, counters)
		if err != nil {
			return err
		}
		st, rids, err := j.semijoinDim(ctx, d, fact, cols[pkIdx].I[:n], counters)
		if err != nil {
			return err
		}
		st.cols, st.fk.Kind, st.pos = cols, factFull.Fields[st.fkIdx].Type, make([]int32, 0, BatchSize)
		states[i], ridLists[i] = st, rids
		dimsSchema = dimsSchema.Concat(dimSchema)
	}
	o.factRead = withReads(emit, factFull, expr.Columns(j.Residual))
	o.nEmit = len(emit)
	outSchema := pickFields(factFull, emit).Concat(dimsSchema)
	wideSchema := outSchema.Concat(pickFields(factFull, o.factRead[o.nEmit:]))
	o.pred, err = expr.Bind(j.Residual, wideSchema)
	if err != nil {
		return err
	}
	o.counters = counters
	o.fact = fact
	o.states = states
	o.surviving = index.Intersect(ridLists...)
	o.rids = make([]int32, 0, BatchSize)
	o.wide = getBatch(wideSchema)
	o.out = Batch{Schema: outSchema, cols: o.wide.cols[:len(outSchema.Fields)]}
	return nil
}

// Next fetches the next window of surviving fact rows: it reads each
// dimension's foreign key over the window, keeps the rows whose keys all
// find a dimension row, gathers the combined rows one typed column at a
// time, and filters them by the residual.
//
//qo:hotpath
func (o *starSemiJoinOp) Next() (*Batch, error) {
	for o.next < len(o.surviving) {
		window := o.surviving[o.next:min(o.next+BatchSize, len(o.surviving))]
		o.next += len(window)
		o.counters.RandPages += int64(len(window))
		o.counters.Tuples += int64(len(window))
		for i := range o.states {
			st := &o.states[i]
			st.fk.Truncate(0)
			o.fact.AppendColumnRows(&st.fk, st.fkIdx, window)
			st.pos = st.pos[:0]
		}
		o.rids = o.rids[:0]
		for k, rid := range window {
			i := 0
			for ; i < len(o.states); i++ {
				st := &o.states[i]
				pos, ok := st.posByPK[st.fk.I[k]]
				if !ok {
					break
				}
				st.pos = append(st.pos, pos)
			}
			if i < len(o.states) {
				// A dimension row is missing: drop the row's partial match.
				for d := range i {
					o.states[d].pos = o.states[d].pos[:len(o.rids)]
				}
				continue
			}
			o.rids = append(o.rids, rid)
		}
		o.wide.Reset()
		c := o.nEmit
		for i := range o.states {
			st := &o.states[i]
			for d := range st.cols {
				value.AppendSel(&o.wide.cols[c+d], &st.cols[d], st.pos)
			}
			c += len(st.cols)
		}
		for i, col := range o.factRead {
			at := i
			if i >= o.nEmit {
				at += c - o.nEmit // the residual's columns follow the dimensions'
			}
			o.fact.AppendColumnRows(&o.wide.cols[at], col, o.rids)
		}
		o.wide.n = len(o.rids)
		var err error
		if o.sel, err = o.wide.filterTail(0, o.pred, o.sel); err != nil {
			return nil, err
		}
		if o.wide.Len() > 0 {
			o.out.n = o.wide.Len()
			return &o.out, nil
		}
	}
	return nil, nil
}

func (o *starSemiJoinOp) Close() {
	putBatch(o.wide)
	o.wide = nil
}
