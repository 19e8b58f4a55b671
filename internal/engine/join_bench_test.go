package engine

// Pins the vectorized-probe acceptance criterion: the vectorized
// hashJoinOp must allocate at least 3x less per operation than the
// row-at-a-time operator it replaced. The old operator is preserved below
// verbatim (map[any] table keyed by Value.Key, per-row scratch-row
// materialization, one heap clone plus one interface box plus a per-key
// slice per build row) as the measured baseline. The replacement removes
// every one of those per-row costs: build rows land in shared arena
// slabs, keys go into native-keyed chain maps with no boxing, and per-key
// row lists are chains through one next-index array instead of individual
// slices.
//
// Keys are offset well past 255 because the Go runtime interns small
// boxed integers — a baseline over keys 0..255 would look allocation
// free and make the comparison meaningless.

import (
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

const benchKeyBase = 10_000_000

// benchRowsNode is a Node serving canned rows, so probe measurements see
// only join work — no storage access, no filter evaluation.
type benchRowsNode struct {
	schema expr.RelSchema
	rows   []value.Row
}

func benchInts(name string, n, fanIn int) *benchRowsNode {
	schema := expr.RelSchema{Fields: []expr.Field{
		{Table: name, Column: "key", Type: catalog.Int},
		{Table: name, Column: "val", Type: catalog.Int},
	}}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(benchKeyBase + int64(i/fanIn)), value.Int(int64(i))}
	}
	return &benchRowsNode{schema: schema, rows: rows}
}

func (n *benchRowsNode) Schema(*Context) (expr.RelSchema, error) { return n.schema, nil }
func (n *benchRowsNode) Describe() string                        { return "benchRows" }
func (n *benchRowsNode) Stream() Operator                        { return &benchRowsOp{node: n} }

type benchRowsOp struct {
	node *benchRowsNode
	next int
	out  *Batch
}

func (o *benchRowsOp) Open(ctx *Context, counters *cost.Counters) error {
	o.next = 0
	o.out = getBatch(o.node.schema)
	return nil
}

func (o *benchRowsOp) Next() (*Batch, error) {
	rows := o.node.rows
	if o.next >= len(rows) {
		return nil, nil
	}
	end := min(o.next+BatchSize, len(rows))
	o.out.Reset()
	for _, r := range rows[o.next:end] {
		o.out.AppendRow(r)
	}
	o.next = end
	return o.out, nil
}

func (o *benchRowsOp) Close() {
	putBatch(o.out)
	o.out = nil
}

// rowAtATimeJoinOp is the pre-vectorization hashJoinOp, kept verbatim as
// the benchmark baseline: build into map[any] via Key() boxing, probe by
// materializing each row into a scratch buffer and boxing its key.
type rowAtATimeJoinOp struct {
	node     *HashJoin
	counters *cost.Counters
	probe    Operator
	table    map[any][]value.Row
	pIdx     int
	pBuf     value.Row
	out      *Batch
}

func (o *rowAtATimeJoinOp) Open(ctx *Context, counters *cost.Counters) error {
	j := o.node
	buildSchema, err := j.Build.Schema(ctx)
	if err != nil {
		return err
	}
	probeSchema, err := j.Probe.Schema(ctx)
	if err != nil {
		return err
	}
	bIdx, err := buildSchema.Resolve(j.BuildCol)
	if err != nil {
		return err
	}
	o.pIdx, err = probeSchema.Resolve(j.ProbeCol)
	if err != nil {
		return err
	}
	buildRows, err := openAndDrain(ctx, j.Build, counters)
	if err != nil {
		return err
	}
	o.table = make(map[any][]value.Row, len(buildRows))
	for _, row := range buildRows {
		k := row[bIdx].Key()
		o.table[k] = append(o.table[k], row)
	}
	counters.HashBuilds += int64(len(buildRows))
	o.counters = counters
	o.probe = j.Probe.Stream()
	if err := o.probe.Open(ctx, counters); err != nil {
		return err
	}
	o.pBuf = make(value.Row, len(probeSchema.Fields))
	o.out = getBatch(buildSchema.Concat(probeSchema))
	return nil
}

func (o *rowAtATimeJoinOp) Next() (*Batch, error) {
	for {
		b, err := o.probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.counters.HashProbes += int64(b.Len())
		o.out.Reset()
		for r := 0; r < b.Len(); r++ {
			b.Row(r, o.pBuf)
			for _, bRow := range o.table[o.pBuf[o.pIdx].Key()] {
				o.counters.Tuples++
				o.out.appendConcat(bRow, o.pBuf)
			}
		}
		if o.out.Len() > 0 {
			return o.out, nil
		}
	}
}

func (o *rowAtATimeJoinOp) Close() {
	if o.probe != nil {
		o.probe.Close()
	}
	putBatch(o.out)
	o.out = nil
}

// benchJoinFixture builds the shared probe scenario: 2k build rows, 16k
// probe rows, every probe matching exactly one build row.
func benchJoinFixture() (*Context, *HashJoin) {
	ctx := &Context{}
	node := &HashJoin{
		Build:    benchInts("b", 2048, 1),
		Probe:    benchInts("p", 16384, 8),
		BuildCol: expr.ColumnRef{Table: "b", Column: "key"},
		ProbeCol: expr.ColumnRef{Table: "p", Column: "key"},
	}
	return ctx, node
}

// drainJoin opens op and pulls it dry without cloning rows out, so the
// measurement isolates build+probe from output materialization. Returns
// the number of output rows seen.
func drainJoin(ctx *Context, op Operator) (int, error) {
	defer op.Close()
	var c cost.Counters
	if err := op.Open(ctx, &c); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
	}
}

// TestVectorizedProbeAllocs pins the >=3x allocation reduction of the
// vectorized probe against the row-at-a-time baseline.
func TestVectorizedProbeAllocs(t *testing.T) {
	ctx, node := benchJoinFixture()
	check := func(n int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if n != 16384 {
			t.Fatalf("join produced %d rows, want 16384", n)
		}
	}
	vec := testing.AllocsPerRun(5, func() {
		check(drainJoin(ctx, &hashJoinOp{node: node}))
	})
	base := testing.AllocsPerRun(5, func() {
		check(drainJoin(ctx, &rowAtATimeJoinOp{node: node}))
	})
	if vec < 1 {
		vec = 1
	}
	if ratio := base / vec; ratio < 3 {
		t.Fatalf("vectorized probe allocs %.0f vs row-at-a-time %.0f: ratio %.2f, want >= 3", vec, base, ratio)
	}
	t.Logf("allocs/op: vectorized %.0f, row-at-a-time %.0f (%.1fx)", vec, base, base/vec)
}

// TestRowAtATimeBaselineEquivalence keeps the baseline honest: it must
// still produce the vectorized operator's exact rows and counters, or the
// allocation comparison above measures two different joins.
func TestRowAtATimeBaselineEquivalence(t *testing.T) {
	ctx, node := benchJoinFixture()
	drain := func(op Operator) ([]value.Row, cost.Counters) {
		t.Helper()
		defer op.Close()
		var c cost.Counters
		if err := op.Open(ctx, &c); err != nil {
			t.Fatal(err)
		}
		rows, err := drainRows(op)
		if err != nil {
			t.Fatal(err)
		}
		return rows, c
	}
	vRows, vc := drain(&hashJoinOp{node: node})
	bRows, bc := drain(&rowAtATimeJoinOp{node: node})
	if len(vRows) != len(bRows) {
		t.Fatalf("vectorized %d rows, baseline %d", len(vRows), len(bRows))
	}
	for i := range vRows {
		if rowKey(vRows[i]) != rowKey(bRows[i]) {
			t.Fatalf("row %d: vectorized %v, baseline %v", i, vRows[i], bRows[i])
		}
	}
	if vc != bc {
		t.Fatalf("counters diverged:\nvectorized %+v\nbaseline   %+v", vc, bc)
	}
}

// BenchmarkHashJoinProbe compares the two probe implementations over the
// same canned inputs; run with -benchmem to see the allocation gap the
// test above pins.
func BenchmarkHashJoinProbe(b *testing.B) {
	ctx, node := benchJoinFixture()
	for _, bench := range []struct {
		name string
		mk   func() Operator
	}{
		{"vectorized", func() Operator { return &hashJoinOp{node: node} }},
		{"rowAtATime", func() Operator { return &rowAtATimeJoinOp{node: node} }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := drainJoin(ctx, bench.mk())
				if err != nil {
					b.Fatal(err)
				}
				if n != 16384 {
					b.Fatalf("join produced %d rows, want 16384", n)
				}
			}
		})
	}
}
