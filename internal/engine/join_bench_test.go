package engine

// The serial hash join's allocation ceiling and its probe benchmark, over
// canned inputs served by benchRowsNode.

import (
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// benchRowsNode is a Node serving canned rows, so probe measurements see
// only join work — no storage access, no filter evaluation.
type benchRowsNode struct {
	schema expr.RelSchema
	rows   []value.Row
}

// benchInts serves n rows (key, val): val counts up from 0, and key is
// val/fanIn times stride.
func benchInts(name string, n, fanIn, stride int) *benchRowsNode {
	schema := expr.RelSchema{Fields: []expr.Field{
		{Table: name, Column: "key", Type: catalog.Int},
		{Table: name, Column: "val", Type: catalog.Int},
	}}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i / fanIn * stride)), value.Int(int64(i))}
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
		addRow(o.out, r)
	}
	o.next = end
	return o.out, nil
}

func (o *benchRowsOp) Close() {
	putBatch(o.out)
	o.out = nil
}

// probeStrides are the key strides of the probe scenario's two table
// modes: keys 0..2047 are direct-addressed; keys 7,919 apart span more
// than 4× the 4,096 slots of a 2,048-row build, so they hash.
var probeStrides = []struct {
	name   string
	stride int
}{{"dense", 1}, {"sparse", 7919}}

// benchJoinFixture builds the shared probe scenario: 2k build rows, 16k
// probe rows, every probe matching exactly one build row, keys stride
// apart.
func benchJoinFixture(stride int) (*Context, *HashJoin) {
	ctx := &Context{}
	node := &HashJoin{
		Build:    benchInts("b", 2048, 1, stride),
		Probe:    benchInts("p", 16384, 8, stride),
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

// TestVectorizedProbeAllocs pins the allocation discipline of the serial
// hash join: the build side drains into typed vectors, keys go into one
// int64 table whose chains thread through one next-index array, and
// matches are gathered column-wise into a pooled batch, so a full drain
// allocates at most once per eight joined rows — the ceiling
// TestMorselProbeAllocs sets for a join probing an Exchange — in either
// table mode.
func TestVectorizedProbeAllocs(t *testing.T) {
	const wantRows = 16384
	for _, m := range probeStrides {
		ctx, node := benchJoinFixture(m.stride)
		allocs := testing.AllocsPerRun(5, func() {
			n, err := drainJoin(ctx, &hashJoinOp{node: node})
			if err != nil {
				t.Fatal(err)
			}
			if n != wantRows {
				t.Fatalf("%s: join produced %d rows, want %d", m.name, n, wantRows)
			}
		})
		if ceiling := float64(wantRows) / 8; allocs > ceiling {
			t.Fatalf("%s: hash join drain allocs %.0f, want <= %.0f", m.name, allocs, ceiling)
		}
		t.Logf("%s: allocs per full drain: %.0f for %d joined rows", m.name, allocs, wantRows)
	}
}

// BenchmarkHashJoinProbe measures the serial hash join, build and probe,
// over canned inputs, once per table mode: dense keys direct-addressed,
// sparse keys hashed. Run with -benchmem for its allocations.
func BenchmarkHashJoinProbe(b *testing.B) {
	for _, m := range probeStrides {
		b.Run(m.name, func(b *testing.B) {
			ctx, node := benchJoinFixture(m.stride)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &hashJoinOp{node: node}
				n, err := drainJoin(ctx, op)
				if err != nil {
					b.Fatal(err)
				}
				if n != 16384 || op.table.dense() != (m.stride == 1) {
					b.Fatalf("join produced %d rows, want 16384; dense table %v, want %v", n, op.table.dense(), m.stride == 1)
				}
			}
		})
	}
}
