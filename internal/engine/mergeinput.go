package engine

import (
	"fmt"
	"math"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// packChunk is the row count of one chunk of a packed column.
const packChunk = 1024

// packedCol is one column of a drained merge-join input, held in
// fixed-size chunks of raw payloads chosen by the column's schema type:
// Int and Date payloads, or Float bits, in nums; strings in strs. A
// drained row then costs 8 bytes a numeric column and no allocation of
// its own, where a cloned value.Row costs a 40-byte Value a column plus
// a header. A chunk that receives a value its type cannot carry back
// exactly — another kind, or a payload field that kind leaves unused —
// keeps its values whole in vals instead, so every value reads back as
// it was drained.
type packedCol struct {
	kind   catalog.Type
	chunks []packedChunk
}

// packedChunk holds up to packChunk values in exactly one of its slices.
type packedChunk struct {
	nums []uint64
	strs []string
	vals []value.Value
}

func (ch *packedChunk) len() int { return len(ch.nums) + len(ch.strs) + len(ch.vals) }

// pack returns v's payload when the column's type carries v exactly.
func (c *packedCol) pack(v value.Value) (uint64, bool) {
	if v.Kind != c.kind {
		return 0, false
	}
	switch c.kind {
	case catalog.Float:
		return math.Float64bits(v.F), v.I == 0 && v.S == ""
	case catalog.String:
		return 0, v.I == 0 && math.Float64bits(v.F) == 0
	default:
		return uint64(v.I), math.Float64bits(v.F) == 0 && v.S == ""
	}
}

// append adds one value at the end of the column.
func (c *packedCol) append(v value.Value) {
	if len(c.chunks) == 0 || c.chunks[len(c.chunks)-1].len() == packChunk {
		c.chunks = append(c.chunks, packedChunk{})
	}
	ch := &c.chunks[len(c.chunks)-1]
	if ch.vals == nil {
		p, ok := c.pack(v)
		switch {
		case ok && c.kind == catalog.String:
			if ch.strs == nil {
				ch.strs = make([]string, 0, packChunk)
			}
			ch.strs = append(ch.strs, v.S)
			return
		case ok:
			if ch.nums == nil {
				ch.nums = make([]uint64, 0, packChunk)
			}
			ch.nums = append(ch.nums, p)
			return
		}
		// Unpack what the chunk holds so far; it stays generic.
		n := ch.len()
		ch.vals = make([]value.Value, n, packChunk)
		for i := range n {
			ch.vals[i] = c.unpack(ch, i)
		}
		ch.nums, ch.strs = nil, nil
	}
	ch.vals = append(ch.vals, v)
}

// unpack rebuilds value j of a packed chunk.
func (c *packedCol) unpack(ch *packedChunk, j int) value.Value {
	switch c.kind {
	case catalog.Float:
		return value.Float(math.Float64frombits(ch.nums[j]))
	case catalog.String:
		return value.Str(ch.strs[j])
	default:
		return value.Value{Kind: c.kind, I: int64(ch.nums[j])}
	}
}

// at returns value i of the column.
//
//qo:hotpath
func (c *packedCol) at(i int) value.Value {
	ch := &c.chunks[i/packChunk]
	if ch.vals != nil {
		return ch.vals[i%packChunk]
	}
	return c.unpack(ch, i%packChunk)
}

// mergeInput is one input of the streaming merge join, drained into
// packed columns. Rows are addressed by sorted position: order maps a
// position to the drained row, and is nil while the drain order is
// already key order.
type mergeInput struct {
	cols    []packedCol
	n       int
	key     int
	order   []uint32
	inOrder bool
	// badKey is the first key that is not numeric, reported when the
	// input is sorted — after both inputs are drained, as the
	// materialized engine reports it.
	badKey *value.Value
}

// drainMergeInput opens n and packs every row it produces; key is the
// join key's ordinal in schema. The key check and the in-order check ride
// along with the copy.
func drainMergeInput(ctx *Context, n Node, schema expr.RelSchema, key int, counters *cost.Counters) (*mergeInput, error) {
	op := n.Stream()
	defer op.Close()
	if err := op.Open(ctx, counters); err != nil {
		return nil, err
	}
	in := &mergeInput{cols: make([]packedCol, len(schema.Fields)), key: key, inOrder: true}
	for c, f := range schema.Fields {
		in.cols[c].kind = f.Type
	}
	var prev int64
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return in, nil
		}
		cols := b.Cols()
		for c := range in.cols {
			for _, v := range cols[c] {
				in.cols[c].append(v)
			}
		}
		for _, v := range cols[key] {
			if !v.Numeric() && in.badKey == nil {
				bad := v
				in.badKey = &bad
			}
			if in.n > 0 && prev > v.I {
				in.inOrder = false
			}
			prev = v.I
			in.n++
		}
	}
}

// sort orders the input by key and reports whether it had to, failing
// on the first non-numeric key.
func (in *mergeInput) sort() (sorted bool, err error) {
	if in.badKey != nil {
		return false, fmt.Errorf("engine: merge join over non-numeric key %s", *in.badKey)
	}
	if in.inOrder {
		return false, nil
	}
	keys := make([]int64, in.n)
	for i := range keys {
		keys[i] = in.cols[in.key].at(i).I
	}
	in.order = radixOrder(keys)
	return true, nil
}

// row returns the drained row at sorted position pos.
//
//qo:hotpath
func (in *mergeInput) row(pos int) int {
	if in.order == nil {
		return pos
	}
	return int(in.order[pos])
}

// keyAt returns the join key at sorted position pos.
//
//qo:hotpath
func (in *mergeInput) keyAt(pos int) int64 { return in.cols[in.key].at(in.row(pos)).I }

// appendRow appends the row at sorted position pos to out's columns from
// base on; the caller counts the output row.
//
//qo:hotpath
func (in *mergeInput) appendRow(out *Batch, base, pos int) {
	r := in.row(pos)
	for c := range in.cols {
		out.cols[base+c] = append(out.cols[base+c], in.cols[c].at(r))
	}
}
