package engine

import (
	"math"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// A merge-join input is drained a batch column at a time into packed
// columns, and its join key into one contiguous key vector. The merge
// walks the key vectors in sorted order, collects a batch of (left,
// right) sorted positions, and gathers each output column with one typed
// loop; no row is materialized on either side.
//
// A packed column holds its values in fixed-size chunks of raw payloads
// chosen by the column's schema type: int64 for Int and Date, float64,
// or string. A drained row then costs 8 bytes a numeric column, where a
// cloned value.Row costs a 40-byte Value a column plus a header. A chunk
// that receives a value its type cannot carry back exactly — another
// kind, or a payload field that kind leaves unused — keeps its values
// whole instead, so every value reads back as it was drained. Once an
// input's key vector is built its key column's chunks are spare, and the
// next input's drain fills them again.

// packChunk is the row count of one chunk of a packed column.
const packChunk = 1024

// intStock is the spare int64 chunk arrays of one merge join.
type intStock []*[packChunk]int64

// get returns a spare array, or a new one.
func (s *intStock) get() *[packChunk]int64 {
	n := len(*s)
	if n == 0 {
		return new([packChunk]int64)
	}
	a := (*s)[n-1]
	*s = (*s)[:n-1]
	return a
}

// packedCol is one column of a drained merge-join input.
type packedCol struct {
	kind   catalog.Type
	n      int
	chunks []packedChunk
	// generic is set once some chunk holds whole values.
	generic bool
	// stock supplies int64 chunk arrays; nil allocates them.
	stock *intStock
}

// packedChunk holds up to packChunk values: in vals when it is generic,
// else in the payload array of the column's type.
type packedChunk struct {
	ints *[packChunk]int64
	flts *[packChunk]float64
	strs *[packChunk]string
	vals []value.Value
}

// newChunk returns a chunk with a payload array of the column's type.
func (c *packedCol) newChunk() packedChunk {
	switch {
	case c.kind == catalog.Float:
		return packedChunk{flts: new([packChunk]float64)}
	case c.kind == catalog.String:
		return packedChunk{strs: new([packChunk]string)}
	case c.stock != nil:
		return packedChunk{ints: c.stock.get()}
	default:
		return packedChunk{ints: new([packChunk]int64)}
	}
}

// put stores vs at offset off of a packed chunk of type kind, as long as
// the type carries them exactly, and returns how many it stored.
//
//qo:hotpath
func (ch *packedChunk) put(kind catalog.Type, off int, vs []value.Value) int {
	switch kind {
	case catalog.Float:
		for i, v := range vs {
			if v.Kind != kind || v.I != 0 || v.S != "" {
				return i
			}
			ch.flts[off+i] = v.F
		}
	case catalog.String:
		for i, v := range vs {
			if v.Kind != kind || v.I != 0 || math.Float64bits(v.F) != 0 {
				return i
			}
			ch.strs[off+i] = v.S
		}
	default:
		for i, v := range vs {
			if v.Kind != kind || v.S != "" || math.Float64bits(v.F) != 0 {
				return i
			}
			ch.ints[off+i] = v.I
		}
	}
	return len(vs)
}

// appendVals adds vs at the end of the column.
//
//qo:hotpath
func (c *packedCol) appendVals(vs []value.Value) {
	for len(vs) > 0 {
		off := c.n % packChunk
		if off == 0 {
			c.chunks = append(c.chunks, c.newChunk())
		}
		ch := &c.chunks[len(c.chunks)-1]
		part := vs[:min(len(vs), packChunk-off)]
		k := 0
		if ch.vals == nil {
			if k = ch.put(c.kind, off, part); k < len(part) {
				// Unpack what the chunk holds so far; it stays generic.
				//qo:alloc-ok once per chunk that receives an odd value
				vals := make([]value.Value, off+k, packChunk)
				for j := range vals {
					vals[j] = c.unpack(ch, j)
				}
				*ch = packedChunk{vals: vals}
				c.generic = true
			}
		}
		if ch.vals != nil {
			ch.vals = append(ch.vals, part[k:]...)
		}
		c.n += len(part)
		vs = vs[len(part):]
	}
}

// unpack rebuilds value j of a packed chunk.
func (c *packedCol) unpack(ch *packedChunk, j int) value.Value {
	switch c.kind {
	case catalog.Float:
		return value.Float(ch.flts[j])
	case catalog.String:
		return value.Str(ch.strs[j])
	default:
		return value.Value{Kind: c.kind, I: ch.ints[j]}
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

// gather appends the values at rows to dst, one typed loop per column
// type when no chunk is generic.
//
//qo:hotpath
func (c *packedCol) gather(dst []value.Value, rows []int32) []value.Value {
	switch {
	case c.generic:
		for _, r := range rows {
			dst = append(dst, c.at(int(r)))
		}
	case c.kind == catalog.Float:
		for _, r := range rows {
			dst = append(dst, value.Float(c.chunks[r/packChunk].flts[r%packChunk]))
		}
	case c.kind == catalog.String:
		for _, r := range rows {
			dst = append(dst, value.Str(c.chunks[r/packChunk].strs[r%packChunk]))
		}
	default:
		for _, r := range rows {
			dst = append(dst, value.Value{Kind: c.kind, I: c.chunks[r/packChunk].ints[r%packChunk]})
		}
	}
	return dst
}

// mergeInput is one input of the streaming merge join, drained into
// packed columns. Rows are addressed by sorted position: keys holds the
// join key of every position, and order maps a position to the drained
// row — nil while the drain order is already key order.
type mergeInput struct {
	cols  []packedCol
	n     int
	key   int
	keys  []int64
	order []uint32
	// keyVec is set when the key column's values are exactly keys, in
	// its own kind; its chunks are then spare and output is read from
	// keys.
	keyVec bool
}

// drainMergeInput opens n, packs every batch it produces a column at a
// time, and builds the key vector; key is the join key's ordinal in
// schema. Int and Date columns take their chunk arrays from stock, and
// the key column's go back to it.
func drainMergeInput(ctx *Context, n Node, schema expr.RelSchema, key int, stock *intStock, counters *cost.Counters) (*mergeInput, error) {
	op := n.Stream()
	defer op.Close()
	if err := op.Open(ctx, counters); err != nil {
		return nil, err
	}
	in := &mergeInput{cols: make([]packedCol, len(schema.Fields)), key: key}
	for c, f := range schema.Fields {
		in.cols[c] = packedCol{kind: f.Type, stock: stock}
	}
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for c, col := range b.Cols() {
			in.cols[c].appendVals(col)
		}
		in.n += b.Len()
	}
	for c := range in.cols {
		in.cols[c].stock = nil
	}
	in.buildKeys(stock)
	return in, nil
}

// buildKeys fills the key vector at its exact size, once the drain is
// done, from the int64 payloads of the key column, which joinKey has
// checked is Int or Date. A key column whose values are exactly the key
// vector's hands its chunk arrays to stock.
func (in *mergeInput) buildKeys(stock *intStock) {
	col := &in.cols[in.key]
	in.keys = make([]int64, in.n)
	if !col.generic {
		for ci, ch := range col.chunks {
			copy(in.keys[ci*packChunk:], ch.ints[:])
			*stock = append(*stock, ch.ints)
		}
		col.chunks = nil
		in.keyVec = true
		return
	}
	for i := range in.keys {
		in.keys[i] = col.at(i).I
	}
}

// isIntKind reports whether values of kind t live in the int64 payload:
// Int and Date.
func isIntKind(t catalog.Type) bool { return t == catalog.Int || t == catalog.Date }

// sort orders the input by key and reports whether it had to.
func (in *mergeInput) sort() (sorted bool) {
	for i := 1; i < len(in.keys); i++ {
		if in.keys[i-1] > in.keys[i] {
			// An input whose one column is read from keys needs no
			// permutation once keys are sorted.
			if order := radixOrder(in.keys); len(in.cols) > 1 || !in.keyVec {
				in.order = order
			}
			return true
		}
	}
	return false
}

// gather appends the rows at sorted positions pos to out's columns from
// base on, resolving them to drained rows in rows, which it returns for
// reuse; the caller counts the output rows.
//
//qo:hotpath
func (in *mergeInput) gather(out *Batch, base int, pos, rows []int32) []int32 {
	rows = rows[:0]
	if in.order == nil {
		rows = append(rows, pos...)
	} else {
		for _, p := range pos {
			rows = append(rows, int32(in.order[p]))
		}
	}
	for c := range in.cols {
		dst := out.cols[base+c]
		if c == in.key && in.keyVec {
			kind := in.cols[c].kind
			for _, p := range pos {
				dst = append(dst, value.Value{Kind: kind, I: in.keys[p]})
			}
		} else {
			dst = in.cols[c].gather(dst, rows)
		}
		out.cols[base+c] = dst
	}
	return rows
}
