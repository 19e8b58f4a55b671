// Package storage implements the in-memory columnar table store that plays
// the role of the disk-resident heap files in the paper's experiments.
//
// Tables are stored column-wise in typed slices. A simulated page layout
// (TuplesPerPage) lets the cost model translate row counts into sequential
// and random page accesses, which is what differentiates the sequential
// scan and index-intersection plans at the center of the paper.
//
// A table may be horizontally partitioned (catalog.PartitionSpec): rows
// live in per-shard segments, each with its own columnar chunks and
// primary-key index, while row ids stay global in partition-major order
// (shard 0's rows first, then shard 1's, ...). Every shard therefore
// occupies one contiguous global row-id interval, readers keep seeing a
// single logical table through the unchanged read API, and an
// unpartitioned table is simply the one-segment degenerate case.
//
// Append keeps a zone map per column: the min and max of every
// SegmentRows tile of a shard, and for a Float column whether the tile
// holds a NaN, which its min and max leave out. A filter-first scan skips
// a tile some pushed bound excludes (Filter), and the planner reads the
// same zones for an exact selectivity ceiling (Zones). Filter checks the
// bounds on the other tiles with branch-free selection loops: each
// writes every offset and advances past it by the bound's 0/1 verdict. The maps grow with
// the rows, so they are never stale. Beside them Append keeps, per
// column and shard, whether a row ever fell below the one before it, so
// NonDecreasing answers from the rows too.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// TuplesPerPage is the simulated number of tuples stored per disk page.
// With ~100-byte tuples and 8 KB pages this matches the paper's era.
const TuplesPerPage = 80

// SegmentRows is the row span of one zone-map tile. Tiles cut each
// shard's rows into SegmentRows blocks from the shard's first row, the
// tiling of the engine's morsels, so a scan window never straddles two
// tiles; engine tests pin the equality.
const SegmentRows = 4096

// Table is a columnar in-memory table instance for a catalog schema,
// physically split into one segment per partition (one segment total when
// unpartitioned).
type Table struct {
	schema *catalog.TableSchema
	segs   []segment
	// bases[p] is the global row id of shard p's first row; maintained
	// eagerly on Append so reads never mutate it.
	bases []int
	rows  int
	pkCol int // ordinal of PK column, -1 if none
	// keyCol is the ordinal of the partition key, -1 when unpartitioned.
	keyCol int

	// concatMu guards the lazily built concatenated payload caches that
	// back Ints/Floats/Strings for partitioned tables.
	concatMu sync.Mutex
	concat   []columnData
	concatOK []bool
}

// segment holds one partition's columnar chunks and its local pk index
// (primary-key value to segment-local row id).
type segment struct {
	cols    []columnData
	rows    int
	pkIndex map[int64]int
}

type columnData struct {
	kind   catalog.Type
	ints   []int64 // Int and Date payloads
	floats []float64
	strs   []string
	// zones[k] is the zone of the column's tile k.
	zones []zone
	// fell is set once a row sorts before the row ahead of it in the
	// segment, in value.Compare's order.
	fell bool
}

// zone is the min and max of one column over one tile: lo and hi for an
// Int or Date column, flo and fhi for a Float column, slo and shi for a
// String column. flo and fhi range over the tile's numbers, +Inf and -Inf
// when it has none; nan records a NaN among its rows.
type zone struct {
	lo, hi   int64
	flo, fhi float64
	slo, shi string
	nan      bool
}

// widenInt, widenFloat and widenStr fold x, the value of segment-local
// row local, into the zone of the tile holding it; a tile's first row
// opens its zone.
func (c *columnData) widenInt(local int, x int64) {
	if local%SegmentRows == 0 {
		c.zones = append(c.zones, zone{lo: x, hi: x})
	} else if z := &c.zones[len(c.zones)-1]; x < z.lo {
		z.lo = x
	} else if x > z.hi {
		z.hi = x
	}
}

func (c *columnData) widenFloat(local int, x float64) {
	if local%SegmentRows == 0 {
		c.zones = append(c.zones, zone{flo: math.Inf(1), fhi: math.Inf(-1)})
	}
	z := &c.zones[len(c.zones)-1]
	if x != x {
		z.nan = true
	}
	if x < z.flo {
		z.flo = x
	}
	if x > z.fhi {
		z.fhi = x
	}
}

func (c *columnData) widenStr(local int, x string) {
	if local%SegmentRows == 0 {
		c.zones = append(c.zones, zone{slo: x, shi: x})
	} else if z := &c.zones[len(c.zones)-1]; x < z.slo {
		z.slo = x
	} else if x > z.shi {
		z.shi = x
	}
}

// excludes reports whether the zone proves that no row of its tile
// satisfies b: for an interval, that the tile's values all miss it; for
// an exclusion, that they all lie inside it. A NaN row defeats the proof
// when b lets NaN pass.
//
//qo:hotpath
func (z *zone) excludes(b *expr.ColBound) bool {
	switch {
	case b.IsStr:
		if b.Not {
			return (!b.HasStrLo || z.slo >= b.StrLo) && (!b.HasStrHi || z.shi <= b.StrHi)
		}
		return b.HasStrLo && z.shi < b.StrLo || b.HasStrHi && z.slo > b.StrHi ||
			b.HasStrLo && b.HasStrHi && b.StrLo > b.StrHi
	case b.IsFloat:
		if z.nan && b.NaN {
			return false
		}
		if b.Not {
			return z.flo >= b.FLo && z.fhi <= b.FHi
		}
		return z.flo > z.fhi || z.fhi < b.FLo || z.flo > b.FHi || b.FLo > b.FHi
	case b.Not:
		return z.lo >= b.Lo && z.hi <= b.Hi
	}
	return z.hi < b.Lo || z.lo > b.Hi || b.Lo > b.Hi
}

// NewTable creates an empty table for the schema.
func NewTable(schema *catalog.TableSchema) (*Table, error) {
	if schema == nil {
		return nil, fmt.Errorf("storage: nil schema")
	}
	n := 1
	keyCol := -1
	if p := schema.Partition; p != nil {
		n = p.Partitions
		keyCol = schema.ColumnIndex(p.Column)
		if keyCol < 0 {
			return nil, fmt.Errorf("storage: table %q partition key %q is not a column", schema.Name, p.Column)
		}
	}
	t := &Table{
		schema: schema,
		segs:   make([]segment, n),
		bases:  make([]int, n),
		pkCol:  -1,
		keyCol: keyCol,
	}
	for s := range t.segs {
		t.segs[s].cols = make([]columnData, len(schema.Columns))
		for i, c := range schema.Columns {
			t.segs[s].cols[i].kind = c.Type
		}
	}
	if schema.PrimaryKey != "" {
		t.pkCol = schema.ColumnIndex(schema.PrimaryKey)
		for s := range t.segs {
			t.segs[s].pkIndex = make(map[int64]int)
		}
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *catalog.TableSchema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// NumRows returns the number of rows stored.
func (t *Table) NumRows() int { return t.rows }

// NumPages returns the simulated page count of the heap.
func (t *Table) NumPages() int {
	return (t.rows + TuplesPerPage - 1) / TuplesPerPage
}

// Partitions returns the number of physical partitions (1 when the table
// is unpartitioned).
func (t *Table) Partitions() int { return len(t.segs) }

// PartitionSpec returns the table's partition declaration, nil when
// unpartitioned.
func (t *Table) PartitionSpec() *catalog.PartitionSpec { return t.schema.Partition }

// PartitionRows returns the row count of shard p.
func (t *Table) PartitionRows(p int) int { return t.segs[p].rows }

// PartitionSpan returns the contiguous global row-id interval [lo, hi)
// that shard p occupies — the property the scatter-gather engine and the
// partition-pruning pass are built on.
func (t *Table) PartitionSpan(p int) (lo, hi int) {
	return t.bases[p], t.bases[p] + t.segs[p].rows
}

// ShardOfKey returns the shard a row with the given partition-key value
// routes to. ok is false when the table is unpartitioned.
func (t *Table) ShardOfKey(key int64) (shard int, ok bool) {
	if t.keyCol < 0 || len(t.segs) == 1 {
		return 0, len(t.segs) > 1
	}
	return t.shardOf(key), true
}

// shardOf routes a partition-key value to its shard.
func (t *Table) shardOf(key int64) int {
	p := t.schema.Partition
	if p.Kind == catalog.RangePartition {
		// First shard whose upper bound exceeds key; the last shard is
		// unbounded above.
		return sort.Search(len(p.Bounds), func(i int) bool { return key < p.Bounds[i] })
	}
	return hashShard(key, len(t.segs))
}

// hashShard mixes the key (a finalizer in the splitmix64 family) before
// reducing mod n, so sequential keys spread across shards.
func hashShard(key int64, n int) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// PrunePartitions evaluates a closed-interval constraint lo <= column <= hi
// against the partition scheme and returns the shards that could hold
// matching rows. ok is false when the constraint says nothing about the
// physical layout: the table is unpartitioned, column is not the partition
// key, or the scheme cannot evaluate the interval (hash partitioning only
// prunes equality, lo == hi). The returned slice is ascending; it may be
// empty (an unsatisfiable range prunes every shard) and may cover all
// shards (no pruning, but the evaluation still applies).
func (t *Table) PrunePartitions(column string, lo, hi int64) (shards []int, ok bool) {
	spec := t.schema.Partition
	if spec == nil || len(t.segs) == 1 || spec.Column != column {
		return nil, false
	}
	if spec.Kind == catalog.HashPartition {
		if lo != hi {
			return nil, false
		}
		return []int{t.shardOf(lo)}, true
	}
	if lo > hi {
		return []int{}, true
	}
	first := t.shardOf(lo)
	last := t.shardOf(hi)
	shards = make([]int, 0, last-first+1)
	for p := first; p <= last; p++ {
		shards = append(shards, p)
	}
	return shards, true
}

// segOf locates the segment holding global row id row and returns the
// shard index and the segment-local row id.
func (t *Table) segOf(row int) (int, int) {
	if len(t.segs) == 1 {
		return 0, row
	}
	// Last shard whose base is <= row.
	p := sort.Search(len(t.bases), func(i int) bool { return t.bases[i] > row }) - 1
	return p, row - t.bases[p]
}

// Append adds a row. The row must have one value per column with matching
// types; Int values are accepted for Date columns and vice versa. On a
// partitioned table the row is routed to its shard, shifting the global
// ids of later shards' rows — load fully before building secondary
// indexes, exactly as with unpartitioned appends.
func (t *Table) Append(row value.Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("storage: table %q: row has %d values, schema has %d columns", t.Name(), len(row), len(t.schema.Columns))
	}
	for i, v := range row {
		if !typeCompatible(t.schema.Columns[i].Type, v.Kind) {
			return fmt.Errorf("storage: table %q column %q: cannot store %s in %s column",
				t.Name(), t.schema.Columns[i].Name, v.Kind, t.schema.Columns[i].Type)
		}
	}
	if t.pkCol >= 0 {
		pk := row[t.pkCol].I
		if _, dup := t.LookupPK(pk); dup {
			return fmt.Errorf("storage: table %q: duplicate primary key %d", t.Name(), pk)
		}
	}
	shard := 0
	if t.keyCol >= 0 && len(t.segs) > 1 {
		shard = t.shardOf(row[t.keyCol].I)
	}
	seg := &t.segs[shard]
	last := seg.rows - 1
	for i, v := range row {
		c := &seg.cols[i]
		switch c.kind {
		case catalog.Int, catalog.Date:
			c.fell = c.fell || last >= 0 && v.I < c.ints[last]
			c.ints = append(c.ints, v.I)
			c.widenInt(seg.rows, v.I)
		case catalog.Float:
			c.fell = c.fell || last >= 0 && v.F < c.floats[last]
			c.floats = append(c.floats, v.F)
			c.widenFloat(seg.rows, v.F)
		case catalog.String:
			c.fell = c.fell || last >= 0 && v.S < c.strs[last]
			c.strs = append(c.strs, v.S)
			c.widenStr(seg.rows, v.S)
		}
	}
	if t.pkCol >= 0 {
		seg.pkIndex[row[t.pkCol].I] = seg.rows
	}
	seg.rows++
	t.rows++
	for p := shard + 1; p < len(t.bases); p++ {
		t.bases[p]++
	}
	t.invalidateConcat()
	return nil
}

// NonDecreasing reports whether the named column never decreases in
// row-id order: within every shard, as Append records, and across the
// shard boundaries of a partitioned table; false for a column the table
// lacks. A declared catalog ordering is a claim; this is what the rows
// show.
func (t *Table) NonDecreasing(column string) bool {
	col := t.schema.ColumnIndex(column)
	if col < 0 {
		return false
	}
	var prev value.Value
	for p := range t.segs {
		s := &t.segs[p]
		c := &s.cols[col]
		if c.fell {
			return false
		}
		if s.rows == 0 {
			continue
		}
		if t.bases[p] > 0 {
			if cmp, _ := value.Compare(c.at(0), prev); cmp < 0 {
				return false
			}
		}
		prev = c.at(s.rows - 1)
	}
	return true
}

func typeCompatible(col, val catalog.Type) bool {
	if col == val {
		return true
	}
	// Date and Int are interchangeable payloads.
	return (col == catalog.Date && val == catalog.Int) || (col == catalog.Int && val == catalog.Date)
}

// at returns the value at segment-local row local.
func (c *columnData) at(local int) value.Value {
	switch c.kind {
	case catalog.Int:
		return value.Int(c.ints[local])
	case catalog.Date:
		return value.Date(c.ints[local])
	case catalog.Float:
		return value.Float(c.floats[local])
	default:
		return value.Str(c.strs[local])
	}
}

// Value returns the value at (row, col); row is a global row id.
func (t *Table) Value(row, col int) value.Value {
	p, local := t.segOf(row)
	return t.segs[p].cols[col].at(local)
}

// ReadRow fills dst (which must have len == number of columns) with the
// values of the given row, avoiding allocation in scan loops.
func (t *Table) ReadRow(row int, dst value.Row) {
	p, local := t.segOf(row)
	cols := t.segs[p].cols
	for i := range cols {
		dst[i] = cols[i].at(local)
	}
}

// Row returns a freshly allocated copy of the given row.
func (t *Table) Row(row int) value.Row {
	out := make(value.Row, len(t.schema.Columns))
	t.ReadRow(row, out)
	return out
}

// AppendColumn appends the values of column col for global rows [lo, hi)
// to dst, a vector of the column's kind: one typed copy per shard the
// range touches. The range may straddle shard boundaries.
//
//qo:hotpath
func (t *Table) AppendColumn(dst *value.Vec, col, lo, hi int) {
	for lo < hi {
		p, local := t.segOf(lo)
		n := min(hi-lo, t.segs[p].rows-local)
		c := &t.segs[p].cols[col]
		switch c.kind {
		case catalog.Float:
			dst.F = append(dst.F, c.floats[local:local+n]...)
		case catalog.String:
			dst.S = append(dst.S, c.strs[local:local+n]...)
		default:
			dst.I = append(dst.I, c.ints[local:local+n]...)
		}
		lo += n
	}
}

// AppendColumnSel appends the values of column col for global rows
// lo+offs[i] to dst, a vector of the column's kind. offs must be strictly
// ascending; the rows it names may straddle shard boundaries. Contiguous
// offsets — a window every row of which is wanted — range-load through
// AppendColumn.
//
//qo:hotpath
func (t *Table) AppendColumnSel(dst *value.Vec, col, lo int, offs []int) {
	if n := len(offs); n > 0 && offs[n-1]-offs[0] == n-1 {
		t.AppendColumn(dst, col, lo+offs[0], lo+offs[n-1]+1)
		return
	}
	for len(offs) > 0 {
		c, shift, n := t.selRun(col, lo, offs)
		appendAt(c, dst, shift, offs[:n])
		offs = offs[n:]
	}
}

// AppendColumnRows appends the values of column col at the global row
// ids rows, in rows' order, to dst, a vector of the column's kind: the
// typed fetch of a RID list. Each run of rows inside one shard is one
// typed gather.
//
//qo:hotpath
func (t *Table) AppendColumnRows(dst *value.Vec, col int, rows []int32) {
	for len(rows) > 0 {
		p, _ := t.segOf(int(rows[0]))
		lo, hi := t.PartitionSpan(p)
		n := 1
		for n < len(rows) && int(rows[n]) >= lo && int(rows[n]) < hi {
			n++
		}
		appendAt(&t.segs[p].cols[col], dst, -lo, rows[:n])
		rows = rows[n:]
	}
}

// appendAt appends the values of column c at rows shift+idx[k] to dst.
//
//qo:hotpath
func appendAt[X int | int32](c *columnData, dst *value.Vec, shift int, idx []X) {
	switch c.kind {
	case catalog.Float:
		dst.F = gatherAt(dst.F, c.floats, shift, idx)
	case catalog.String:
		dst.S = gatherAt(dst.S, c.strs, shift, idx)
	default:
		dst.I = gatherAt(dst.I, c.ints, shift, idx)
	}
}

// gatherAt appends xs[shift+idx[k]] to dst for every k, in order.
//
//qo:hotpath
func gatherAt[T int64 | float64 | string, X int | int32](dst, xs []T, shift int, idx []X) []T {
	n := len(dst)
	dst = append(dst, make([]T, len(idx))...)
	out := dst[n:]
	for k, i := range idx {
		out[k] = xs[shift+int(i)]
	}
	return dst
}

// FilterSel appends to out the offsets o of offs whose global row lo+o
// satisfies the bound b, and returns it. The check reads the typed
// payload in place — b's int64, float64 or string interval against an
// Int or Date, a Float or a String column — and agrees with value.Compare
// on every row, which is what expr.SplitPushdown's exactness rests on.
// offs must be strictly ascending; the rows it names may straddle shard
// boundaries.
//
// Each kind runs one branch-free loop (Ross, "Selection conditions in
// main memory", TODS 2004): it writes every offset at the end of the
// output and advances the end by the row's 0/1 verdict, so the time per
// row does not depend on how many rows pass.
//
//qo:hotpath
func (t *Table) FilterSel(b expr.ColBound, lo int, offs, out []int) []int {
	not := b2i(b.Not)
	if !b.IsStr && !b.IsFloat && b.Lo > b.Hi {
		// An empty int64 interval: no row is in it, every row outside.
		if b.Not {
			return append(out, offs...)
		}
		return out
	}
	n0 := len(out)
	out = slices.Grow(out, len(offs))
	dst := out[n0 : n0+len(offs)]
	j := 0
	for len(offs) > 0 {
		c, shift, n := t.selRun(b.Col, lo, offs)
		switch {
		case b.IsStr:
			j += selStr(dst[j:], offs[:n], c.strs, shift, &b, not)
		case b.IsFloat:
			j += selFloat(dst[j:], offs[:n], c.floats, shift, &b)
		default:
			j += selInt(dst[j:], offs[:n], c.ints, shift, b.Lo, uint64(b.Hi-b.Lo), not)
		}
		offs = offs[n:]
	}
	return out[:n0+j]
}

// FilterRange is FilterSel over the contiguous offsets from, from+1, ...,
// to-1, which must name rows of one shard: it reads the typed payload of
// the run in place, so a first bound needs no identity selection vector
// to read from.
//
//qo:hotpath
func (t *Table) FilterRange(b expr.ColBound, lo, from, to int, out []int) []int {
	if from >= to {
		return out
	}
	if !b.IsStr && !b.IsFloat && b.Lo > b.Hi {
		if b.Not {
			for o := from; o < to; o++ {
				out = append(out, o)
			}
		}
		return out
	}
	p, local := t.segOf(lo + from)
	c, run := &t.segs[p].cols[b.Col], local-from
	n0 := len(out)
	out = slices.Grow(out, to-from)
	dst := out[n0 : n0+to-from]
	var j int
	switch {
	case b.IsStr:
		j = selStrRange(dst, from, c.strs[run+from:run+to], &b)
	case b.IsFloat:
		j = selFloatRange(dst, from, c.floats[run+from:run+to], &b)
	default:
		j = selIntRange(dst, from, c.ints[run+from:run+to], b.Lo, uint64(b.Hi-b.Lo), b2i(b.Not))
	}
	return out[:n0+j]
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selInt writes to dst the offsets o of offs whose ints[shift+o] lies in
// [lo, lo+span] — outside it when not is 1 — and returns how many. One
// unsigned comparison tests both sides: x-lo wraps past span below lo.
//
//qo:hotpath
func selInt(dst, offs []int, ints []int64, shift int, lo int64, span uint64, not int) int {
	j := 0
	for _, o := range offs {
		dst[j] = o
		j += b2i(uint64(ints[shift+o]-lo) <= span) ^ not
	}
	return j
}

// selFloat is selInt for a Float bound: ordered comparisons, which a NaN
// fails both of, and the bound's NaN verdict for a NaN row (x != x).
//
//qo:hotpath
func selFloat(dst, offs []int, floats []float64, shift int, b *expr.ColBound) int {
	flo, fhi, nan := b.FLo, b.FHi, b2i(b.NaN)
	j := 0
	if b.Not {
		for _, o := range offs {
			x := floats[shift+o]
			dst[j] = o
			j += b2i(x < flo) | b2i(x > fhi) | b2i(x != x)&nan
		}
		return j
	}
	for _, o := range offs {
		x := floats[shift+o]
		dst[j] = o
		j += b2i(x >= flo)&b2i(x <= fhi) | b2i(x != x)&nan
	}
	return j
}

// selStr is selInt for a String bound, either side of which may be open.
//
//qo:hotpath
func selStr(dst, offs []int, strs []string, shift int, b *expr.ColBound, not int) int {
	slo, shi, hasLo, hasHi := b.StrLo, b.StrHi, b.HasStrLo, b.HasStrHi
	j := 0
	for _, o := range offs {
		s := strs[shift+o]
		dst[j] = o
		j += b2i((!hasLo || s >= slo) && (!hasHi || s <= shi)) ^ not
	}
	return j
}

// selIntRange, selFloatRange and selStrRange are selInt, selFloat and
// selStr over a contiguous run: xs holds the payloads of offsets from,
// from+1, ....
//
//qo:hotpath
func selIntRange(dst []int, from int, ints []int64, lo int64, span uint64, not int) int {
	j := 0
	for i, x := range ints {
		dst[j] = from + i
		j += b2i(uint64(x-lo) <= span) ^ not
	}
	return j
}

//qo:hotpath
func selFloatRange(dst []int, from int, floats []float64, b *expr.ColBound) int {
	flo, fhi, nan := b.FLo, b.FHi, b2i(b.NaN)
	j := 0
	if b.Not {
		for i, x := range floats {
			dst[j] = from + i
			j += b2i(x < flo) | b2i(x > fhi) | b2i(x != x)&nan
		}
		return j
	}
	for i, x := range floats {
		dst[j] = from + i
		j += b2i(x >= flo)&b2i(x <= fhi) | b2i(x != x)&nan
	}
	return j
}

//qo:hotpath
func selStrRange(dst []int, from int, strs []string, b *expr.ColBound) int {
	slo, shi, hasLo, hasHi, not := b.StrLo, b.StrHi, b.HasStrLo, b.HasStrHi, b2i(b.Not)
	j := 0
	for i, s := range strs {
		dst[j] = from + i
		j += b2i((!hasLo || s >= slo) && (!hasHi || s <= shi)) ^ not
	}
	return j
}

// Folder receives the typed payloads of one column over a selection
// (FoldSel): xs[shift+o] for each offset o of offs, in order.
type Folder interface {
	FoldInts(xs []int64, shift int, offs []int)
	FoldFloats(xs []float64, shift int, offs []int)
}

// FoldSel hands f the payloads of column col of t, an Int, Date or Float
// column, for global rows lo+offs[i], one call per shard the rows touch:
// FoldInts for an Int or Date column, FoldFloats for a Float one. Nothing
// is boxed, neither a payload into a value.Value nor f into an
// interface. offs must be strictly ascending.
//
//qo:hotpath
func FoldSel[F Folder](t *Table, col, lo int, offs []int, f F) {
	for len(offs) > 0 {
		c, shift, n := t.selRun(col, lo, offs)
		if c.kind == catalog.Float {
			f.FoldFloats(c.floats, shift, offs[:n])
		} else {
			f.FoldInts(c.ints, shift, offs[:n])
		}
		offs = offs[n:]
	}
}

// selRun locates the shard holding global row lo+offs[0] and returns its
// copy of column col, the shift that maps an offset to a row of that
// shard, and n, how many leading offsets fall inside it. offs[0] is
// always taken, so a row past the table panics on the caller's index
// instead of looping.
func (t *Table) selRun(col, lo int, offs []int) (c *columnData, shift, n int) {
	p, local := t.segOf(lo + offs[0])
	shift = local - offs[0]
	return &t.segs[p].cols[col], shift, 1 + sort.SearchInts(offs[1:], t.segs[p].rows-shift)
}

// tileAt locates the tile holding global row row: its shard p, its index
// k among the shard's tiles, and the global row id end it stops before.
func (t *Table) tileAt(row int) (p, k, end int) {
	p, local := t.segOf(row)
	k = local / SegmentRows
	return p, k, t.bases[p] + min((k+1)*SegmentRows, t.segs[p].rows)
}

// tileExcluded reports whether the zone of some bound's column excludes
// tile k of shard p.
//
//qo:hotpath
func (t *Table) tileExcluded(bounds []expr.ColBound, p, k int) bool {
	cols := t.segs[p].cols
	for i := range bounds {
		if cols[bounds[i].Col].zones[k].excludes(&bounds[i]) {
			return true
		}
	}
	return false
}

// ZoneCount is what a table's zone maps prove about a set of pushed
// bounds over some of its shards.
type ZoneCount struct {
	Tiles   int // tiles in the shards
	Skipped int // tiles some bound excludes
	Rows    int // rows in the shards
	Live    int // rows in the tiles no bound excludes
}

// Zones counts the tiles of the listed shards (nil: every shard) that
// the bounds' zones exclude. Live/Rows is then an exact ceiling on the
// fraction of those shards' rows that satisfy every bound.
func (t *Table) Zones(bounds []expr.ColBound, shards []int) ZoneCount {
	var zc ZoneCount
	count := func(p int) {
		rows := t.segs[p].rows
		zc.Rows += rows
		for k := 0; k*SegmentRows < rows; k++ {
			zc.Tiles++
			if t.tileExcluded(bounds, p, k) {
				zc.Skipped++
			} else {
				zc.Live += min(SegmentRows, rows-k*SegmentRows)
			}
		}
	}
	if shards == nil {
		for p := range t.segs {
			count(p)
		}
	}
	for _, p := range shards {
		count(p)
	}
	return zc
}

// invalidateConcat drops the concatenated payload caches after a mutation.
func (t *Table) invalidateConcat() {
	if len(t.segs) == 1 {
		return
	}
	t.concatMu.Lock()
	t.concat = nil
	t.concatOK = nil
	t.concatMu.Unlock()
}

// concatCol returns the column's payloads concatenated in global row-id
// (partition-major) order, built lazily and cached. Mutations (Append)
// invalidate the cache; loading must happen-before concurrent reads, the
// same contract the secondary indexes already rely on.
func (t *Table) concatCol(col int) *columnData {
	t.concatMu.Lock()
	defer t.concatMu.Unlock()
	if t.concat == nil {
		t.concat = make([]columnData, len(t.schema.Columns))
		t.concatOK = make([]bool, len(t.schema.Columns))
	}
	if !t.concatOK[col] {
		out := &t.concat[col]
		out.kind = t.segs[0].cols[col].kind
		switch out.kind {
		case catalog.Int, catalog.Date:
			out.ints = make([]int64, 0, t.rows)
			for s := range t.segs {
				out.ints = append(out.ints, t.segs[s].cols[col].ints...)
			}
		case catalog.Float:
			out.floats = make([]float64, 0, t.rows)
			for s := range t.segs {
				out.floats = append(out.floats, t.segs[s].cols[col].floats...)
			}
		case catalog.String:
			out.strs = make([]string, 0, t.rows)
			for s := range t.segs {
				out.strs = append(out.strs, t.segs[s].cols[col].strs...)
			}
		}
		t.concatOK[col] = true
	}
	return &t.concat[col]
}

// Ints returns the raw payload slice of an Int or Date column, indexed by
// global row id. The caller must not modify it. Returns nil for other
// column types.
func (t *Table) Ints(col int) []int64 {
	kind := t.segs[0].cols[col].kind
	if kind != catalog.Int && kind != catalog.Date {
		return nil
	}
	if len(t.segs) == 1 {
		return t.segs[0].cols[col].ints
	}
	return t.concatCol(col).ints
}

// Floats returns the raw payload slice of a Float column, or nil.
func (t *Table) Floats(col int) []float64 {
	if t.segs[0].cols[col].kind != catalog.Float {
		return nil
	}
	if len(t.segs) == 1 {
		return t.segs[0].cols[col].floats
	}
	return t.concatCol(col).floats
}

// Strings returns the raw payload slice of a String column, or nil.
func (t *Table) Strings(col int) []string {
	if t.segs[0].cols[col].kind != catalog.String {
		return nil
	}
	if len(t.segs) == 1 {
		return t.segs[0].cols[col].strs
	}
	return t.concatCol(col).strs
}

// LookupPK returns the global row id holding the given primary-key value.
// When the table is partitioned on its primary key the owning shard is
// computed directly; otherwise each shard's local index is consulted.
func (t *Table) LookupPK(pk int64) (int, bool) {
	if t.pkCol < 0 {
		return 0, false
	}
	if len(t.segs) == 1 {
		r, ok := t.segs[0].pkIndex[pk]
		return r, ok
	}
	if t.keyCol == t.pkCol {
		p := t.shardOf(pk)
		if local, ok := t.segs[p].pkIndex[pk]; ok {
			return t.bases[p] + local, true
		}
		return 0, false
	}
	for p := range t.segs {
		if local, ok := t.segs[p].pkIndex[pk]; ok {
			return t.bases[p] + local, true
		}
	}
	return 0, false
}

// Database is a set of named tables governed by a catalog.
type Database struct {
	Catalog *catalog.Catalog
	tables  map[string]*Table
}

// NewDatabase returns an empty database over the catalog.
func NewDatabase(cat *catalog.Catalog) *Database {
	return &Database{Catalog: cat, tables: make(map[string]*Table)}
}

// CreateTable registers the schema in the catalog and creates the empty
// table instance.
func (db *Database) CreateTable(schema *catalog.TableSchema) (*Table, error) {
	if err := db.Catalog.AddTable(schema); err != nil {
		return nil, err
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	db.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table instance.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// Validate checks catalog-level integrity (FK targets exist, graph is
// acyclic) and referential integrity of the stored data: every non-null
// foreign-key value must resolve in the referenced table.
func (db *Database) Validate() error {
	if err := db.Catalog.Validate(); err != nil {
		return err
	}
	for name, t := range db.tables {
		for _, fk := range t.schema.Foreign {
			ref := db.tables[fk.RefTable]
			if ref == nil {
				return fmt.Errorf("storage: table %q references table %q with no data instance", name, fk.RefTable)
			}
			col := t.schema.ColumnIndex(fk.Column)
			for _, v := range t.Ints(col) {
				if _, ok := ref.LookupPK(v); !ok {
					return fmt.Errorf("storage: table %q column %q: dangling foreign key %d into %q", name, fk.Column, v, fk.RefTable)
				}
			}
		}
	}
	return nil
}
