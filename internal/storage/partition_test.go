package storage

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

func rangeSchema(parts int, bounds []int64) *catalog.TableSchema {
	return &catalog.TableSchema{
		Name: "pt",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int},
			{Name: "k", Type: catalog.Int},
			{Name: "x", Type: catalog.Float},
			{Name: "s", Type: catalog.String},
		},
		PrimaryKey: "id",
		Partition:  &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: parts, Bounds: bounds},
	}
}

func hashSchema(parts int) *catalog.TableSchema {
	s := rangeSchema(parts, nil)
	s.Partition.Kind = catalog.HashPartition
	return s
}

func fillRandom(t *testing.T, tab *Table, n int, seed int64) []value.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		r := value.Row{
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(1000))),
			value.Float(rng.Float64()),
			value.Str(strings.Repeat("x", 1+rng.Intn(3))),
		}
		if err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// TestPartitionRoutingRange pins the range routing rule: shard 0 below the
// first bound, shard i in [Bounds[i-1], Bounds[i]), last shard unbounded.
func TestPartitionRoutingRange(t *testing.T) {
	tab, err := NewTable(rangeSchema(3, []int64{100, 200}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  int64
		want int
	}{
		{-5, 0}, {0, 0}, {99, 0}, {100, 1}, {150, 1}, {199, 1}, {200, 2}, {1 << 40, 2},
	}
	for _, c := range cases {
		if got, ok := tab.ShardOfKey(c.key); !ok || got != c.want {
			t.Errorf("ShardOfKey(%d) = %d, %v; want %d, true", c.key, got, ok, c.want)
		}
	}
}

// TestPartitionMajorRowIDs checks that global row ids are partition-major:
// each shard owns one contiguous span, spans tile [0, NumRows), and every
// row read back through the global api carries a key its shard owns.
func TestPartitionMajorRowIDs(t *testing.T) {
	for _, mk := range []func() *catalog.TableSchema{
		func() *catalog.TableSchema { return rangeSchema(4, []int64{250, 500, 750}) },
		func() *catalog.TableSchema { return hashSchema(4) },
	} {
		schema := mk()
		tab, err := NewTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, tab, 1000, 7)
		if tab.Partitions() != 4 {
			t.Fatalf("Partitions() = %d", tab.Partitions())
		}
		next := 0
		total := 0
		for p := 0; p < 4; p++ {
			lo, hi := tab.PartitionSpan(p)
			if lo != next {
				t.Fatalf("%s shard %d span starts at %d, want %d", schema.Partition.Kind, p, lo, next)
			}
			if hi-lo != tab.PartitionRows(p) {
				t.Fatalf("shard %d span width %d != PartitionRows %d", p, hi-lo, tab.PartitionRows(p))
			}
			for r := lo; r < hi; r++ {
				key := tab.Value(r, 1).I
				if got, _ := tab.ShardOfKey(key); got != p {
					t.Fatalf("row %d key %d read from shard %d but routes to %d", r, key, p, got)
				}
			}
			next = hi
			total += hi - lo
		}
		if total != tab.NumRows() {
			t.Fatalf("spans cover %d rows, table has %d", total, tab.NumRows())
		}
	}
}

// TestPartitionedReadAPI checks Value/ReadRow/Row/Ints/Floats/Strings agree
// with each other on a partitioned table, and that every appended row is
// present exactly once.
func TestPartitionedReadAPI(t *testing.T) {
	tab, err := NewTable(hashSchema(3))
	if err != nil {
		t.Fatal(err)
	}
	rows := fillRandom(t, tab, 500, 11)
	if tab.NumRows() != len(rows) {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	ints, floats, strs := tab.Ints(1), tab.Floats(2), tab.Strings(3)
	if len(ints) != 500 || len(floats) != 500 || len(strs) != 500 {
		t.Fatalf("concat lengths %d/%d/%d", len(ints), len(floats), len(strs))
	}
	seen := make(map[int64]bool)
	for r := 0; r < tab.NumRows(); r++ {
		row := tab.Row(r)
		id := row[0].I
		if seen[id] {
			t.Fatalf("row id %d appears twice", id)
		}
		seen[id] = true
		want := rows[id]
		for c := range want {
			if row[c] != want[c] {
				t.Fatalf("row %d col %d = %v, want %v", r, c, row[c], want[c])
			}
		}
		if ints[r] != row[1].I || floats[r] != row[2].F || strs[r] != row[3].S {
			t.Fatalf("raw slices disagree with Value at row %d", r)
		}
	}
	if len(seen) != len(rows) {
		t.Fatalf("saw %d distinct rows, appended %d", len(seen), len(rows))
	}
}

// TestPartitionedLookupPK checks pk lookups resolve to the right global
// row id when the pk is not the partition key, and that duplicate pks are
// rejected across shard boundaries.
func TestPartitionedLookupPK(t *testing.T) {
	tab, err := NewTable(rangeSchema(4, []int64{250, 500, 750}))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tab, 800, 13)
	for pk := int64(0); pk < 800; pk += 37 {
		rid, ok := tab.LookupPK(pk)
		if !ok {
			t.Fatalf("LookupPK(%d) missed", pk)
		}
		if got := tab.Value(rid, 0).I; got != pk {
			t.Fatalf("LookupPK(%d) -> row %d holding id %d", pk, rid, got)
		}
	}
	if _, ok := tab.LookupPK(9999); ok {
		t.Error("LookupPK found a pk that was never inserted")
	}
	// A duplicate pk must be rejected even when the row would land in a
	// different shard than the original.
	err = tab.Append(value.Row{value.Int(5), value.Int(999), value.Float(0), value.Str("d")})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("cross-shard duplicate pk not rejected: %v", err)
	}
	if tab.NumRows() != 800 {
		t.Fatalf("failed append mutated row count: %d", tab.NumRows())
	}
}

// TestPartitionedPKLookupDirect checks the direct-shard fast path when the
// table is partitioned on its primary key.
func TestPartitionedPKLookupDirect(t *testing.T) {
	schema := rangeSchema(2, []int64{500})
	schema.Partition.Column = "id"
	tab, err := NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tab, 1000, 17)
	for pk := int64(0); pk < 1000; pk += 101 {
		rid, ok := tab.LookupPK(pk)
		if !ok || tab.Value(rid, 0).I != pk {
			t.Fatalf("LookupPK(%d) failed on pk-partitioned table", pk)
		}
	}
}

// TestPrunePartitions pins the pruning contract for both schemes.
func TestPrunePartitions(t *testing.T) {
	rt, err := NewTable(rangeSchema(4, []int64{100, 200, 300}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi int64
		want   []int
	}{
		{150, 150, []int{1}},
		{0, 99, []int{0}},
		{50, 250, []int{0, 1, 2}},
		{100, 100, []int{1}},
		{99, 100, []int{0, 1}},
		{-50, 1000, []int{0, 1, 2, 3}},
		{300, 301, []int{3}},
		{10, 5, []int{}},
	}
	for _, c := range cases {
		got, ok := rt.PrunePartitions("k", c.lo, c.hi)
		if !ok {
			t.Fatalf("range prune [%d,%d] not evaluated", c.lo, c.hi)
		}
		if len(got) != len(c.want) {
			t.Fatalf("prune [%d,%d] = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("prune [%d,%d] = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
	if _, ok := rt.PrunePartitions("x", 1, 1); ok {
		t.Error("pruned on a non-key column")
	}

	ht, err := NewTable(hashSchema(4))
	if err != nil {
		t.Fatal(err)
	}
	shards, ok := ht.PrunePartitions("k", 42, 42)
	if !ok || len(shards) != 1 {
		t.Fatalf("hash equality prune = %v, %v", shards, ok)
	}
	if want, _ := ht.ShardOfKey(42); shards[0] != want {
		t.Fatalf("hash prune picked shard %d, routing says %d", shards[0], want)
	}
	if _, ok := ht.PrunePartitions("k", 1, 2); ok {
		t.Error("hash partitioning pruned a range predicate")
	}

	ut, err := NewTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ut.PrunePartitions("id", 1, 1); ok {
		t.Error("unpartitioned table claimed to prune")
	}
}

// TestPartitionPageTiling verifies the invariant the engine's charge
// accounting rests on: summing the first-tuple-in-window page formula over
// the per-shard spans equals NumPages exactly, for any shard sizes.
func TestPartitionPageTiling(t *testing.T) {
	tab, err := NewTable(rangeSchema(4, []int64{130, 470, 733}))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tab, 1017, 23)
	const per = TuplesPerPage
	var pages int64
	for p := 0; p < tab.Partitions(); p++ {
		lo, hi := tab.PartitionSpan(p)
		pages += int64((hi+per-1)/per - (lo+per-1)/per)
	}
	if pages != int64(tab.NumPages()) {
		t.Fatalf("per-shard page charges sum to %d, NumPages = %d", pages, tab.NumPages())
	}
}

// TestPartitionConcatInvalidation checks the concatenated column caches are
// rebuilt after an append.
func TestPartitionConcatInvalidation(t *testing.T) {
	tab, err := NewTable(hashSchema(2))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tab, 10, 29)
	before := len(tab.Ints(0))
	if err := tab.Append(value.Row{value.Int(100), value.Int(5), value.Float(1), value.Str("z")}); err != nil {
		t.Fatal(err)
	}
	if got := len(tab.Ints(0)); got != before+1 {
		t.Fatalf("concat cache stale: %d ints after append, want %d", got, before+1)
	}
}

// TestSinglePartitionDegenerate checks a spec with Partitions == 1 behaves
// exactly like an unpartitioned table.
func TestSinglePartitionDegenerate(t *testing.T) {
	tab, err := NewTable(rangeSchema(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tab, 50, 31)
	if tab.Partitions() != 1 {
		t.Fatalf("Partitions() = %d", tab.Partitions())
	}
	if lo, hi := tab.PartitionSpan(0); lo != 0 || hi != 50 {
		t.Fatalf("span = [%d,%d)", lo, hi)
	}
	if _, ok := tab.PrunePartitions("k", 1, 1); ok {
		t.Error("1-partition table claimed to prune")
	}
}

// bulkTable is a 1,000-row table of every column type in 4 range shards
// on k, shard 1 empty; d is the row id as a date.
func bulkTable(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	tab, err := NewTable(&catalog.TableSchema{
		Name: "bulk",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int},
			{Name: "d", Type: catalog.Date},
			{Name: "x", Type: catalog.Float},
			{Name: "s", Type: catalog.String},
		},
		// Shard 1, [300, 300), stays empty.
		Partition: &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{300, 300, 700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tab.Append(value.Row{
			value.Int(int64(rng.Intn(1000))), value.Date(int64(i)),
			value.Float(rng.Float64()), value.Str(strings.Repeat("y", rng.Intn(4))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.PartitionRows(1) != 0 {
		t.Fatalf("fixture: shard 1 holds %d rows, want 0", tab.PartitionRows(1))
	}
	return tab
}

// randomSel draws a window [lo, hi) of tab and ascending offsets from lo
// into it: every row of the window on even trials (the contiguous case),
// about a third of them otherwise.
func randomSel(tab *Table, rng *rand.Rand, trial int) (lo, hi int, offs []int) {
	lo = rng.Intn(tab.NumRows() + 1)
	hi = lo + rng.Intn(tab.NumRows()-lo+1)
	for r := lo; r < hi; r++ {
		if trial%2 == 0 || rng.Intn(3) == 0 {
			offs = append(offs, r-lo)
		}
	}
	return lo, hi, offs
}

// TestAppendColumnMatchesValue checks the typed bulk loads against Value,
// cell by cell, over ranges and selections that straddle shard boundaries
// — an empty shard included — and over RID lists in any order, for every
// column type, each appended after a value already in the vector.
func TestAppendColumnMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := bulkTable(t, rng)
	load := func(c int, fill func(*value.Vec)) []value.Value {
		v := value.Vec{Kind: tab.Schema().Columns[c].Type}
		v.Append(tab.Value(0, c))
		fill(&v)
		out := make([]value.Value, v.Len())
		for i := range out {
			out[i] = v.At(i)
		}
		if out[0] != tab.Value(0, c) {
			t.Fatalf("col %d: the value already in the vector became %v", c, out[0])
		}
		return out[1:]
	}
	for trial := 0; trial < 200; trial++ {
		lo, hi, offs := randomSel(tab, rng, trial)
		rids := make([]int32, rng.Intn(50))
		for i := range rids {
			rids[i] = int32(rng.Intn(tab.NumRows()))
		}
		for c := 0; c < 4; c++ {
			got := load(c, func(v *value.Vec) { tab.AppendColumn(v, c, lo, hi) })
			if len(got) != hi-lo {
				t.Fatalf("AppendColumn(col %d, [%d,%d)) returned %d values", c, lo, hi, len(got))
			}
			for r := lo; r < hi; r++ {
				if got[r-lo] != tab.Value(r, c) {
					t.Fatalf("AppendColumn(col %d, [%d,%d)) row %d = %v, want %v", c, lo, hi, r, got[r-lo], tab.Value(r, c))
				}
			}
			sel := load(c, func(v *value.Vec) { tab.AppendColumnSel(v, c, lo, offs) })
			if len(sel) != len(offs) {
				t.Fatalf("AppendColumnSel(col %d) returned %d values for %d offsets", c, len(sel), len(offs))
			}
			for i, o := range offs {
				if sel[i] != tab.Value(lo+o, c) {
					t.Fatalf("AppendColumnSel(col %d) row %d = %v, want %v", c, lo+o, sel[i], tab.Value(lo+o, c))
				}
			}
			byRid := load(c, func(v *value.Vec) { tab.AppendColumnRows(v, c, rids) })
			if len(byRid) != len(rids) {
				t.Fatalf("AppendColumnRows(col %d) returned %d values for %d rows", c, len(byRid), len(rids))
			}
			for i, r := range rids {
				if byRid[i] != tab.Value(int(r), c) {
					t.Fatalf("AppendColumnRows(col %d) row %d = %v, want %v", c, r, byRid[i], tab.Value(int(r), c))
				}
			}
		}
	}
}

// edgeTable is bulkTable with edge values mixed in: MinInt64, MaxInt64
// and -1 among the Int and Date rows, and NaN, ±Inf, -0, the largest and
// smallest floats and float64(MaxInt64) among the Float rows, whose other
// values fall on a coarse grid so literals hit them exactly.
func edgeTable(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	tab, err := NewTable(&catalog.TableSchema{
		Name: "edge",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int},
			{Name: "d", Type: catalog.Date},
			{Name: "x", Type: catalog.Float},
			{Name: "s", Type: catalog.String},
		},
		Partition: &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{300, 300, 700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{math.MinInt64, math.MaxInt64, -1}
	for i := 0; i < 3000; i++ {
		k, d := int64(rng.Intn(1000)), int64(i)
		if rng.Intn(20) == 0 {
			k = ints[rng.Intn(len(ints))]
		}
		if rng.Intn(20) == 0 {
			d = ints[rng.Intn(len(ints))]
		}
		x := float64(rng.Intn(13)-6) / 2
		if rng.Intn(5) == 0 {
			x = edgeFloats[rng.Intn(len(edgeFloats))]
		}
		if err := tab.Append(value.Row{value.Int(k), value.Date(d), value.Float(x), value.Str(edgeStrs[rng.Intn(len(edgeStrs))])}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

var (
	edgeFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64), -3, 3}
	edgeInts = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 299, 300, math.MaxInt64 - 1, math.MaxInt64}
	edgeStrs = []string{"", "a", "ab", "b", "y", "yy"}
)

// edgeLit draws a literal to compare column c of edgeTable with: an Int
// for k, an Int or Date for d, a String for s, and for x a Float (never
// NaN), an Int or a Date — the conversions value.Compare makes.
func edgeLit(c int, rng *rand.Rand) expr.Expr {
	i := edgeInts[rng.Intn(len(edgeInts))]
	if rng.Intn(2) == 0 {
		i = int64(rng.Intn(1100) - 50)
	}
	switch c {
	case 0:
		return expr.IntLit(i)
	case 1:
		if rng.Intn(2) == 0 {
			return expr.DateLit(i)
		}
		return expr.IntLit(i)
	case 3:
		return expr.StrLit(append(edgeStrs, "aa", "z")[rng.Intn(len(edgeStrs)+2)])
	}
	switch rng.Intn(4) {
	case 0:
		return expr.IntLit([]int64{math.MinInt64, math.MaxInt64, -3, 0, 2}[rng.Intn(5)])
	case 1:
		return expr.DateLit(int64(rng.Intn(7) - 3))
	}
	if f := edgeFloats[1+rng.Intn(len(edgeFloats)-1)]; rng.Intn(3) == 0 {
		return expr.FloatLit(f)
	}
	return expr.FloatLit(float64(rng.Intn(15)-7) / 2)
}

// TestFilterSelMatchesCompare is the property that expr.SplitPushdown's
// exactness rests on: for every operator (= <> < <= > >= BETWEEN) and
// every column kind (Int, Date, Float, String), in both orientations,
// the bound expr.PushableBound makes of a column-literal conjunct keeps
// under FilterSel exactly the rows value.Compare says satisfy it, over
// selections that straddle shard boundaries and an empty shard. Values
// and literals include NaN, ±Inf, -0, MinInt64 and MaxInt64, and Int and
// Date literals against the Float column. Strict string inequalities are
// the one shape that must stay residual.
func TestFilterSelMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := edgeTable(t, rng)
	schema := expr.SchemaForTable(tab.Schema())
	for trial := 0; trial < 2800; trial++ {
		c, op := trial%4, trial/4%7
		col := expr.C(tab.Schema().Columns[c].Name)
		var e expr.Expr
		switch {
		case op == 6:
			e = expr.Between{E: col, Lo: edgeLit(c, rng), Hi: edgeLit(c, rng)}
		case rng.Intn(2) == 0:
			e = expr.Cmp{Op: expr.CmpOp(op), L: col, R: edgeLit(c, rng)}
		default:
			e = expr.Cmp{Op: expr.CmpOp(op), L: edgeLit(c, rng), R: col}
		}
		b, ok := expr.PushableBound(e, schema)
		if strict := c == 3 && (op == int(expr.LT) || op == int(expr.GT)); ok == strict {
			t.Fatalf("%s: pushed %v, want %v", e, ok, !strict)
		}
		if !ok {
			continue
		}
		lo, _, offs := randomSel(tab, rng, trial)
		holds := satisfies(t, tab, e)
		var want []int
		for _, o := range offs {
			if holds(lo + o) {
				want = append(want, o)
			}
		}
		got := tab.FilterSel(b, lo, offs, []int{-1})
		if got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: FilterSel(%+v, lo=%d) = %v, want %v", e, b, lo, got[1:], want)
		}
		// FilterRange over a run of one shard keeps what FilterSel keeps
		// over the same offsets.
		if p := rng.Intn(tab.Partitions()); tab.PartitionRows(p) > 0 {
			plo, phi := tab.PartitionSpan(p)
			from := plo + rng.Intn(phi-plo)
			to := from + rng.Intn(phi-from+1)
			var ids []int
			for o := from; o < to; o++ {
				ids = append(ids, o)
			}
			want := tab.FilterSel(b, 0, ids, nil)
			if got := tab.FilterRange(b, 0, from, to, []int{-1}); got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s: FilterRange(%+v, %d, %d) = %v, want %v", e, b, from, to, got[1:], want)
			}
		}
	}
}
