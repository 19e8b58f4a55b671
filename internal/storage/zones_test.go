package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// zoneTable appends n rows to a table of every column kind, unpartitioned
// (shards 0) or in range shards on k. Rows arrive in random shard order,
// so most appends shift later shards' bases. d climbs with the row number
// and s with it in steps, so their zones are tight and bounds skip tiles;
// k and q are uniform, so theirs are wide. c holds one value over long
// runs of rows, so whole tiles fail c <> v. y climbs with the row number
// too, with a few NaN, ±Inf and -0 rows among the first ones and +Inf at
// the end, so a NaN tile, an infinite tile and tight tiles all occur.
func zoneTable(t testing.TB, shards, n int, rng *rand.Rand) *Table {
	t.Helper()
	s := &catalog.TableSchema{
		Name: "z",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int},
			{Name: "d", Type: catalog.Date},
			{Name: "x", Type: catalog.Float},
			{Name: "s", Type: catalog.String},
			{Name: "q", Type: catalog.Int},
			{Name: "c", Type: catalog.Int},
			{Name: "y", Type: catalog.Float},
		},
	}
	if shards > 0 {
		s.Partition = &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: shards}
		for b := 1; b < shards; b++ {
			s.Partition.Bounds = append(s.Partition.Bounds, int64(b*1000/shards))
		}
	}
	tab, err := NewTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		y := float64(i) / 4
		switch {
		case i < 3:
			y = math.Copysign(0, -1)
		case i >= 1000 && i < 1010:
			y = math.NaN()
		case i >= 2000 && i < 2003:
			y = math.Inf(-1)
		case i >= n-3:
			y = math.Inf(1)
		}
		if err := tab.Append(value.Row{
			value.Int(int64(rng.Intn(1000))), value.Date(int64(i + rng.Intn(50))), value.Float(rng.Float64()),
			value.Str(fmt.Sprintf("s%03d", i/97+rng.Intn(3))), value.Int(int64(rng.Intn(100) - 50)),
			value.Int(int64(i / 20000)), value.Float(y),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// randomConj draws a conjunct that expr.PushableBound pushes, on one of
// tab's columns: an integer interval on k, d or q — empty now and then —
// a string interval on s, each side present or not, an exclusion on c or
// s, or any comparison or BETWEEN of the Float column x or y with an Int
// or Float literal, infinities and -0 among them.
func randomConj(tab *Table, rng *rand.Rand) expr.Expr {
	col := func(i int) expr.Expr { return expr.C(tab.Schema().Columns[i].Name) }
	str := func() expr.Expr { return expr.StrLit(fmt.Sprintf("s%03d", rng.Intn(tab.NumRows()/97+4))) }
	switch rng.Intn(7) {
	case 0:
		switch rng.Intn(5) {
		case 0:
			return expr.Between{E: col(3), Lo: str(), Hi: str()}
		case 1:
			return expr.Cmp{Op: expr.GE, L: col(3), R: str()}
		case 2:
			return expr.Cmp{Op: expr.LE, L: col(3), R: str()}
		case 3:
			return expr.Cmp{Op: expr.EQ, L: col(3), R: str()}
		}
		return expr.Cmp{Op: expr.NE, L: col(3), R: str()}
	case 1:
		lo := int64(rng.Intn(tab.NumRows() + 100))
		return expr.Between{E: col(1), Lo: expr.DateLit(lo), Hi: expr.DateLit(lo + int64(rng.Intn(3000)) - 100)}
	case 2:
		lo := int64(rng.Intn(1100) - 50)
		return expr.Between{E: col(0), Lo: expr.IntLit(lo), Hi: expr.IntLit(lo + int64(rng.Intn(200)))}
	case 3:
		lo := int64(rng.Intn(120) - 60)
		return expr.Between{E: col(4), Lo: expr.IntLit(lo), Hi: expr.IntLit(lo + int64(rng.Intn(10)) - 2)}
	case 4:
		return expr.Cmp{Op: expr.NE, L: col(5), R: expr.IntLit(int64(rng.Intn(3)))}
	}
	c, top := 2, 1.0
	if rng.Intn(3) > 0 {
		c, top = 6, float64(tab.NumRows())/4
	}
	lit := func() expr.Expr {
		switch rng.Intn(8) {
		case 0:
			return expr.FloatLit([]float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(3)])
		case 1:
			return expr.IntLit(int64(rng.Float64() * top))
		}
		return expr.FloatLit(rng.Float64()*top*1.1 - top*0.05)
	}
	if op := rng.Intn(7); op < 6 {
		return expr.Cmp{Op: expr.CmpOp(op), L: col(c), R: lit()}
	}
	lo := lit()
	if rng.Intn(2) == 0 {
		return expr.Between{E: col(c), Lo: lo, Hi: lit()}
	}
	hi := expr.FloatLit(lo.(expr.Lit).Val.AsFloat() + rng.Float64()*top/4)
	return expr.Between{E: col(c), Lo: lo, Hi: hi}
}

// satisfies compiles e, a comparison or BETWEEN of a column of tab with
// literals, to a check of row r through value.Compare, one value at a
// time.
func satisfies(t testing.TB, tab *Table, e expr.Expr) func(r int) bool {
	t.Helper()
	ord := func(c expr.Expr) int { return tab.Schema().ColumnIndex(c.(expr.Col).Ref.Column) }
	cmp := func(a, b value.Value) int {
		c, err := value.Compare(a, b)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		return c
	}
	switch e := e.(type) {
	case expr.Cmp:
		holds := map[expr.CmpOp]func(int) bool{
			expr.EQ: func(c int) bool { return c == 0 }, expr.NE: func(c int) bool { return c != 0 },
			expr.LT: func(c int) bool { return c < 0 }, expr.LE: func(c int) bool { return c <= 0 },
			expr.GT: func(c int) bool { return c > 0 }, expr.GE: func(c int) bool { return c >= 0 },
		}[e.Op]
		if lit, ok := e.R.(expr.Lit); ok {
			c := ord(e.L)
			return func(r int) bool { return holds(cmp(tab.Value(r, c), lit.Val)) }
		}
		lit, c := e.L.(expr.Lit), ord(e.R)
		return func(r int) bool { return holds(cmp(lit.Val, tab.Value(r, c))) }
	case expr.Between:
		c, lo, hi := ord(e.E), e.Lo.(expr.Lit).Val, e.Hi.(expr.Lit).Val
		return func(r int) bool { v := tab.Value(r, c); return cmp(v, lo) >= 0 && cmp(v, hi) <= 0 }
	}
	t.Fatalf("satisfies: unexpected shape %s", e)
	return nil
}

// boundKind names the kind of bound b is, as checkZones counts them.
func boundKind(b expr.ColBound) string {
	switch {
	case b.IsFloat:
		return "float"
	case b.Not:
		return "exclusion"
	}
	return "interval"
}

// checkZones holds every zone of tab against the values of its tile, and
// the zone check against row-by-row evaluation and the filter-first
// window against it too, for trials random conjuncts. It returns how many
// tiles the conjuncts' bounds excluded, by boundKind.
func checkZones(t *testing.T, tab *Table, rng *rand.Rand, trials int) map[string]int {
	t.Helper()
	excluded := map[string]int{}
	for p := range tab.segs {
		seg := &tab.segs[p]
		for c, cd := range seg.cols {
			if want := (seg.rows + SegmentRows - 1) / SegmentRows; len(cd.zones) != want {
				t.Fatalf("shard %d column %d: %d zones for %d rows, want %d", p, c, len(cd.zones), seg.rows, want)
			}
			for k, z := range cd.zones {
				want := zone{flo: math.Inf(1), fhi: math.Inf(-1)}
				for r := k * SegmentRows; r < min((k+1)*SegmentRows, seg.rows); r++ {
					v := cd.at(r)
					if r == k*SegmentRows {
						want.lo, want.hi, want.slo, want.shi = v.I, v.I, v.S, v.S
					}
					want.lo, want.hi = min(want.lo, v.I), max(want.hi, v.I)
					want.slo, want.shi = min(want.slo, v.S), max(want.shi, v.S)
					if cd.kind != catalog.Float {
						continue
					}
					if math.IsNaN(v.F) {
						want.nan = true
					} else {
						want.flo, want.fhi = min(want.flo, v.F), max(want.fhi, v.F)
					}
				}
				if cd.kind != catalog.Float {
					want.flo, want.fhi = 0, 0
				}
				if z != want {
					t.Fatalf("shard %d column %d tile %d: zone %+v, brute force %+v", p, c, k, z, want)
				}
			}
		}
	}
	for c := range tab.Schema().Columns {
		if got, want := tab.NonDecreasing(tab.Schema().Columns[c].Name), nonDecreasing(tab, c); got != want {
			t.Fatalf("column %d: NonDecreasing = %v, brute force %v", c, got, want)
		}
	}
	schema := expr.SchemaForTable(tab.Schema())
	for trial := 0; trial < trials; trial++ {
		e := randomConj(tab, rng)
		b, ok := expr.PushableBound(e, schema)
		if !ok {
			t.Fatalf("%s: not pushed", e)
		}
		holds := satisfies(t, tab, e)
		for p := range tab.segs {
			for k := 0; k*SegmentRows < tab.segs[p].rows; k++ {
				if !tab.tileExcluded([]expr.ColBound{b}, p, k) {
					continue
				}
				excluded[boundKind(b)]++
				lo := tab.bases[p] + k*SegmentRows
				for r := lo; r < lo+min(SegmentRows, tab.segs[p].rows-k*SegmentRows); r++ {
					if holds(r) {
						t.Fatalf("%s (%+v): zone excludes shard %d tile %d, but row %d satisfies it", e, b, p, k, r)
					}
				}
			}
		}
		// A second conjunct makes some windows skip tiles for one bound
		// and filter them for the other.
		e2 := randomConj(tab, rng)
		f, err := NewFilter(expr.Conj(e, e2), schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Bounds()) != 2 || f.Residual() != nil {
			t.Fatalf("%s AND %s: pushed %d bounds, residual %v; want 2 and none", e, e2, len(f.Bounds()), f.Residual())
		}
		lo := rng.Intn(tab.NumRows() + 1)
		hi := lo + rng.Intn(tab.NumRows()-lo+1)
		var want []int
		holds2 := satisfies(t, tab, e2)
		for r := lo; r < hi; r++ {
			if holds(r) && holds2(r) {
				want = append(want, r-lo)
			}
		}
		got, _, err := f.Window(tab, lo, hi)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s AND %s over [%d,%d): window kept %v (err %v), want %v", e, e2, lo, hi, got, err, want)
		}
	}
	return excluded
}

// nonDecreasing reads column c of tab in row-id order and reports whether
// no value sorts before the one ahead of it.
func nonDecreasing(tab *Table, c int) bool {
	for r := 1; r < tab.NumRows(); r++ {
		if cmp, _ := value.Compare(tab.Value(r, c), tab.Value(r-1, c)); cmp < 0 {
			return false
		}
	}
	return true
}

// TestTableNonDecreasing: NonDecreasing follows the rows, not a
// declaration — sorted columns stay sorted over appends that shift later
// shards, one smaller row clears the bit for good, and a drop across a
// shard boundary counts though each shard is sorted.
func TestTableNonDecreasing(t *testing.T) {
	for _, shards := range []int{0, 3} {
		s := &catalog.TableSchema{Name: "o", Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int}, {Name: "v", Type: catalog.Int},
			{Name: "x", Type: catalog.Float}, {Name: "s", Type: catalog.String},
		}}
		if shards > 0 {
			s.Partition = &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: shards, Bounds: []int64{100, 200}}
		}
		tab, err := NewTable(s)
		if err != nil {
			t.Fatal(err)
		}
		if !tab.NonDecreasing("v") {
			t.Fatalf("shards=%d: an empty column is not non-decreasing", shards)
		}
		// k visits the shards out of order; v, x and s climb with the
		// row id, and so with k inside every shard.
		for i, k := range []int64{250, 10, 150, 260, 20, 160} {
			row := value.Row{value.Int(k), value.Int(k), value.Float(float64(k) / 2), value.Str(fmt.Sprintf("s%03d", k))}
			if err := tab.Append(row); err != nil {
				t.Fatal(err)
			}
			for c := range s.Columns {
				if got, want := tab.NonDecreasing(tab.Schema().Columns[c].Name), nonDecreasing(tab, c); got != want {
					t.Fatalf("shards=%d after %d rows, column %d: NonDecreasing = %v, brute force %v", shards, i+1, c, got, want)
				}
			}
		}
		if shards > 0 && !tab.NonDecreasing("v") {
			t.Fatalf("shards=%d: k-ordered shards lost their order", shards)
		}
		if err := tab.Append(value.Row{value.Int(30), value.Int(0), value.Float(0), value.Str("a")}); err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(value.Row{value.Int(40), value.Int(1 << 20), value.Float(1e9), value.Str("z")}); err != nil {
			t.Fatal(err)
		}
		for c := 1; c < len(s.Columns); c++ {
			if tab.NonDecreasing(tab.Schema().Columns[c].Name) || nonDecreasing(tab, c) {
				t.Fatalf("shards=%d column %d: a smaller row left the column non-decreasing", shards, c)
			}
		}
	}
	// Each shard sorted, the boundary not: shard 0 ends above shard 1's
	// first row.
	s := &catalog.TableSchema{Name: "b", Columns: []catalog.Column{{Name: "k", Type: catalog.Int}, {Name: "v", Type: catalog.Int}},
		Partition: &catalog.PartitionSpec{Column: "k", Kind: catalog.RangePartition, Partitions: 2, Bounds: []int64{100}}}
	tab, err := NewTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]int64{{1, 5}, {2, 9}, {101, 7}, {102, 8}} {
		if err := tab.Append(value.Row{value.Int(kv[0]), value.Int(kv[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if !tab.NonDecreasing("k") || tab.NonDecreasing("v") {
		t.Fatalf("NonDecreasing = %v, %v; want true, false", tab.NonDecreasing("k"), tab.NonDecreasing("v"))
	}
}

// TestTableZones: Append keeps an exact min and max per tile of every
// column, and a NaN mark for a Float tile — over an unpartitioned table
// and over 4 shards, with partial last tiles and appends that shift later
// shards' bases — and a tile the zone check excludes, for an interval, an
// exclusion or a Float bound, holds no row that satisfies the conjunct,
// so the filter-first window equals row-by-row evaluation.
func TestTableZones(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ shards, rows int }{{0, 3*SegmentRows + 17}, {4, 9*SegmentRows + 300}, {4, 100}} {
		t.Run(fmt.Sprintf("shards=%d/rows=%d", c.shards, c.rows), func(t *testing.T) {
			excluded := checkZones(t, zoneTable(t, c.shards, c.rows, rng), rng, 200)
			for _, kind := range []string{"interval", "exclusion", "float"} {
				if excluded[kind] == 0 {
					t.Errorf("no %s bound excluded any tile; its zone check went untested", kind)
				}
			}
		})
	}
}

// FuzzTableZones checks TestTableZones' properties on fuzzed layouts:
// shard count, row count and the random stream that fills and probes
// the table.
func FuzzTableZones(f *testing.F) {
	f.Add(uint8(0), uint16(5000), int64(1))
	f.Add(uint8(3), uint16(13000), int64(2))
	f.Fuzz(func(t *testing.T, shards uint8, rows uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkZones(t, zoneTable(t, int(shards%6), int(rows)%(4*SegmentRows), rng), rng, 20)
	})
}
