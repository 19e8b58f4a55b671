package storage

import (
	"fmt"
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
// k and q are uniform, so theirs are wide.
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
		if err := tab.Append(value.Row{
			value.Int(int64(rng.Intn(1000))), value.Date(int64(i + rng.Intn(50))), value.Float(rng.Float64()),
			value.Str(fmt.Sprintf("s%03d", i/97+rng.Intn(3))), value.Int(int64(rng.Intn(100) - 50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// randomBound draws a bound on one of tab's zone-mapped columns: an
// integer interval on k, d or q — empty now and then — or a string
// interval on s, each side present or not.
func randomBound(tab *Table, rng *rand.Rand) expr.ColBound {
	switch rng.Intn(4) {
	case 0:
		str := func() string { return fmt.Sprintf("s%03d", rng.Intn(tab.NumRows()/97+4)) }
		return expr.ColBound{Col: 3, IsStr: true, StrLo: str(), HasStrLo: rng.Intn(3) > 0, StrHi: str(), HasStrHi: rng.Intn(3) > 0}
	case 1:
		lo := int64(rng.Intn(tab.NumRows() + 100))
		return expr.ColBound{Col: 1, Lo: lo, Hi: lo + int64(rng.Intn(3000)) - 100}
	case 2:
		lo := int64(rng.Intn(1100) - 50)
		return expr.ColBound{Col: 0, Lo: lo, Hi: lo + int64(rng.Intn(200))}
	}
	lo := int64(rng.Intn(120) - 60)
	return expr.ColBound{Col: 4, Lo: lo, Hi: lo + int64(rng.Intn(10)) - 2}
}

// boundPred is b as the predicate SplitPushdown reduces to it.
func boundPred(tab *Table, b expr.ColBound) expr.Expr {
	col := expr.C(tab.Schema().Columns[b.Col].Name)
	if !b.IsStr {
		lit := expr.IntLit
		if b.Col == 1 {
			lit = expr.DateLit
		}
		return expr.Between{E: col, Lo: lit(b.Lo), Hi: lit(b.Hi)}
	}
	var terms []expr.Expr
	if b.HasStrLo {
		terms = append(terms, expr.Cmp{Op: expr.GE, L: col, R: expr.StrLit(b.StrLo)})
	}
	if b.HasStrHi {
		terms = append(terms, expr.Cmp{Op: expr.LE, L: col, R: expr.StrLit(b.StrHi)})
	}
	if terms == nil {
		terms = append(terms, expr.Cmp{Op: expr.GE, L: col, R: expr.StrLit("")})
	}
	return expr.Conj(terms...)
}

// checkZones holds every zone of tab against the values of its tile, and
// the zone check against FilterSel and the filter-first window against a
// row-by-row evaluation, for trials random bounds. It returns how many
// tiles the bounds excluded.
func checkZones(t *testing.T, tab *Table, rng *rand.Rand, trials int) (excluded int) {
	t.Helper()
	for p := range tab.segs {
		seg := &tab.segs[p]
		for c, cd := range seg.cols {
			if want := (seg.rows + SegmentRows - 1) / SegmentRows; cd.kind != catalog.Float && len(cd.zones) != want {
				t.Fatalf("shard %d column %d: %d zones for %d rows, want %d", p, c, len(cd.zones), seg.rows, want)
			}
			for k, z := range cd.zones {
				var want zone
				for r := k * SegmentRows; r < min((k+1)*SegmentRows, seg.rows); r++ {
					v := cd.at(r)
					if r == k*SegmentRows {
						want = zone{lo: v.I, hi: v.I, slo: v.S, shi: v.S}
					}
					want.lo, want.hi = min(want.lo, v.I), max(want.hi, v.I)
					want.slo, want.shi = min(want.slo, v.S), max(want.shi, v.S)
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
		b := randomBound(tab, rng)
		for p := range tab.segs {
			for k := 0; k*SegmentRows < tab.segs[p].rows; k++ {
				if !tab.tileExcluded([]expr.ColBound{b}, p, k) {
					continue
				}
				excluded++
				lo := tab.bases[p] + k*SegmentRows
				offs := RangeSel(nil, 0, min(SegmentRows, tab.segs[p].rows-k*SegmentRows))
				if kept := tab.FilterSel(b, lo, offs, nil); len(kept) > 0 {
					t.Fatalf("%+v: zone excludes shard %d tile %d, but FilterSel keeps row %d", b, p, k, lo+kept[0])
				}
			}
		}
		// A second bound makes some windows skip tiles for one bound and
		// filter them for the other.
		b2 := randomBound(tab, rng)
		f, err := NewFilter(expr.Conj(boundPred(tab, b), boundPred(tab, b2)), schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Bounds()) < 2 {
			t.Fatalf("%+v, %+v: pushed %d bounds, want 2", b, b2, len(f.Bounds()))
		}
		lo := rng.Intn(tab.NumRows() + 1)
		hi := lo + rng.Intn(tab.NumRows()-lo+1)
		var want []int
		for r := lo; r < hi; r++ {
			if keeps(tab, b, r) && keeps(tab, b2, r) {
				want = append(want, r-lo)
			}
		}
		got, _, err := f.Window(tab, lo, hi)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%+v, %+v over [%d,%d): window kept %v (err %v), want %v", b, b2, lo, hi, got, err, want)
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

// keeps evaluates b on row r of tab, one value at a time.
func keeps(tab *Table, b expr.ColBound, r int) bool {
	v := tab.Value(r, b.Col)
	if b.IsStr {
		return (!b.HasStrLo || v.S >= b.StrLo) && (!b.HasStrHi || v.S <= b.StrHi)
	}
	return v.I >= b.Lo && v.I <= b.Hi
}

// TestTableZones: Append keeps an exact min and max per tile of every
// Int, Date and String column — over an unpartitioned table and over 4
// shards, with partial last tiles and appends that shift later shards'
// bases — and a tile the zone check excludes holds no row FilterSel
// keeps, so the filter-first window equals row-by-row evaluation.
func TestTableZones(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ shards, rows int }{{0, 3*SegmentRows + 17}, {4, 9*SegmentRows + 300}, {4, 100}} {
		t.Run(fmt.Sprintf("shards=%d/rows=%d", c.shards, c.rows), func(t *testing.T) {
			if checkZones(t, zoneTable(t, c.shards, c.rows, rng), rng, 200) == 0 {
				t.Fatal("no bound excluded any tile; the zone check went untested")
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
