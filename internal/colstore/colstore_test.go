package colstore

import (
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// encOfInts builds a single-segment, single-column encoding by hand so
// codec internals can be exercised without a storage table.
func encOfInts(vals []int64, kind catalog.Type) *TableEncoding {
	e := &TableEncoding{name: "t", rows: len(vals), segs: []Segment{{Lo: 0, Hi: len(vals)}}}
	e.cols = make([]colEncoding, 1)
	e.cols[0].kind = kind
	e.cols[0].segs = make([]segColumn, 1)
	encodeIntSeg(&e.cols[0].segs[0], vals)
	return e
}

func encOfStrings(vals []string) *TableEncoding {
	e := &TableEncoding{name: "t", rows: len(vals), segs: []Segment{{Lo: 0, Hi: len(vals)}}}
	e.cols = make([]colEncoding, 1)
	e.cols[0].kind = catalog.String
	codes := buildDict(&e.cols[0], vals)
	e.cols[0].segs = make([]segColumn, 1)
	encodeDictSeg(&e.cols[0], &e.cols[0].segs[0], codes)
	return e
}

// decodeAll materializes every row of column col, one segment at a time,
// through AppendColSel with a full selection.
func decodeAll(e *TableEncoding, col int) []value.Value {
	var out []value.Value
	for si, seg := range e.segs {
		sel := make([]int, seg.Rows())
		for i := range sel {
			sel[i] = i
		}
		out = e.AppendColSel(out, col, si, seg.Lo, sel)
	}
	return out
}

func TestIntCodecChoice(t *testing.T) {
	runs := make([]int64, 0, 4096)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			runs = append(runs, int64(i*1000))
		}
	}
	e := encOfInts(runs, catalog.Int)
	if got := e.cols[0].segs[0].enc; got != encRLE {
		t.Errorf("run-heavy segment encoded as %d, want RLE", got)
	}
	noise := make([]int64, 4096)
	for i := range noise {
		noise[i] = int64((i*2654435761 + 12345) % 100000)
	}
	e = encOfInts(noise, catalog.Int)
	if got := e.cols[0].segs[0].enc; got != encPacked {
		t.Errorf("noisy segment encoded as %d, want packed", got)
	}
	if w := e.cols[0].segs[0].width; w != 17 {
		t.Errorf("width = %d, want 17 for range <100000", w)
	}
}

func TestIntRoundTrip(t *testing.T) {
	cases := map[string][]int64{
		"empty-range": {5, 5, 5, 5},
		"sequential":  {0, 1, 2, 3, 4, 5, 6, 7},
		"negative":    {-1 << 62, 0, 1 << 62, -7, 7},
		"runs":        {9, 9, 9, 2, 2, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
		"single":      {42},
		"minmax":      {-9223372036854775808, 9223372036854775807},
	}
	for name, vals := range cases {
		e := encOfInts(vals, catalog.Date)
		got := decodeAll(e, 0)
		if len(got) != len(vals) {
			t.Fatalf("%s: decoded %d values, want %d", name, len(got), len(vals))
		}
		for i, v := range got {
			if v.Kind != catalog.Date || v.I != vals[i] {
				t.Fatalf("%s: row %d decoded %v, want date(%d)", name, i, v, vals[i])
			}
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	vals := []string{"pear", "apple", "pear", "", "fig", "apple", "apple", "zz"}
	e := encOfStrings(vals)
	if d := e.cols[0].dict; len(d) != 5 {
		t.Fatalf("dict = %v, want 5 entries", d)
	}
	for i, v := range decodeAll(e, 0) {
		if v.Kind != catalog.String || v.S != vals[i] {
			t.Fatalf("row %d decoded %v, want %q", i, v, vals[i])
		}
	}
}

func TestAppendColSel(t *testing.T) {
	vals := []int64{10, 11, 12, 13, 14, 15, 16, 17}
	e := encOfInts(vals, catalog.Int)
	got := e.AppendColSel(nil, 0, 0, 2, []int{0, 3, 5})
	want := []int64{12, 15, 17}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.I != want[i] {
			t.Errorf("sel %d = %d, want %d", i, v.I, want[i])
		}
	}
}

// testTable builds a partitioned storage table covering all four column
// kinds, sized to span several segments per shard.
func testTable(t *testing.T, rows, shards int) *storage.Table {
	t.Helper()
	schema := &catalog.TableSchema{
		Name: "mix",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int},
			{Name: "grp", Type: catalog.Int},
			{Name: "day", Type: catalog.Date},
			{Name: "tag", Type: catalog.String},
			{Name: "score", Type: catalog.Float},
		},
		PrimaryKey: "id",
	}
	if shards > 1 {
		spec := &catalog.PartitionSpec{Column: "id", Kind: catalog.RangePartition, Partitions: shards}
		for b := 1; b < shards; b++ {
			spec.Bounds = append(spec.Bounds, int64(b*rows/shards))
		}
		schema.Partition = spec
	}
	tab, err := storage.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"red", "green", "blue", "cyan"}
	for i := 0; i < rows; i++ {
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(i / 512)),
			value.Date(int64((i * 13) % 4000)),
			value.Str(tags[(i/7)%len(tags)]),
			value.Float(float64(i) * 0.25),
		}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestBuildTableIdentity checks shard-aligned tiling and full decode
// identity against storage.Table.Value on a partitioned table.
func TestBuildTableIdentity(t *testing.T) {
	tab := testTable(t, 3*SegmentRows+900, 3)
	e := buildTable(tab)
	if e.Rows() != tab.NumRows() {
		t.Fatalf("encoding rows = %d, want %d", e.Rows(), tab.NumRows())
	}
	for si := 0; si < e.NumSegments(); si++ {
		seg := e.Segment(si)
		lo, hi := tab.PartitionSpan(seg.Shard)
		if seg.Lo < lo || seg.Hi > hi {
			t.Fatalf("segment %d [%d,%d) escapes shard %d span [%d,%d)", si, seg.Lo, seg.Hi, seg.Shard, lo, hi)
		}
		if (seg.Lo-lo)%SegmentRows != 0 {
			t.Fatalf("segment %d not aligned to shard base", si)
		}
	}
	for c := 0; c < e.NumCols(); c++ {
		got := decodeAll(e, c)
		for r := 0; r < tab.NumRows(); r++ {
			if want := tab.Value(r, c); got[r] != want {
				t.Fatalf("col %d row %d: decoded %v, want %v", c, r, got[r], want)
			}
		}
	}
	if e.EncodedBytes() >= e.RawBytes() {
		t.Errorf("EncodedBytes %d >= RawBytes %d; expected compression", e.EncodedBytes(), e.RawBytes())
	}
}

func TestSetGeneration(t *testing.T) {
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	tab, err := db.CreateTable(&catalog.TableSchema{
		Name:       "g",
		Columns:    []catalog.Column{{Name: "k", Type: catalog.Int}},
		PrimaryKey: "k",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tab.Append(value.Row{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	set, err := BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if set.Generation() != 1 {
		t.Fatalf("generation after BuildAll = %d, want 1", set.Generation())
	}
	enc, ok := set.For("g")
	if !ok || enc.Rows() != 10 {
		t.Fatalf("For(g) = %v rows, ok=%v", enc, ok)
	}
	if err := tab.Append(value.Row{value.Int(99)}); err != nil {
		t.Fatal(err)
	}
	// Stale until rebuilt: row counts diverge.
	if enc.Rows() == tab.NumRows() {
		t.Fatal("encoding row count should lag the append")
	}
	if err := set.Rebuild(db); err != nil {
		t.Fatal(err)
	}
	if set.Generation() != 2 {
		t.Fatalf("generation after Rebuild = %d, want 2", set.Generation())
	}
	enc, _ = set.For("g")
	if enc.Rows() != tab.NumRows() {
		t.Fatalf("rebuilt encoding rows = %d, want %d", enc.Rows(), tab.NumRows())
	}
}
