package engine

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// The engine's differential harness: every execution mode must return the
// same rows and charge byte-identical cost.Counters, since simulated time
// is the cost model applied to them. A trial draws a point of the axis
// table and a seed for the literals, runs the plan at that point, and
// holds it against the reference engine (materialize_test.go) on every
// full drain, rows and counters; the reference runs an Exchange's source
// serially and has no zone maps, so every clustered trial whose lineitem
// filter has a pushable prefix checks tile skipping against it. Every leg
// also returns the rows of the serial, unpruned plan over the layout's
// departitioned twin under the same LIMIT, and its counters unless shards
// were pruned (fewer pages) or a LIMIT stops a parallel pipeline (how far
// workers run ahead of an early Close is timing). A SeqScan meters the
// zone verdict of its tiles exactly when its filter has a pushable prefix
// and it reads some shard. The instrumented axis runs the plan under
// Instrument, which must change neither rows nor counters; with the
// "global" shape and the DOP axis it places a fused global aggregate
// (fold.go) directly over the lineitem leaf, bare or instrumented,
// serially or over an Exchange at each DOP. FuzzEngineDifferential
// replays a failing trial's seed and axes.

// fixture describes one generated database of the engine tests: part,
// orders, and lineitem with FKs to both, indexes on l_ship, l_receipt and
// l_partkey, and a column of every kind. l_status runs in blocks of 700
// rows and l_qty cycles, so neither draws from the generator: every
// layout of one size holds the same rows.
type fixture struct {
	orders, lines, parts int  // orders, lineitems per order, parts
	shards               int  // equal-width range shards of lineitem on l_ship; 0: unpartitioned
	clustered            bool // l_ship climbs with row position, so zone maps skip
	// flat stores the partitioned layout's rows unpartitioned, in global
	// row-id order: every scan of this twin visits the same tuples in the
	// same order as the partitioned table's.
	flat bool
}

func (f fixture) build(t testing.TB) *Context {
	t.Helper()
	db := storage.NewDatabase(catalog.NewCatalog())
	mk := func(s *catalog.TableSchema) *storage.Table {
		tbl, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	create := func(name, pk string, cols ...string) *storage.Table {
		types := map[string]catalog.Type{"int": catalog.Int, "float": catalog.Float, "date": catalog.Date, "string": catalog.String}
		s := &catalog.TableSchema{Name: name, PrimaryKey: pk}
		for _, c := range cols {
			name, typ, _ := strings.Cut(c, " ")
			s.Columns = append(s.Columns, catalog.Column{Name: name, Type: types[typ]})
		}
		if name == "lineitem" {
			s.Foreign = []catalog.ForeignKey{{Column: "l_orderkey", RefTable: "orders"}, {Column: "l_partkey", RefTable: "part"}}
			for _, c := range []string{"ship", "receipt", "partkey"} {
				s.Indexes = append(s.Indexes, catalog.Index{Name: "ix_" + c, Column: "l_" + c, Kind: catalog.NonClustered})
			}
			if f.shards > 0 {
				s.Partition = &catalog.PartitionSpec{Column: "l_ship", Kind: catalog.RangePartition, Partitions: f.shards}
				for b := 1; b < f.shards; b++ {
					s.Partition.Bounds = append(s.Partition.Bounds, int64(b*100/f.shards))
				}
			}
		}
		return mk(s)
	}
	appendRow := func(tbl *storage.Table, row value.Row) {
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if f.flat {
		src := fixture{orders: f.orders, lines: f.lines, parts: f.parts, shards: f.shards, clustered: f.clustered}.build(t).DB
		for _, name := range []string{"part", "orders", "lineitem"} {
			st := testkit.Table(src, name)
			s := *st.Schema()
			s.Partition = nil
			nt := mk(&s)
			for r := 0; r < st.NumRows(); r++ {
				appendRow(nt, st.Row(r))
			}
		}
	} else {
		part := create("part", "p_partkey", "p_partkey int", "p_size int")
		orders := create("orders", "o_orderkey", "o_orderkey int", "o_total float")
		lineitem := create("lineitem", "l_id", "l_id int", "l_orderkey int", "l_partkey int", "l_ship date",
			"l_receipt date", "l_price float", "l_status string", "l_qty int")
		rng := stats.NewRNG(123)
		for p := 0; p < f.parts; p++ {
			appendRow(part, value.Row{value.Int(int64(p)), value.Int(int64(testkit.Intn(rng, 50)))})
		}
		statuses := []string{"fill", "open", "ship", "void"}
		for o, id := 0, 0; o < f.orders; o++ {
			appendRow(orders, value.Row{value.Int(int64(o)), value.Float(rng.Float64() * 1000)})
			for l := 0; l < f.lines; l, id = l+1, id+1 {
				ship := int64(testkit.Intn(rng, 100))
				if f.clustered {
					ship = int64(id*100/(f.orders*f.lines) + testkit.Intn(rng, 3))
				}
				appendRow(lineitem, value.Row{
					value.Int(int64(id)), value.Int(int64(o)), value.Int(int64(testkit.Intn(rng, f.parts))),
					value.Date(ship), value.Date(ship + int64(testkit.Intn(rng, 10))),
					value.Float(float64(testkit.Intn(rng, 10000)) / 100),
					value.Str(statuses[id/700%len(statuses)]), value.Int(int64(id * 7 % 50)),
				})
			}
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// point is one point of the axis table.
type point struct {
	shape, top int  // indexes into shapes and tops
	dop        int  // 0: serial, else each scan's Exchange's DOP
	shards     int  // lineitem's range shards
	pruned     bool // lineitem leaves read only the shards their l_ship window touches
	clustered  bool // l_ship climbs with row position
	columns    bool // PruneColumns runs
	limit      int  // 0: full drain
	// topK bounds every Sort of the plan, which then orders by its first
	// key only, so ties are left to input order; 0: full sorts on every
	// key.
	topK int
	// instrumented runs the plan under Instrument.
	instrumented bool
}

var (
	dops, shardCounts, limits = []int{0, 1, 2, 4}, []int{1, 2, 4}, []int{0, 1, BatchSize + 1}
	// topKs bound a heap by 1, by 10, and by more than any input.
	topKs = []int{0, 1, 10, 1 << 20}
	// radix is how many values each axis takes, in decode's order.
	radix = [...]int{len(shapes), len(tops), len(dops), len(shardCounts), 2, 2, 2, len(limits), len(topKs), 2}
)

// digits maps any integer onto the axis table, one mixed-radix digit per
// axis.
func digits(x uint64) (d [len(radix)]int) {
	for a := range d {
		d[a], x = int(x%uint64(radix[a])), x/uint64(radix[a])
	}
	return d
}

func decode(x uint64) point {
	d := digits(x)
	return point{shape: d[0], top: d[1], dop: dops[d[2]], shards: shardCounts[d[3]], pruned: d[4] == 1,
		clustered: d[5] == 1, columns: d[6] == 1, limit: limits[d[7]], topK: topKs[d[8]], instrumented: d[9] == 1}
}

// defaultTrials draws the default 1,000 trials as (seed, axes) pairs.
func defaultTrials() [][2]uint64 {
	rng := stats.NewRNG(2005)
	out := make([][2]uint64, 1000)
	for i := range out {
		out[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	return out
}

var (
	lid, lkey, lpart, lship = expr.TC("lineitem", "l_id").Ref, expr.TC("lineitem", "l_orderkey").Ref, expr.TC("lineitem", "l_partkey").Ref, expr.TC("lineitem", "l_ship").Ref
	lprice, lreceipt        = expr.TC("lineitem", "l_price").Ref, expr.TC("lineitem", "l_receipt").Ref
	okey, ototal, ppk       = expr.TC("orders", "o_orderkey").Ref, expr.TC("orders", "o_total").Ref, expr.TC("part", "p_partkey").Ref
	psize                   = expr.TC("part", "p_size").Ref
	lineCols, orderCols     = []expr.ColumnRef{lid, lprice, lship}, []expr.ColumnRef{lid, ototal, lship}
	partCols                = []expr.ColumnRef{lid, psize, lship}
)

// gen builds one trial's plan at one point. The literals are drawn once
// per trial, so every leg builds the same query.
type gen struct {
	point
	parts             []int // lineitem leaf shards; nil: all
	sLo, sHi, size    int64
	cut, price, cents float64
	status            string
	leafKind, filter  int
	twoRanges, sorted bool
	// ends narrows the duplicate-key build to both ends of the key range.
	ends bool
}

// leafFilters is how many filters a lineitem SeqScan leaf draws from.
const leafFilters = 8

func newGen(seed uint64) gen {
	rng := stats.NewRNG(seed)
	n := func(k int) int { return testkit.Intn(rng, k) }
	g := gen{sLo: int64(n(110) - 5), cut: rng.Float64() * 1000, price: 5 + rng.Float64()*90, size: int64(n(50)),
		status: []string{"fill", "open", "ship", "void"}[n(4)], leafKind: n(3), filter: n(leafFilters), twoRanges: n(2) == 0, sorted: n(2) == 0}
	g.sHi = g.sLo + int64(n(70))
	g.cents = float64(n(10000)) / 100 // an l_price the fixture holds
	g.ends = n(2) == 0
	return g
}

func (g *gen) wrap(n Node) Node {
	if g.dop == 0 {
		return n
	}
	return &Exchange{Source: n, DOP: g.dop}
}

func (g *gen) ship() expr.Expr {
	return expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(g.sLo), Hi: expr.IntLit(g.sHi)}
}

func (g *gen) totalBelow() expr.Expr {
	return expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(g.cut)}
}

func (g *gen) priceBelow() expr.Expr {
	return expr.Cmp{Op: expr.LT, L: expr.C("l_price"), R: expr.FloatLit(g.price)}
}

// leaf is the lineitem access path: kind 0 SeqScan, 1 IndexRangeScan,
// 2 IndexIntersect, -1 the trial's draw. Every leaf but an unfiltered
// SeqScan reads only the l_ship window, so it honours the leg's shards.
// Only the SeqScan goes under the DOP axis's Exchange: the RID-list scans
// always run serially.
func (g *gen) leaf(kind int) Node {
	if kind < 0 {
		kind = g.leafKind
	}
	ranges := []KeyRange{{Column: "l_ship", Lo: g.sLo, Hi: g.sHi}}
	switch {
	case kind == 1 && g.twoRanges:
		return &IndexRangeScan{Table: "lineitem", Range: ranges[0], Residual: g.priceBelow(), Partitions: g.parts}
	case kind == 1:
		return &IndexRangeScan{Table: "lineitem", Range: ranges[0], Partitions: g.parts}
	case kind == 2 && g.twoRanges:
		ranges = append(ranges, KeyRange{Column: "l_receipt", Lo: g.sLo, Hi: g.sHi + 5})
		fallthrough
	case kind == 2:
		return &IndexIntersect{Table: "lineitem", Ranges: ranges, Partitions: g.parts}
	}
	// Pushable prefixes of every length: whole, partial, empty; <>
	// exclusions over the Int, String and Float columns among them.
	status := func(op expr.CmpOp) expr.Expr {
		return expr.Cmp{Op: op, L: expr.C("l_status"), R: expr.StrLit(g.status)}
	}
	ne := func(col string, lit expr.Expr) expr.Expr { return expr.Cmp{Op: expr.NE, L: expr.C(col), R: lit} }
	filters := []expr.Expr{
		expr.Conj(g.ship(), status(expr.EQ), g.priceBelow()),
		expr.Conj(expr.Contains{E: expr.C("l_status"), Substr: "i"}, g.ship()),
		expr.Conj(status(expr.GE), g.ship(), ne("l_qty", expr.IntLit(7))),
		g.ship(),
		expr.Conj(g.ship(), g.priceBelow()),
		nil,
		expr.Conj(status(expr.NE), ne("l_price", expr.FloatLit(g.cents)), g.ship(), expr.Contains{E: expr.C("l_status"), Substr: "i"}),
		expr.Conj(g.ship(), ne("l_qty", expr.IntLit(g.size)), ne("l_price", expr.FloatLit(g.cents))),
	}
	s := &SeqScan{Table: "lineitem", Filter: filters[g.filter]}
	if s.Filter != nil {
		s.Partitions = g.parts
	}
	return g.wrap(s)
}

func (g *gen) orders() Node { return g.wrap(&SeqScan{Table: "orders", Filter: g.totalBelow()}) }

func (g *gen) part() Node {
	return g.wrap(&SeqScan{Table: "part", Filter: expr.Cmp{Op: expr.LT, L: expr.C("p_size"), R: expr.IntLit(g.size)}})
}

// keyEnds keeps the rows whose col lies below k or at least
// harnessOrders-k: both ends of the orders key range, which keep a join
// table built on them hashed while they hold few rows (jointable.go).
func keyEnds(col string, k int64) expr.Expr {
	return expr.Or{Terms: []expr.Expr{
		expr.Cmp{Op: expr.LT, L: expr.C(col), R: expr.IntLit(k)},
		expr.Cmp{Op: expr.GE, L: expr.C(col), R: expr.IntLit(harnessOrders - k)},
	}}
}

func (g *gen) hash(build, probe Node, bcol, pcol expr.ColumnRef) Node {
	return &HashJoin{Build: build, Probe: probe, BuildCol: bcol, ProbeCol: pcol}
}

func (g *gen) ordersJoin() Node { return g.hash(g.orders(), g.leaf(-1), okey, lkey) }

func (g *gen) star(dim Node, residual expr.Expr) Node {
	return &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{Scan: dim, DimPK: ppk, FactFK: "l_partkey"}}, Residual: residual}
}

// shapes is the plan generator: every shape the engine tests build, with
// three of its output columns for the top, or none when it takes no top.
var shapes = []struct {
	name  string
	cols  []expr.ColumnRef
	build func(g *gen) Node
}{
	{"seqscan", lineCols, func(g *gen) Node { return g.leaf(0) }},
	{"rangescan", lineCols, func(g *gen) Node { return g.leaf(1) }},
	{"intersect", lineCols, func(g *gen) Node { return g.leaf(2) }},
	{"filter", []expr.ColumnRef{ototal, okey, ototal}, func(g *gen) Node {
		return &Filter{Input: g.wrap(&SeqScan{Table: "orders"}), Pred: g.totalBelow()}
	}},
	{"project", lineCols, func(g *gen) Node { return &Project{Input: g.leaf(-1), Cols: []expr.ColumnRef{lprice, lship, lid}} }},
	{"sort", lineCols, func(g *gen) Node {
		return &Sort{Input: g.leaf(-1), By: []SortKey{{Col: lreceipt}, {Col: lid, Desc: true}}}
	}},
	{"aggregate", nil, func(g *gen) Node {
		return &Aggregate{Input: g.leaf(-1), GroupBy: []expr.ColumnRef{lkey}, Aggs: []AggSpec{{Func: Count},
			{Func: Sum, Arg: expr.C("l_price")}, {Func: Min, Arg: expr.C("l_ship")}, {Func: Max, Arg: expr.C("l_receipt")}}}
	}},
	{"limit", lineCols, func(g *gen) Node { return &Limit{N: 1 << 30, Input: g.leaf(-1)} }},
	// A global aggregate over the SeqScan leaf: the fused fold.
	{"global", nil, func(g *gen) Node {
		aggs := []AggSpec{{Func: Count, As: "n"}}
		for _, col := range []string{"l_price", "l_qty", "l_ship"} {
			for _, fn := range []AggFunc{Sum, Avg, Min, Max} {
				aggs = append(aggs, AggSpec{Func: fn, Arg: expr.C(col)})
			}
		}
		return &Aggregate{Input: g.leaf(0), Aggs: aggs}
	}},
	{"hashjoin", orderCols, func(g *gen) Node { return g.ordersJoin() }},
	{"mergejoin", orderCols, func(g *gen) Node {
		return &MergeJoin{Left: g.orders(), Right: g.leaf(-1), LeftCol: okey, RightCol: lkey}
	}},
	// Inputs in append order: the declared order holds unless shards
	// reorder lineitem.
	{"mergejoin-sorted", orderCols, func(g *gen) Node {
		return &MergeJoin{Left: g.orders(), Right: g.leaf(-1), LeftCol: okey, RightCol: lkey, LeftSorted: true, RightSorted: g.sorted}
	}},
	{"inljoin", orderCols, func(g *gen) Node {
		return &INLJoin{Outer: g.leaf(-1), OuterCol: lkey, InnerTable: "orders", InnerCol: "o_orderkey", Residual: g.totalBelow()}
	}},
	// Secondary-index probes whose residual rejects part of each outer
	// batch's matches.
	{"inljoin-index", partCols, func(g *gen) Node {
		return &INLJoin{Outer: g.part(), OuterCol: ppk, InnerTable: "lineitem", InnerCol: "l_partkey", Residual: g.ship()}
	}},
	{"star", partCols, func(g *gen) Node { return g.star(g.part(), nil) }},
	{"star-residual", partCols, func(g *gen) Node {
		return g.star(g.wrap(&SeqScan{Table: "part"}), expr.Conj(g.priceBelow(), expr.Cmp{Op: expr.GT, L: expr.C("l_ship"), R: expr.C("p_size")}))
	}},
	// Multi-way FK chain: part ⋈ (orders ⋈ lineitem).
	{"hash-chain", []expr.ColumnRef{lid, ototal, psize}, func(g *gen) Node {
		return g.hash(g.part(), g.ordersJoin(), ppk, lpart)
	}},
	// A hashed build probing a join over parallel scans whose build is
	// direct-addressed: the orders at both ends of the key range, at most
	// 100 rows over a span of harnessOrders, which stays above 4× their
	// table's slot count (jointable.go), against dense part keys.
	{"hash-over-parallel", []expr.ColumnRef{lid, psize, ototal}, func(g *gen) Node {
		ends := g.wrap(&SeqScan{Table: "orders", Filter: keyEnds("o_orderkey", 1+g.size)})
		return g.hash(ends, g.hash(g.part(), g.leaf(-1), ppk, lpart), okey, lkey)
	}},
	// A build on l_orderkey, which repeats, probed by every order, so each
	// key's chain must come out in build-input order. The lineitem leaf's
	// keys are dense; with ends only both ends of the key range stay, at
	// most 240 rows over a span of harnessOrders, so the table hashes when
	// both ends survive the leaf's filter.
	{"hash-dup-build", orderCols, func(g *gen) Node {
		build := g.leaf(-1)
		if g.ends {
			build = &Filter{Input: build, Pred: keyEnds("l_orderkey", 1+g.size*4/5)}
		}
		return g.hash(build, g.wrap(&SeqScan{Table: "orders"}), lkey, okey)
	}},
}

// tops is what a trial puts above its shape, over the shape's columns c.
var tops = []struct {
	name  string
	build func(n Node, c []expr.ColumnRef) Node
}{
	{"none", func(n Node, c []expr.ColumnRef) Node { return n }},
	{"project-dup", func(n Node, c []expr.ColumnRef) Node {
		return &Project{Input: n, Cols: []expr.ColumnRef{c[1], c[0], c[1]}}
	}},
	{"sort", func(n Node, c []expr.ColumnRef) Node {
		return &Sort{Input: n, By: []SortKey{{Col: c[2], Desc: true}, {Col: c[0]}}}
	}},
	// ORDER BY a column outside the SELECT list.
	{"project-sort", func(n Node, c []expr.ColumnRef) Node {
		return &Project{Input: &Sort{Input: n, By: []SortKey{{Col: c[2]}, {Col: c[0], Desc: true}}}, Cols: c[:2]}
	}},
	{"count", func(n Node, c []expr.ColumnRef) Node {
		return &Aggregate{Input: n, Aggs: []AggSpec{{Func: Count, As: "n"}}}
	}},
	{"group", func(n Node, c []expr.ColumnRef) Node {
		return &Aggregate{Input: n, GroupBy: c[2:], Aggs: []AggSpec{{Func: Sum, Arg: expr.Col{Ref: c[1]}, As: "s"},
			{Func: Max, Arg: expr.Col{Ref: c[0]}, As: "m"}}}
	}},
	// Computed arguments fold through the same typed kernels as columns.
	{"group-computed", func(n Node, c []expr.ColumnRef) Node {
		prod := expr.Arith{Op: expr.Mul, L: expr.Col{Ref: c[0]}, R: expr.Col{Ref: c[1]}}
		return &Aggregate{Input: n, GroupBy: c[2:], Aggs: []AggSpec{{Func: Sum, Arg: prod, As: "s"},
			{Func: Min, Arg: prod, As: "m"}, {Func: Avg, Arg: expr.Col{Ref: c[1]}, As: "a"}, {Func: Count, Arg: expr.Col{Ref: c[0]}, As: "n"}}}
	}},
}

// plan builds the trial's query at point p over ctx: the shape, its top,
// then the LIMIT, pruned to the columns it reads when p says so.
func (g gen) plan(p point, ctx *Context) Node {
	g.point = p
	if p.pruned {
		// Refused only for one shard, which a scan reads whole anyway.
		g.parts, _ = testkit.Table(ctx.DB, "lineitem").PrunePartitions("l_ship", g.sLo, g.sHi)
	}
	shape := shapes[p.shape]
	n := shape.build(&g)
	if shape.cols != nil {
		n = tops[p.top].build(n, shape.cols)
	}
	if p.topK > 0 {
		for _, m := range nodes(n) {
			if s, ok := m.(*Sort); ok {
				s.By, s.TopK = s.By[:1], p.topK
			}
		}
	}
	if p.limit > 0 {
		n = &Limit{Input: n, N: p.limit}
	}
	if p.columns {
		PruneColumns(ctx, n)
	}
	return n
}

// harnessOrders is the orders count of every harness layout.
const harnessOrders = 3000

// layouts caches harnessLayout's fixtures. Trials, fuzz inputs included,
// run one at a time.
var layouts = map[fixture][2]*Context{}

// harnessLayout returns the metered fixture for a layout and its
// departitioned twin, built once per process.
func harnessLayout(t testing.TB, p point) (*Context, *Context) {
	f := fixture{orders: harnessOrders, lines: 3, parts: 40, shards: p.shards, clustered: p.clustered}
	if _, ok := layouts[f]; !ok {
		ctx := f.build(t)
		ctx.Metrics = obs.NewRegistry()
		flat := f
		flat.flat = true
		layouts[f] = [2]*Context{ctx, flat.build(t)}
	}
	return layouts[f][0], layouts[f][1]
}

// runTrial runs one trial and fails t on the first disagreement.
func runTrial(t *testing.T, seed, axes uint64) {
	t.Helper()
	p, g := decode(axes), newGen(seed)
	ctx, flat := harnessLayout(t, p)
	plan := g.plan(p, ctx)
	label := fmt.Sprintf("seed=%d axes=%d %s %+v\n%s", seed, axes, shapes[p.shape].name, p, Explain(plan))
	run := plan
	if p.instrumented {
		run = Instrument(plan)
	}
	scanned, skipped := ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total"), ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total")
	before := scanned.Value() + skipped.Value()
	got, gc, _, err := Run(ctx, run)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Every SeqScan with a pushable prefix and some shard to read meters
	// its tiles' zone verdicts.
	wantMetered, pruned := false, false
	for _, n := range nodes(plan) {
		switch s := n.(type) {
		case *SeqScan:
			full := expr.SchemaForTable(testkit.Table(ctx.DB, s.Table).Schema())
			bounds, _ := expr.SplitPushdown(s.Filter, full)
			wantMetered = wantMetered || len(bounds) > 0 && (s.Partitions == nil || len(s.Partitions) > 0)
			pruned = pruned || s.Partitions != nil
		case *IndexRangeScan:
			pruned = pruned || s.Partitions != nil
		case *IndexIntersect:
			pruned = pruned || s.Partitions != nil
		}
	}
	if metered := scanned.Value()+skipped.Value() > before; metered != wantMetered {
		t.Fatalf("%s: metered segments %v, want %v", label, metered, wantMetered)
	}
	if p.limit == 0 {
		var rc cost.Counters
		ref, err := ExecuteMaterialized(ctx, run, &rc)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		rc.Output += int64(len(ref.Rows)) // Run charges the root's output; the reference does not
		sameResult(t, label+"reference", got, gc, ref, rc, true)
	}
	serial := p
	serial.dop, serial.pruned, serial.columns, serial.instrumented = 0, false, false, false
	base, bc, _, err := Run(flat, g.plan(serial, flat))
	if err != nil {
		t.Fatalf("%s: baseline: %v", label, err)
	}
	sameResult(t, label+"serial baseline", got, gc, base, bc, !pruned && (p.limit == 0 || p.dop < 2))
}

// sameResult fails unless got has want's schema and rows, in order, and,
// when counters is set, want's counters.
func sameResult(t *testing.T, label string, got *Result, gc cost.Counters, want *Result, wc cost.Counters, counters bool) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, want %s", label, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if rowKey(got.Rows[i]) != rowKey(want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
	if counters && gc != wc {
		t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", label, gc, wc)
	}
}

// nodes lists a plan's nodes in pre-order.
func nodes(n Node) []Node {
	out := []Node{n}
	for _, c := range Children(n) {
		out = append(out, nodes(c)...)
	}
	return out
}

// TestEngineDifferential runs the default trials, one subtest per shape.
// Run with -race it is also the data-race proof for the worker pool, the
// shared probe state and the segment metrics.
func TestEngineDifferential(t *testing.T) {
	trials := defaultTrials()
	for s, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, tr := range trials {
				if decode(tr[1]).shape == s {
					runTrial(t, tr[0], tr[1])
				}
			}
		})
	}
}

// FuzzEngineDifferential explores seeds and axis points beyond the
// default trials. It is seeded with the first default trial of each
// shape: a seed corpus of every trial takes longer to gather baseline
// coverage than a short fuzzing run lasts, so mutation would never start.
// Without -fuzz the seeds are TestEngineDifferential's trials, so it
// skips.
func FuzzEngineDifferential(f *testing.F) {
	if fz := flag.Lookup("test.fuzz"); fz == nil || fz.Value.String() == "" {
		f.Skip("the seed corpus runs as TestEngineDifferential")
	}
	seeded := make([]bool, len(shapes))
	for _, tr := range defaultTrials() {
		if s := decode(tr[1]).shape; !seeded[s] {
			seeded[s] = true
			f.Add(tr[0], tr[1])
		}
	}
	f.Fuzz(runTrial)
}

// TestEngineDifferentialCoverage pins the harness's reach: the default
// trials take every value of every axis, cross clustered l_ship, pruned
// shards, DOP 4, pruned columns and a LIMIT in one trial, and place the
// global aggregate bare and instrumented at every DOP. Two shapes must
// gather heap rows across shards (storage.AppendColumnRows): an INLJoin
// into range-partitioned lineitem, and a StarSemiJoin over it whose
// residual reads a fact column the join does not emit.
func TestEngineDifferentialCoverage(t *testing.T) {
	seen, crossed := map[[2]int]bool{}, false
	placed := map[point]bool{}
	var inlSharded, starSharded bool
	for _, tr := range defaultTrials() {
		for a, v := range digits(tr[1]) {
			seen[[2]int{a, v}] = true
		}
		p := decode(tr[1])
		crossed = crossed || p.clustered && p.pruned && p.dop == 4 && p.columns && p.limit > 0
		switch shapes[p.shape].name {
		case "global":
			placed[point{dop: p.dop, instrumented: p.instrumented}] = true
		case "inljoin-index", "star-residual":
			if p.shards < 2 || inlSharded && starSharded {
				continue
			}
			ctx, _ := harnessLayout(t, p)
			if testkit.Table(ctx.DB, "lineitem").Partitions() < 2 {
				t.Fatalf("a %d-shard layout stores lineitem in one shard", p.shards)
			}
			for _, n := range nodes(newGen(tr[0]).plan(p, ctx)) {
				switch j := n.(type) {
				case *INLJoin:
					inlSharded = inlSharded || j.InnerTable == "lineitem"
				case *StarSemiJoin:
					starSharded = starSharded || j.Fact == "lineitem" && residualBeyondEmit(ctx, j)
				}
			}
		}
	}
	if !inlSharded {
		t.Error("no trial runs an INLJoin into range-partitioned lineitem")
	}
	if !starSharded {
		t.Error("no trial runs a StarSemiJoin over range-partitioned lineitem whose residual reads a column it does not emit")
	}
	for _, dop := range dops {
		for _, inst := range []bool{false, true} {
			if !placed[point{dop: dop, instrumented: inst}] {
				t.Errorf("no trial places the global aggregate at DOP %d, instrumented %v", dop, inst)
			}
		}
	}
	for a, n := range radix {
		for v := 0; v < n; v++ {
			if !seen[[2]int{a, v}] {
				t.Errorf("axis %d never takes value %d", a, v)
			}
		}
	}
	if !crossed {
		t.Error("no trial crosses clustered × pruned shards × DOP 4 × pruned columns × LIMIT")
	}
}

// TestEngineDifferentialTableModes: the default trials build hash-join
// tables of both modes, direct-addressed and hashed, as the builds'
// metrics count them; every hash-over-parallel trial's orders build is
// hashed; and hash-dup-build trials build tables of both modes whose
// chains hold repeated keys.
func TestEngineDifferentialTableModes(t *testing.T) {
	var dense, hashed bool
	dup := map[bool]bool{} // dense mode → some build repeats a key
	for _, tr := range defaultTrials() {
		p := decode(tr[1])
		name := shapes[p.shape].name
		ends, dupBuild := name == "hash-over-parallel", name == "hash-dup-build"
		if dense && hashed && !ends && !dupBuild {
			continue
		}
		ctx, _ := harnessLayout(t, p)
		plan := newGen(tr[0]).plan(p, ctx)
		builds, denseBuilds := ctx.Metrics.Counter("robustqo_hashjoin_builds_total"), ctx.Metrics.Counter("robustqo_hashjoin_dense_builds_total")
		b0, d0 := builds.Value(), denseBuilds.Value()
		if _, _, _, err := Run(ctx, plan); err != nil {
			t.Fatalf("seed=%d axes=%d: %v", tr[0], tr[1], err)
		}
		d := denseBuilds.Value() - d0
		dense, hashed = dense || d > 0, hashed || builds.Value()-b0 > d
		for _, n := range nodes(plan) {
			j, ok := n.(*HashJoin)
			if !ok || !(ends && j.BuildCol == okey || dupBuild && j.BuildCol == lkey) {
				continue
			}
			op := &hashJoinOp{node: j}
			if err := op.Open(ctx, &cost.Counters{}); err != nil {
				t.Fatal(err)
			}
			if ends && op.table.dense() {
				t.Errorf("seed=%d axes=%d: hash-over-parallel's orders build is direct-addressed", tr[0], tr[1])
			}
			// A chain of two or more positions is a repeated key.
			if dupBuild && slices.ContainsFunc(op.table.next, func(i int32) bool { return i >= 0 }) {
				dup[op.table.dense()] = true
			}
			op.Close()
		}
	}
	if !dense || !hashed {
		t.Errorf("the default trials build a direct-addressed table: %v, a hashed one: %v; want both", dense, hashed)
	}
	if !dup[true] || !dup[false] {
		t.Errorf("hash-dup-build repeats keys in a direct-addressed table: %v, a hashed one: %v; want both", dup[true], dup[false])
	}
}

// residualBeyondEmit reports whether j's residual reads a fact column
// that j does not emit.
func residualBeyondEmit(ctx *Context, j *StarSemiJoin) bool {
	if j.FactEmit == nil {
		return false
	}
	schema := testkit.Table(ctx.DB, j.Fact).Schema()
	for _, ref := range expr.Columns(j.Residual) {
		if i := schema.ColumnIndex(ref.Column); i >= 0 && (ref.Table == "" || ref.Table == j.Fact) && !slices.Contains(j.FactEmit, i) {
			return true
		}
	}
	return false
}

// TestBatchesTyped holds every batch an operator returns to the typed
// layout: column c is a vector of kind Schema.Fields[c].Type — a Date
// column stays Date — and every column is Len() long. It takes the first
// default trial of every shape at every DOP axis, and runs each node of
// the trial's plan as a root, so every operator's own batches are seen,
// including those an Exchange's workers fill.
func TestBatchesTyped(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, tr := range defaultTrials() {
		p := decode(tr[1])
		if seen[[2]int{p.shape, p.dop}] {
			continue
		}
		seen[[2]int{p.shape, p.dop}] = true
		ctx, _ := harnessLayout(t, p)
		plan := newGen(tr[0]).plan(p, ctx)
		if p.instrumented {
			plan = Instrument(plan)
		}
		for _, n := range nodes(plan) {
			checkBatchesTyped(t, ctx, n, fmt.Sprintf("seed=%d axes=%d %s", tr[0], tr[1], n.Describe()))
		}
	}
	if len(seen) != len(shapes)*len(dops) {
		t.Errorf("%d (shape, DOP) pairs checked, want %d", len(seen), len(shapes)*len(dops))
	}
}

// checkBatchesTyped drains n and fails t on the first batch whose columns
// break the typed layout of n's schema.
func checkBatchesTyped(t *testing.T, ctx *Context, n Node, label string) {
	t.Helper()
	schema, err := n.Schema(ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	op := n.Stream()
	defer op.Close()
	if err := op.Open(ctx, &cost.Counters{}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if b == nil {
			return
		}
		if b.Schema.String() != schema.String() || len(b.Cols()) != len(schema.Fields) {
			t.Fatalf("%s: batch schema %s with %d columns, want %s", label, b.Schema, len(b.Cols()), schema)
		}
		for c, v := range b.Cols() {
			if f := schema.Fields[c]; v.Kind != f.Type || v.Len() != b.Len() {
				t.Fatalf("%s: column %s is %d %s values in a %d-row batch, want %s", label, f.Column, v.Len(), v.Kind, b.Len(), f.Type)
			}
		}
	}
}

// TestPruneColumnsLeafEmits pins which columns each leaf emits after
// PruneColumns, for the shapes where pruning has a choice to make.
func TestPruneColumnsLeafEmits(t *testing.T) {
	_, ctx := testDB(t, 20, 2, 5)
	g := gen{sLo: 10, sHi: 70, cut: 500, price: 60}
	scan := func(filter expr.Expr) Node { return &SeqScan{Table: "lineitem", Filter: filter} }
	count := []AggSpec{{Func: Count, As: "n"}}
	cases := []struct {
		name string
		plan Node
		want map[string][]int // leaf → emitted ordinals; nil: every column
	}{
		{"count-star-zero-columns", &Aggregate{Input: scan(g.ship()), Aggs: count}, map[string][]int{"lineitem": {}}},
		{"filter-only-column", &Project{Input: scan(expr.Conj(g.ship(), g.priceBelow())), Cols: []expr.ColumnRef{lid}},
			map[string][]int{"lineitem": {0}}},
		// l_price is the filter's residual and is not emitted.
		{"residual-not-emitted", &Aggregate{Input: scan(expr.Conj(g.ship(), g.priceBelow())),
			GroupBy: []expr.ColumnRef{lpart}, Aggs: count}, map[string][]int{"lineitem": {2}}},
		{"order-by-outside-select", &Project{Input: &Sort{Input: g.hash(g.orders(), scan(g.ship()), okey, lkey),
			By: []SortKey{{Col: lship, Desc: true}, {Col: lid}}}, Cols: []expr.ColumnRef{lid, ototal}},
			map[string][]int{"lineitem": {0, 1, 3}, "orders": {0, 1}}},
		{"duplicated-select-column", &Project{Input: &MergeJoin{Left: &SeqScan{Table: "orders"}, Right: scan(g.ship()),
			LeftCol: okey, RightCol: lkey}, Cols: []expr.ColumnRef{lprice, lid, lprice}},
			map[string][]int{"lineitem": {0, 1, 5}, "orders": {0}}},
		{"select-star-over-join", g.hash(g.orders(), scan(g.ship()), okey, lkey),
			map[string][]int{"lineitem": nil, "orders": nil}},
		{"inl-inner-residual-not-emitted", &Project{Input: &INLJoin{Outer: scan(g.ship()), OuterCol: lkey,
			InnerTable: "orders", InnerCol: "o_orderkey", Residual: g.totalBelow()}, Cols: []expr.ColumnRef{lid, lprice}},
			map[string][]int{"lineitem": {0, 1, 5}, "inner orders": {}}},
	}
	for _, tc := range cases {
		PruneColumns(ctx, tc.plan)
		got := map[string][]int{}
		for _, m := range nodes(tc.plan) {
			switch s := m.(type) {
			case *SeqScan:
				got[s.Table] = s.Emit
			case *INLJoin:
				got["inner "+s.InnerTable] = s.InnerEmit
			}
		}
		for leaf, want := range tc.want {
			if e := got[leaf]; (e == nil) != (want == nil) || !slices.Equal(e, want) {
				t.Errorf("%s: %s emits %v, want %v", tc.name, leaf, e, want)
			}
		}
	}
}
