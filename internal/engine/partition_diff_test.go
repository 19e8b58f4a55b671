package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// partTestDB is testDB with lineitem range-partitioned on l_ship into the
// given number of shards. The data generation is byte-for-byte the same
// as testDB's (same seed, same draw order), so the only difference
// between layouts is the physical placement of lineitem rows.
func partTestDB(t testing.TB, nOrders, linesPerOrder, nParts, shards int) (*storage.Database, *Context) {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	part, err := db.CreateTable(&catalog.TableSchema{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: catalog.Int},
			{Name: "p_size", Type: catalog.Int},
		},
		PrimaryKey: "p_partkey",
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int},
			{Name: "o_total", Type: catalog.Float},
		},
		PrimaryKey: "o_orderkey",
	})
	if err != nil {
		t.Fatal(err)
	}
	// l_ship is drawn from [0,100); equal-width range shards over that.
	spec := &catalog.PartitionSpec{Column: "l_ship", Kind: catalog.RangePartition, Partitions: shards}
	for b := 1; b < shards; b++ {
		spec.Bounds = append(spec.Bounds, int64(b*100/shards))
	}
	lineitem, err := db.CreateTable(&catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_orderkey", Type: catalog.Int},
			{Name: "l_partkey", Type: catalog.Int},
			{Name: "l_ship", Type: catalog.Date},
			{Name: "l_receipt", Type: catalog.Date},
			{Name: "l_price", Type: catalog.Float},
		},
		PrimaryKey: "l_id",
		Foreign: []catalog.ForeignKey{
			{Column: "l_orderkey", RefTable: "orders"},
			{Column: "l_partkey", RefTable: "part"},
		},
		Indexes: []catalog.Index{
			{Name: "ix_ship", Column: "l_ship", Kind: catalog.NonClustered},
			{Name: "ix_receipt", Column: "l_receipt", Kind: catalog.NonClustered},
			{Name: "ix_partkey", Column: "l_partkey", Kind: catalog.NonClustered},
		},
		Partition: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(123)
	for p := 0; p < nParts; p++ {
		if err := part.Append(value.Row{value.Int(int64(p)), value.Int(int64(testkit.Intn(rng, 50)))}); err != nil {
			t.Fatal(err)
		}
	}
	id := int64(0)
	for o := 0; o < nOrders; o++ {
		if err := orders.Append(value.Row{value.Int(int64(o)), value.Float(rng.Float64() * 1000)}); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < linesPerOrder; l++ {
			ship := int64(testkit.Intn(rng, 100))
			receipt := ship + int64(testkit.Intn(rng, 10))
			row := value.Row{
				value.Int(id),
				value.Int(int64(o)),
				value.Int(int64(testkit.Intn(rng, nParts))),
				value.Date(ship),
				value.Date(receipt),
				value.Float(float64(testkit.Intn(rng, 10000)) / 100),
			}
			if err := lineitem.Append(row); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

// departition rebuilds src as an unpartitioned database holding every
// table's rows in src's global row-id order. A full scan of either
// database therefore visits identical tuples in identical order, which
// makes the unpartitioned copy the byte-level baseline for the
// partitioned layouts.
func departition(t testing.TB, src *storage.Database) (*storage.Database, *Context) {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	for _, name := range src.Catalog.TableNames() {
		schema, _ := src.Catalog.Table(name)
		flat := *schema
		flat.Partition = nil
		nt, err := db.CreateTable(&flat)
		if err != nil {
			t.Fatal(err)
		}
		st := testkit.Table(src, name)
		for r := 0; r < st.NumRows(); r++ {
			if err := nt.Append(st.Row(r)); err != nil {
				t.Fatal(err)
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
	return db, ctx
}

// TestPartitionedExchangeDifferentialProperty extends the 40-query
// differential corpus across physical layouts: the same random SPJ plans
// run against lineitem partitioned into 1, 2, and 4 range shards, serial
// and behind Exchanges at DOP 1, 2, and 4, and every leg must produce
// byte-identical rows in identical order AND byte-identical cost.Counters
// versus the unpartitioned serial baseline (the departitioned copy of the
// same data). For layouts with real pruning opportunities the corpus also
// runs each scan with its partition list restricted to the shards the
// ship window intersects: rows must still match the baseline exactly
// (pruning is semantically lossless for the predicate that induced it),
// and serial and parallel pruned legs must agree with each other on
// counters. Run with -race this doubles as the scatter-gather data-race
// proof across layouts.
func TestPartitionedExchangeDifferentialProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		pdb, pctx := partTestDB(t, 3000, 3, 10, shards)
		_, bctx := departition(t, pdb)
		line := testkit.Table(pdb, "lineitem")
		rng := stats.NewRNG(9001)
		okey := expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
		lkey := expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
		for trial := 0; trial < 40; trial++ {
			sLo := int64(testkit.Intn(rng, 110)) - 5
			sHi := sLo + int64(testkit.Intn(rng, 70))
			cut := rng.Float64() * 1000
			linePred := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(sLo), Hi: expr.IntLit(sHi)}
			orderPred := expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}

			// parts=nil builds the full-table plan; a non-nil list pins the
			// lineitem scan to those shards.
			build := func(dop int, parts []int) Node {
				wrap := func(n Node) Node {
					if dop == 0 {
						return n
					}
					return &Exchange{Source: n, DOP: dop}
				}
				var lineScan Node
				switch trial % 3 {
				case 0:
					lineScan = &SeqScan{Table: "lineitem", Filter: linePred, Partitions: parts}
				case 1:
					lineScan = &IndexRangeScan{Table: "lineitem",
						Range: KeyRange{Column: "l_ship", Lo: sLo, Hi: sHi}, Partitions: parts}
				default:
					lineScan = &IndexIntersect{Table: "lineitem",
						Ranges: []KeyRange{{Column: "l_ship", Lo: sLo, Hi: sHi}}, Partitions: parts}
				}
				lineScan = wrap(lineScan)
				ordersScan := wrap(&SeqScan{Table: "orders", Filter: orderPred})
				var join Node
				switch (trial / 3) % 3 {
				case 0:
					join = &HashJoin{Build: ordersScan, Probe: lineScan, BuildCol: okey, ProbeCol: lkey}
				case 1:
					join = &MergeJoin{Left: ordersScan, Right: lineScan, LeftCol: okey, RightCol: lkey}
				default:
					join = &INLJoin{Outer: lineScan, OuterCol: lkey,
						InnerTable: "orders", InnerCol: "o_orderkey", Residual: orderPred}
				}
				plan := join
				if trial%2 == 0 {
					plan = &Project{Input: plan, Cols: []expr.ColumnRef{
						{Table: "lineitem", Column: "l_id"},
						{Table: "orders", Column: "o_total"},
						{Table: "lineitem", Column: "l_price"},
					}}
				}
				if (trial/2)%2 == 0 {
					plan = &Sort{Input: plan, By: []SortKey{
						{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}}}}
				}
				return plan
			}

			label := fmt.Sprintf("shards=%d trial %d ship[%d,%d] cut %.1f", shards, trial, sLo, sHi, cut)
			// The baseline: unpartitioned, serial, streaming.
			sres, sc, _, err := Run(bctx, build(0, nil))
			if err != nil {
				t.Fatalf("%s: baseline: %v", label, err)
			}
			compare := func(res *Result, c cost.Counters, ref *Result, rc cost.Counters, leg string) {
				t.Helper()
				if len(res.Rows) != len(ref.Rows) {
					t.Fatalf("%s: %s %d rows, want %d", label, leg, len(res.Rows), len(ref.Rows))
				}
				for i := range res.Rows {
					if rowKey(res.Rows[i]) != rowKey(ref.Rows[i]) {
						t.Fatalf("%s: %s row %d differs: %v vs %v", label, leg, i, res.Rows[i], ref.Rows[i])
					}
				}
				if c != rc {
					t.Fatalf("%s: %s counters diverged:\n%s %+v\nwant %+v", label, leg, leg, c, rc)
				}
			}
			// Partitioned serial, materialized reference, and DOP 1/2/4 all
			// reproduce the unpartitioned baseline byte for byte.
			var mc cost.Counters
			mres, err := ExecuteMaterialized(pctx, build(4, nil), &mc)
			if err != nil {
				t.Fatalf("%s: materialized: %v", label, err)
			}
			mc.Output += int64(len(mres.Rows)) // Run charges the root's output; the reference does not
			compare(mres, mc, sres, sc, "materialized")
			for _, dop := range []int{0, 1, 2, 4} {
				pres, pc, _, err := Run(pctx, build(dop, nil))
				if err != nil {
					t.Fatalf("%s: dop=%d: %v", label, dop, err)
				}
				compare(pres, pc, sres, sc, fmt.Sprintf("dop=%d", dop))
			}

			// Pruned legs: restrict the lineitem scan to the shards the ship
			// window can touch. Same rows as the baseline (the filter already
			// excludes everything outside the window); serial and parallel
			// pruned legs must agree with each other exactly.
			if shards < 2 {
				continue
			}
			parts, ok := line.PrunePartitions("l_ship", sLo, sHi)
			if !ok {
				t.Fatalf("%s: pruning refused", label)
			}
			prunedSerial, prunedSC, _, err := Run(pctx, build(0, parts))
			if err != nil {
				t.Fatalf("%s: pruned serial: %v", label, err)
			}
			// Rows match the baseline; counters legitimately differ (fewer
			// pages), so only the row content is compared here.
			if len(prunedSerial.Rows) != len(sres.Rows) {
				t.Fatalf("%s: pruned serial %d rows, baseline %d", label, len(prunedSerial.Rows), len(sres.Rows))
			}
			for i := range prunedSerial.Rows {
				if rowKey(prunedSerial.Rows[i]) != rowKey(sres.Rows[i]) {
					t.Fatalf("%s: pruned serial row %d differs", label, i)
				}
			}
			for _, dop := range []int{2, 4} {
				pres, pc, _, err := Run(pctx, build(dop, parts))
				if err != nil {
					t.Fatalf("%s: pruned dop=%d: %v", label, dop, err)
				}
				compare(pres, pc, prunedSerial, prunedSC, fmt.Sprintf("pruned-dop=%d", dop))
			}
		}
	}
}
