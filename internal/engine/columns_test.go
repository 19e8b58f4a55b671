package engine

import (
	"fmt"
	"slices"
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/testkit"
)

// pruneCase is one query of the column-pruning corpus: build returns a
// fresh, unprojected plan whose leaves run behind Exchanges at dop (0:
// serial) and whose SeqScans use mode.
type pruneCase struct {
	name  string
	build func(dop int, mode ScanMode) Node
	// check, when set, inspects the pruned plan before it runs.
	check func(t *testing.T, pruned Node)
}

// pruneCorpus is the 40-query corpus of TestColumnPruningDifferential:
// seven named edge cases, then generated scan × join × top shapes over
// lineitem, orders and part.
func pruneCorpus() []pruneCase {
	var (
		lid    = expr.ColumnRef{Table: "lineitem", Column: "l_id"}
		lkey   = expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"}
		lpart  = expr.ColumnRef{Table: "lineitem", Column: "l_partkey"}
		lship  = expr.ColumnRef{Table: "lineitem", Column: "l_ship"}
		lprice = expr.ColumnRef{Table: "lineitem", Column: "l_price"}
		okey   = expr.ColumnRef{Table: "orders", Column: "o_orderkey"}
		ototal = expr.ColumnRef{Table: "orders", Column: "o_total"}
		ppk    = expr.ColumnRef{Table: "part", Column: "p_partkey"}
	)
	wrap := func(dop int, n Node) Node {
		if dop == 0 {
			return n
		}
		return &Exchange{Source: n, DOP: dop}
	}
	shipIn := func(lo, hi int64) expr.Expr {
		return expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(lo), Hi: expr.IntLit(hi)}
	}
	priceBelow := func(cut float64) expr.Expr {
		return expr.Cmp{Op: expr.LT, L: expr.C("l_price"), R: expr.FloatLit(cut)}
	}
	totalBelow := func(cut float64) expr.Expr {
		return expr.Cmp{Op: expr.LT, L: expr.TC("orders", "o_total"), R: expr.FloatLit(cut)}
	}
	emitOf := func(t *testing.T, n Node, table string) []int {
		t.Helper()
		for _, m := range nodes(n) {
			if s, ok := m.(*SeqScan); ok && s.Table == table {
				return s.Emit
			}
		}
		t.Fatalf("no SeqScan(%s) in %s", table, Explain(n))
		return nil
	}
	wantEmit := func(t *testing.T, got []int, want ...int) {
		t.Helper()
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("projection %v, want %v", got, want)
		}
	}
	cases := []pruneCase{
		{
			name: "count-star-zero-columns",
			build: func(dop int, mode ScanMode) Node {
				return &Aggregate{
					Input: wrap(dop, &SeqScan{Table: "lineitem", Filter: shipIn(10, 70), Mode: mode}),
					Aggs:  []AggSpec{{Func: Count, As: "n"}},
				}
			},
			check: func(t *testing.T, n Node) { wantEmit(t, emitOf(t, n, "lineitem")) },
		},
		{
			name: "filter-only-column",
			build: func(dop int, mode ScanMode) Node {
				return &Project{Input: wrap(dop, &SeqScan{Table: "lineitem",
					Filter: expr.Conj(shipIn(5, 80), priceBelow(60)), Mode: mode}), Cols: []expr.ColumnRef{lid}}
			},
			check: func(t *testing.T, n Node) { wantEmit(t, emitOf(t, n, "lineitem"), 0) },
		},
		{
			// l_ship is pushed into the encoded probes; l_price is the late
			// path's residual and is not emitted.
			name: "late-residual-not-emitted",
			build: func(dop int, mode ScanMode) Node {
				return &Aggregate{
					Input: wrap(dop, &SeqScan{Table: "lineitem",
						Filter: expr.Conj(shipIn(20, 90), priceBelow(45)), Mode: mode}),
					GroupBy: []expr.ColumnRef{lpart},
					Aggs:    []AggSpec{{Func: Count, As: "n"}},
				}
			},
			check: func(t *testing.T, n Node) { wantEmit(t, emitOf(t, n, "lineitem"), 2) },
		},
		{
			name: "order-by-outside-select",
			build: func(dop int, mode ScanMode) Node {
				return &Project{Input: &Sort{
					Input: &HashJoin{
						Build:    wrap(dop, &SeqScan{Table: "orders", Filter: totalBelow(600)}),
						Probe:    wrap(dop, &SeqScan{Table: "lineitem", Filter: shipIn(0, 40), Mode: mode}),
						BuildCol: okey, ProbeCol: lkey,
					},
					By: []SortKey{{Col: lship, Desc: true}, {Col: lid}},
				}, Cols: []expr.ColumnRef{lid, ototal}}
			},
			check: func(t *testing.T, n Node) {
				wantEmit(t, emitOf(t, n, "lineitem"), 0, 1, 3)
				wantEmit(t, emitOf(t, n, "orders"), 0, 1)
			},
		},
		{
			name: "duplicated-select-column",
			build: func(dop int, mode ScanMode) Node {
				return &Project{Input: &MergeJoin{
					Left:    wrap(dop, &SeqScan{Table: "orders"}),
					Right:   wrap(dop, &SeqScan{Table: "lineitem", Filter: shipIn(30, 50), Mode: mode}),
					LeftCol: okey, RightCol: lkey,
				}, Cols: []expr.ColumnRef{lprice, lid, lprice}}
			},
			check: func(t *testing.T, n Node) {
				wantEmit(t, emitOf(t, n, "lineitem"), 0, 1, 5)
				wantEmit(t, emitOf(t, n, "orders"), 0)
			},
		},
		{
			name: "select-star-over-join",
			build: func(dop int, mode ScanMode) Node {
				return &HashJoin{
					Build:    wrap(dop, &SeqScan{Table: "orders", Filter: totalBelow(300)}),
					Probe:    wrap(dop, &SeqScan{Table: "lineitem", Filter: shipIn(60, 99), Mode: mode}),
					BuildCol: okey, ProbeCol: lkey,
				}
			},
			check: func(t *testing.T, n Node) {
				for _, m := range nodes(n) {
					if s, ok := m.(*SeqScan); ok && s.Emit != nil {
						t.Fatalf("SELECT * pruned %s to %v", s.Table, s.Emit)
					}
				}
			},
		},
		{
			name: "inl-inner-residual-not-emitted",
			build: func(dop int, mode ScanMode) Node {
				return &Project{Input: &INLJoin{
					Outer:    wrap(dop, &SeqScan{Table: "lineitem", Filter: shipIn(40, 75), Mode: mode}),
					OuterCol: lkey, InnerTable: "orders", InnerCol: "o_orderkey",
					Residual: totalBelow(500),
				}, Cols: []expr.ColumnRef{lid, lprice}}
			},
			check: func(t *testing.T, n Node) {
				for _, m := range nodes(n) {
					if inl, ok := m.(*INLJoin); ok && (inl.InnerEmit == nil || len(inl.InnerEmit) != 0) {
						t.Fatalf("INL inner projection %v, want none", inl.InnerEmit)
					}
				}
				wantEmit(t, emitOf(t, n, "lineitem"), 0, 1, 5)
			},
		},
	}

	// Generated shapes: a lineitem access path, a join to orders or part
	// (or none), and a top of the plan.
	rng := stats.NewRNG(31337)
	for i := len(cases); i < 40; i++ {
		sLo := int64(testkit.Intn(rng, 100)) - 5
		sHi := sLo + int64(testkit.Intn(rng, 60))
		cut := 5 + rng.Float64()*90
		ocut := rng.Float64() * 1000
		leafKind, joinKind, topKind := i%3, (i/3)%5, (i/2)%5
		line := func(dop int, mode ScanMode) Node {
			switch leafKind {
			case 0:
				return wrap(dop, &SeqScan{Table: "lineitem", Filter: expr.Conj(shipIn(sLo, sHi), priceBelow(cut)), Mode: mode})
			case 1:
				return wrap(dop, &IndexRangeScan{Table: "lineitem",
					Range: KeyRange{Column: "l_ship", Lo: sLo, Hi: sHi}, Residual: priceBelow(cut)})
			default:
				return wrap(dop, &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
					{Column: "l_ship", Lo: sLo, Hi: sHi}, {Column: "l_receipt", Lo: sLo, Hi: sHi + 5}}})
			}
		}
		var top []expr.ColumnRef
		switch joinKind {
		case 1, 2, 3:
			top = []expr.ColumnRef{lid, ototal}
		case 4:
			top = []expr.ColumnRef{lid, expr.ColumnRef{Table: "part", Column: "p_size"}}
		default:
			top = []expr.ColumnRef{lid, lprice}
		}
		cases = append(cases, pruneCase{
			name: fmt.Sprintf("gen-%d-leaf%d-join%d-top%d", i, leafKind, joinKind, topKind),
			build: func(dop int, mode ScanMode) Node {
				var plan Node
				orders := wrap(dop, &SeqScan{Table: "orders", Filter: totalBelow(ocut)})
				switch joinKind {
				case 1:
					plan = &HashJoin{Build: orders, Probe: line(dop, mode), BuildCol: okey, ProbeCol: lkey}
				case 2:
					plan = &MergeJoin{Left: orders, Right: line(dop, mode), LeftCol: okey, RightCol: lkey}
				case 3:
					plan = &INLJoin{Outer: line(dop, mode), OuterCol: lkey,
						InnerTable: "orders", InnerCol: "o_orderkey", Residual: totalBelow(ocut)}
				case 4:
					plan = &StarSemiJoin{Fact: "lineitem", Dims: []StarDim{{
						Scan:  wrap(dop, &SeqScan{Table: "part", Filter: expr.Cmp{Op: expr.LT, L: expr.C("p_size"), R: expr.IntLit(30)}}),
						DimPK: ppk, FactFK: "l_partkey",
					}}, Residual: priceBelow(cut)}
				default:
					plan = line(dop, mode)
				}
				switch topKind {
				case 0:
					return &Aggregate{Input: plan, Aggs: []AggSpec{{Func: Count, As: "n"}}}
				case 1:
					return &Aggregate{Input: plan, GroupBy: []expr.ColumnRef{lpart},
						Aggs: []AggSpec{{Func: Sum, Arg: expr.C("l_price"), As: "s"}, {Func: Max, Arg: expr.C("l_ship"), As: "m"}}}
				case 2:
					return &Project{Input: &Sort{Input: plan, By: []SortKey{{Col: lship}, {Col: lid, Desc: true}}}, Cols: top}
				case 3:
					return &Project{Input: plan, Cols: top}
				default:
					return plan
				}
			},
		})
	}
	return cases
}

// nodes lists a plan's nodes in pre-order.
func nodes(n Node) []Node {
	out := []Node{n}
	for _, c := range children(n) {
		out = append(out, nodes(c)...)
	}
	return out
}

// TestColumnPruningDifferential holds the pruned plan to the same plan
// with every projection left at identity, across the 40-query corpus ×
// {rows, late} × DOP {0,1,2,4} × {1,2,4 shards} × {full drain, LIMIT 1,
// LIMIT 1025}: at every DOP the pruned plan must return the identity
// plan's rows, byte-identical and in order, under its schema, with
// identical cost.Counters, and the materialized reference over the pruned
// plan must agree (on a full drain, counters included). Under a LIMIT at
// DOP ≥ 2 how far the workers run ahead before the early Close is a matter
// of timing, so only rows are compared there. DOP ≥ 2 matters for more
// than the Exchange: every worker past the first binds its own filter,
// against the table's full schema, not the narrowed output.
func TestColumnPruningDifferential(t *testing.T) {
	corpus := pruneCorpus()
	for _, shards := range []int{1, 2, 4} {
		db, ctx := partTestDB(t, 1500, 3, 10, shards)
		encs, err := colstore.BuildAll(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Encodings = encs
		for _, pc := range corpus {
			for _, mode := range []ScanMode{ScanRows, ScanLate} {
				for _, limit := range []int{0, 1, BatchSize + 1} {
					withLimit := func(n Node) Node {
						if limit == 0 {
							return n
						}
						return &Limit{Input: n, N: limit}
					}
					label := fmt.Sprintf("shards=%d %s mode=%s limit=%d", shards, pc.name, mode, limit)
					want, wc, _, err := Run(ctx, withLimit(pc.build(0, mode)))
					if err != nil {
						t.Fatalf("%s: identity: %v", label, err)
					}
					for _, dop := range []int{0, 1, 2, 4} {
						leg := fmt.Sprintf("%s dop=%d", label, dop)
						pruned := withLimit(pc.build(dop, mode))
						PruneColumns(ctx, pruned)
						if pc.check != nil {
							pc.check(t, pruned)
						}
						got, gc, _, err := Run(ctx, pruned)
						if err != nil {
							t.Fatalf("%s: pruned: %v", leg, err)
						}
						sameRows(t, got, want, leg)
						if (limit == 0 || dop < 2) && gc != wc {
							t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", leg, gc, wc)
						}
						if dop != 0 {
							continue
						}
						var mc cost.Counters
						mres, err := ExecuteMaterialized(ctx, pruned, &mc)
						if err != nil {
							t.Fatalf("%s: materialized: %v", leg, err)
						}
						mc.Output += int64(len(mres.Rows))
						sameRows(t, mres, want, leg+" materialized")
						if limit == 0 && mc != wc {
							t.Fatalf("%s: materialized counters\n got %+v\nwant %+v", leg, mc, wc)
						}
					}
				}
			}
		}
	}
}

// sameRows fails unless got has want's schema and rows, in order.
func sameRows(t *testing.T, got, want *Result, label string) {
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
}
