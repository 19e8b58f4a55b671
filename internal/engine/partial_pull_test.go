package engine

import (
	"fmt"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
)

// TestPartialPullCounters pins what a LIMIT above a leaf scan pays for.
// ExecuteMaterialized always reads everything, so no differential test
// referees a partial pull; the expectation here is the closed form of the
// per-window charges — pages whose first tuple lies in the windows pulled,
// one random page per RID fetched — for exactly ceil(N/BatchSize) windows.
// The same table passed against the separate serial scan operators this
// driver replaced, so a change in any row is a change in serve.adhoc's
// sim_cost_s.
func TestPartialPullCounters(t *testing.T) {
	const per = storage.TuplesPerPage
	pages := func(lo, hi int) int64 { return int64((hi+per-1)/per - (lo+per-1)/per) }

	// SeqScan legs: 2 shards of ~5,096 rows each, so the pruned leg starts
	// at a shard base that is not page aligned.
	cctx := fixture{orders: 3398, lines: 3, parts: 10, shards: 2, clustered: true}.build(t)
	cline := testkit.Table(cctx.DB, "lineitem")
	shardLo, shardHi := cline.PartitionSpan(1)
	if shardLo%per == 0 || shardHi-shardLo < 2*BatchSize {
		t.Fatalf("fixture: shard 1 spans [%d,%d), want an unaligned base and two windows", shardLo, shardHi)
	}

	// Index legs: every l_ship in [10, 60] over 9,000 rows is several
	// thousand RIDs, so BatchSize+1 needs a second window.
	_, ictx := testDB(t, 3000, 3, 10)
	ix, _ := ictx.Indexes.Lookup("lineitem", "l_ship")
	rids, scanned := ix.Range(10, 60)
	ix2, _ := ictx.Indexes.Lookup("lineitem", "l_receipt")
	_, scanned2 := ix2.Range(0, 200)
	if len(rids) < 2*BatchSize {
		t.Fatalf("fixture: %d rids, want at least two windows", len(rids))
	}
	ship := KeyRange{Column: "l_ship", Lo: 10, Hi: 60}

	type leg struct {
		name string
		ctx  *Context
		scan func() Node
		want func(windows int) cost.Counters
	}
	seq := func(lo int) func(int) cost.Counters {
		return func(w int) cost.Counters {
			return cost.Counters{SeqPages: pages(lo, lo+w*BatchSize), Tuples: int64(w * BatchSize)}
		}
	}
	legs := []leg{
		{"SeqScan/rows", cctx, func() Node { return &SeqScan{Table: "lineitem"} }, seq(0)},
		// A pushable filter every row passes: the zone check runs on every
		// window and skips nothing.
		{"SeqScan/late", cctx, func() Node {
			return &SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship >= 0")}
		}, seq(0)},
		{"SeqScan/pruned", cctx, func() Node { return &SeqScan{Table: "lineitem", Partitions: []int{1}} }, seq(shardLo)},
		{"IndexRangeScan", ictx, func() Node { return &IndexRangeScan{Table: "lineitem", Range: ship} },
			func(w int) cost.Counters {
				return cost.Counters{IndexSeeks: 1, IndexEntries: int64(scanned),
					RandPages: int64(w * BatchSize), Tuples: int64(w * BatchSize)}
			}},
		{"IndexIntersect", ictx, func() Node {
			return &IndexIntersect{Table: "lineitem",
				Ranges: []KeyRange{ship, {Column: "l_receipt", Lo: 0, Hi: 200}}}
		},
			func(w int) cost.Counters {
				probes := int64(scanned + scanned2)
				return cost.Counters{IndexSeeks: 2, IndexEntries: probes,
					RandPages: int64(w * BatchSize), Tuples: probes + int64(w*BatchSize)}
			}},
	}
	for _, l := range legs {
		for _, n := range []int{1, BatchSize, BatchSize + 1} {
			t.Run(fmt.Sprintf("%s/limit=%d", l.name, n), func(t *testing.T) {
				res, c, _, err := Run(l.ctx, &Limit{Input: l.scan(), N: n})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != n {
					t.Fatalf("%d rows, want %d", len(res.Rows), n)
				}
				want := l.want((n + BatchSize - 1) / BatchSize)
				want.Output = int64(n) // the drain's charge for the n rows returned
				if c != want {
					t.Fatalf("counters\n got %+v\nwant %+v", c, want)
				}
			})
		}
	}
}
