package optimizer

import (
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// partOptDB builds a dim/fact pair with the fact range-partitioned on
// f_key into 4 shards of exactly 1280 rows (16 pages) each, so the
// exactly-1/N page accounting of a pruned scan is an integer identity.
func partOptDB(t *testing.T, kind catalog.PartitionKind) (*storage.Database, *engine.Context) {
	t.Helper()
	const shardRows = 1280
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	dim, err := db.CreateTable(&catalog.TableSchema{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "d_id", Type: catalog.Int},
			{Name: "d_cat", Type: catalog.Int},
		},
		PrimaryKey: "d_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := &catalog.PartitionSpec{Column: "f_key", Kind: kind, Partitions: 4}
	if kind == catalog.RangePartition {
		spec.Bounds = []int64{shardRows, 2 * shardRows, 3 * shardRows}
	}
	fact, err := db.CreateTable(&catalog.TableSchema{
		Name: "fact",
		Columns: []catalog.Column{
			{Name: "f_id", Type: catalog.Int},
			{Name: "f_key", Type: catalog.Int},
			{Name: "f_dim", Type: catalog.Int},
			{Name: "f_a", Type: catalog.Int},
		},
		PrimaryKey: "f_id",
		Foreign:    []catalog.ForeignKey{{Column: "f_dim", RefTable: "dim"}},
		Partition:  spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 40; d++ {
		if err := dim.Append(value.Row{value.Int(int64(d)), value.Int(int64(d % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(41)
	for i := 0; i < 4*shardRows; i++ {
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(i)), // sequential keys: range shards are exactly equal
			value.Int(int64(i % 40)),
			value.Int(int64(testkit.Intn(rng, 100))),
		}
		if err := fact.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

func partOpt(t *testing.T, db *storage.Database, ctx *engine.Context) *Optimizer {
	t.Helper()
	set, err := sample.BuildAll(db, 400, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(set, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestPruningScansOneShard is the issue's acceptance check: an equality
// predicate on the partition key plans a scan of exactly 1 of the 4
// shards, the executed scan charges exactly NumPages/4 sequential pages
// (zero pages from pruned shards), and EXPLAIN ANALYZE reports the
// pruning as "partitions: 1/4".
func TestPruningScansOneShard(t *testing.T) {
	for _, kind := range []catalog.PartitionKind{catalog.RangePartition, catalog.HashPartition} {
		db, ctx := partOptDB(t, kind)
		o := partOpt(t, db, ctx)
		plan, err := o.Optimize(&Query{
			Tables: []string{"fact"},
			Pred:   testkit.Expr("f_key = 1500 AND f_a < 50"),
		})
		if err != nil {
			t.Fatal(err)
		}
		scan, ok := plan.Root.(*engine.SeqScan)
		if !ok {
			t.Fatalf("%v: plan root is %T, want SeqScan", kind, plan.Root)
		}
		fact := testkit.Table(db, "fact")
		wantShard, _ := fact.ShardOfKey(1500)
		if len(scan.Partitions) != 1 || scan.Partitions[0] != wantShard {
			t.Fatalf("%v: scan reads partitions %v, want exactly [%d]", kind, scan.Partitions, wantShard)
		}
		est, ok := plan.EstimateOf(scan)
		if !ok || est.PartsScanned != 1 || est.PartsTotal != 4 {
			t.Fatalf("%v: snapshot partitions %d/%d (ok=%v), want 1/4", kind, est.PartsScanned, est.PartsTotal, ok)
		}
		inst := engine.Instrument(plan.Root)
		_, c, _, err := engine.Run(ctx, inst)
		if err != nil {
			t.Fatal(err)
		}
		// The scan charges exactly the surviving shard's pages and tuples
		// — zero accesses against pruned shards. Range shards are exactly
		// equal here, so that is the literal 1/N of the table.
		lo, hi := fact.PartitionSpan(wantShard)
		const per = storage.TuplesPerPage
		wantPages := int64((hi+per-1)/per - (lo+per-1)/per)
		if kind == catalog.RangePartition && wantPages != int64(fact.NumPages())/4 {
			t.Fatalf("range shard is not exactly 1/4 of the table: %d of %d pages", wantPages, fact.NumPages())
		}
		if c.SeqPages != wantPages {
			t.Errorf("%v: pruned scan charged %d seq pages, want %d", kind, c.SeqPages, wantPages)
		}
		if want := int64(hi - lo); c.Tuples != want {
			t.Errorf("%v: pruned scan read %d tuples, want %d", kind, c.Tuples, want)
		}
		out := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
		if !strings.Contains(out, "partitions: 1/4") {
			t.Errorf("%v: EXPLAIN ANALYZE lacks the pruning annotation:\n%s", kind, out)
		}
	}
}

// TestRangePruningThroughJoin: pruning holds when the partitioned fact is
// joined — the shard list rides the fact scan and the estimator observes
// only surviving shards for every mask rooted at the fact.
func TestRangePruningThroughJoin(t *testing.T) {
	db, ctx := partOptDB(t, catalog.RangePartition)
	o := partOpt(t, db, ctx)
	plan, err := o.Optimize(&Query{
		Tables: []string{"fact", "dim"},
		Pred:   testkit.Expr("f_key BETWEEN 1280 AND 2559 AND d_cat = 2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := engine.Instrument(plan.Root)
	found := false
	var walk func(n *engine.Instrumented)
	walk = func(n *engine.Instrumented) {
		if s, ok := n.Origin.(*engine.SeqScan); ok && s.Table == "fact" {
			found = true
			if len(s.Partitions) != 1 || s.Partitions[0] != 1 {
				t.Errorf("fact scan reads partitions %v, want [1]", s.Partitions)
			}
		}
		for _, kid := range n.Kids {
			walk(kid)
		}
	}
	walk(inst)
	if !found {
		t.Fatalf("no fact SeqScan in plan:\n%s", plan.Explain())
	}
	if _, _, _, err := engine.Run(ctx, inst); err != nil {
		t.Fatal(err)
	}
}

// TestHashPartitionRangeNotPruned: hash partitioning cannot prune range
// predicates — the plan must scan all shards with no Partitions list, and
// the snapshot still reports the 4/4 shard arithmetic.
func TestHashPartitionRangeNotPruned(t *testing.T) {
	db, ctx := partOptDB(t, catalog.HashPartition)
	o := partOpt(t, db, ctx)
	plan, err := o.Optimize(&Query{
		Tables: []string{"fact"},
		Pred:   testkit.Expr("f_key < 1000"),
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := plan.Root.(*engine.SeqScan)
	if !ok {
		t.Fatalf("plan root is %T, want SeqScan", plan.Root)
	}
	if scan.Partitions != nil {
		t.Fatalf("hash partitioning pruned a range predicate: %v", scan.Partitions)
	}
	est, ok := plan.EstimateOf(scan)
	if !ok || est.PartsScanned != 4 || est.PartsTotal != 4 {
		t.Fatalf("snapshot partitions %d/%d (ok=%v), want 4/4", est.PartsScanned, est.PartsTotal, ok)
	}
	inst := engine.Instrument(plan.Root)
	_, c, _, err := engine.Run(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	fact := testkit.Table(db, "fact")
	if c.SeqPages != int64(fact.NumPages()) {
		t.Errorf("unpruned scan charged %d pages, table holds %d", c.SeqPages, fact.NumPages())
	}
}

// TestPrunedCostNotHigher: the plan cost of the key-constrained query must
// not exceed the cost of the same residual predicate without the key
// constraint — pruning can only remove work.
func TestPrunedCostNotHigher(t *testing.T) {
	db, ctx := partOptDB(t, catalog.RangePartition)
	o := partOpt(t, db, ctx)
	pruned, err := o.Optimize(&Query{
		Tables: []string{"fact"},
		Pred:   testkit.Expr("f_key = 1500 AND f_a < 50"),
	})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := o.Optimize(&Query{
		Tables: []string{"fact"},
		Pred:   testkit.Expr("f_a < 50"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.EstCost > unpruned.EstCost {
		t.Errorf("pruned plan costs %.4f, unpruned %.4f", pruned.EstCost, unpruned.EstCost)
	}
	if pruned.EstRows > unpruned.EstRows {
		t.Errorf("pruned plan estimates %.1f rows, unpruned %.1f", pruned.EstRows, unpruned.EstRows)
	}
	_ = db
}
