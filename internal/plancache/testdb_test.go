package plancache

import (
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

// cacheDB builds a lineitem/orders pair with uniform ship dates in
// [0, 1000), so literal windows translate directly into selectivities.
// parts > 1 range-partitions lineitem on l_ship.
func cacheDB(t *testing.T, nLines int, parts int) (*storage.Database, *engine.Context) {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int},
			{Name: "o_total", Type: catalog.Float},
		},
		PrimaryKey: "o_orderkey",
		Ordered:    []string{"o_orderkey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lineSchema := &catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_orderkey", Type: catalog.Int},
			{Name: "l_ship", Type: catalog.Date},
			{Name: "l_qty", Type: catalog.Int},
			{Name: "l_price", Type: catalog.Float},
		},
		PrimaryKey: "l_id",
		Foreign:    []catalog.ForeignKey{{Column: "l_orderkey", RefTable: "orders"}},
		Indexes: []catalog.Index{
			{Name: "ix_ship", Column: "l_ship", Kind: catalog.NonClustered},
			{Name: "ix_qty", Column: "l_qty", Kind: catalog.NonClustered},
		},
		Ordered: []string{"l_id", "l_orderkey"},
	}
	if parts > 1 {
		bounds := make([]int64, parts-1)
		for i := range bounds {
			bounds[i] = int64((i + 1) * 1000 / parts)
		}
		lineSchema.Partition = &catalog.PartitionSpec{
			Column: "l_ship", Kind: catalog.RangePartition,
			Partitions: parts, Bounds: bounds,
		}
	}
	lineitem, err := db.CreateTable(lineSchema)
	if err != nil {
		t.Fatal(err)
	}
	nOrders := nLines / 4
	if nOrders == 0 {
		nOrders = 1
	}
	rng := stats.NewRNG(7)
	for o := 0; o < nOrders; o++ {
		if err := orders.Append(value.Row{value.Int(int64(o)), value.Float(rng.Float64() * 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nLines; i++ {
		appendLine(t, lineitem,
			int64(i), int64(i%nOrders),
			int64(testkit.Intn(rng, 1000)),
			int64(testkit.Intn(rng, 50)),
			float64(testkit.Intn(rng, 10000))/100)
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

func appendLine(t *testing.T, tab *storage.Table, id, ok, ship, qty int64, price float64) {
	t.Helper()
	err := tab.Append(value.Row{
		value.Int(id), value.Int(ok), value.Date(ship), value.Int(qty), value.Float(price),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bayes builds the paper's estimator over a fresh synopsis of db.
func bayes(t *testing.T, db *storage.Database, threshold float64, sampleSize int, seed uint64) *core.BayesEstimator {
	t.Helper()
	syn, err := sample.BuildAll(db, sampleSize, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syn, core.ConfidenceThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	return est
}
