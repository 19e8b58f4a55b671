package sample

import (
	"math"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// chainDB builds lineitem -> orders -> customer so synopsis construction
// exercises recursive foreign-key expansion.
func chainDB(t *testing.T, nCust, ordersPerCust, linesPerOrder int) *storage.Database {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	cust, err := db.CreateTable(&catalog.TableSchema{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_id", Type: catalog.Int},
			{Name: "c_region", Type: catalog.Int},
		},
		PrimaryKey: "c_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.Int},
			{Name: "o_cust", Type: catalog.Int},
			{Name: "o_priority", Type: catalog.Int},
		},
		PrimaryKey: "o_id",
		Foreign:    []catalog.ForeignKey{{Column: "o_cust", RefTable: "customer"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lineitem, err := db.CreateTable(&catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_order", Type: catalog.Int},
			{Name: "l_qty", Type: catalog.Int},
		},
		PrimaryKey: "l_id",
		Foreign:    []catalog.ForeignKey{{Column: "l_order", RefTable: "orders"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	oid, lid := int64(0), int64(0)
	for c := 0; c < nCust; c++ {
		_ = cust.Append(value.Row{value.Int(int64(c)), value.Int(int64(c % 5))})
		for o := 0; o < ordersPerCust; o++ {
			_ = orders.Append(value.Row{value.Int(oid), value.Int(int64(c)), value.Int(int64(testkit.Intn(rng, 3)))})
			for l := 0; l < linesPerOrder; l++ {
				_ = lineitem.Append(value.Row{value.Int(lid), value.Int(oid), value.Int(int64(testkit.Intn(rng, 50)))})
				lid++
			}
			oid++
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildTableSample(t *testing.T) {
	db := chainDB(t, 10, 2, 3)
	tab := testkit.Table(db, "lineitem")
	syn, err := BuildTableSample(tab, 40, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if syn.Size() != 40 || syn.N != tab.NumRows() || syn.Root != "lineitem" {
		t.Errorf("synopsis = size %d, N %d, root %s", syn.Size(), syn.N, syn.Root)
	}
	if len(syn.Schema.Fields) != 3 {
		t.Errorf("schema = %v", syn.Schema)
	}
	if len(syn.strata) != 1 || len(syn.strata[0].Schema().Columns) != 3 || syn.strata[0].NumRows() != 40 {
		t.Fatalf("strata = %v, want one 3-column table of 40 tuples", syn.strata)
	}
}

func TestBuildTableSampleErrors(t *testing.T) {
	db := chainDB(t, 2, 1, 1)
	tab := testkit.Table(db, "lineitem")
	if _, err := BuildTableSample(tab, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero size accepted")
	}
	empty, _ := storage.NewTable(&catalog.TableSchema{Name: "e", Columns: []catalog.Column{{Name: "a", Type: catalog.Int}}})
	if _, err := BuildTableSample(empty, 5, stats.NewRNG(1)); err == nil {
		t.Error("empty table accepted")
	}
}

func TestBuildSynopsisSchemaAndWidth(t *testing.T) {
	db := chainDB(t, 8, 2, 2)
	syn, err := BuildSynopsis(db, "lineitem", 30, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// lineitem(3) + orders(3) + customer(2) = 8 columns.
	if len(syn.Schema.Fields) != 8 {
		t.Fatalf("schema width = %d: %s", len(syn.Schema.Fields), syn.Schema)
	}
	wantTables := []string{"lineitem", "orders", "customer"}
	if len(syn.Tables) != 3 {
		t.Fatalf("tables = %v", syn.Tables)
	}
	for i, w := range wantTables {
		if syn.Tables[i] != w {
			t.Errorf("Tables[%d] = %s, want %s", i, syn.Tables[i], w)
		}
	}
	// Every sample tuple must satisfy the join conditions.
	oIdx, _ := syn.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_order"})
	oid, _ := syn.Schema.Resolve(expr.ColumnRef{Table: "orders", Column: "o_id"})
	cIdx, _ := syn.Schema.Resolve(expr.ColumnRef{Table: "orders", Column: "o_cust"})
	cid, _ := syn.Schema.Resolve(expr.ColumnRef{Table: "customer", Column: "c_id"})
	st := syn.strata[0]
	for i := range st.NumRows() {
		if st.Value(i, oIdx).I != st.Value(i, oid).I || st.Value(i, cIdx).I != st.Value(i, cid).I {
			t.Fatal("synopsis row violates join condition")
		}
	}
}

func TestSynopsisCount(t *testing.T) {
	db := chainDB(t, 10, 3, 4)
	syn, err := BuildSynopsis(db, "lineitem", 200, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// Count with a predicate across all three tables.
	k, err := syn.Count(testkit.Expr("l_qty < 25 AND o_priority = 1 AND c_region = 2"))
	if err != nil {
		t.Fatal(err)
	}
	if k < 0 || k > syn.Size() {
		t.Errorf("k = %d", k)
	}
	// Nil predicate matches everything.
	all, err := syn.Count(nil)
	if err != nil || all != syn.Size() {
		t.Errorf("Count(nil) = %d, %v", all, err)
	}
	// Binding errors are reported.
	if _, err := syn.Count(testkit.Expr("ghost = 1")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestSampleSelectivityApproximatesTruth(t *testing.T) {
	db := chainDB(t, 50, 4, 5) // 1000 lineitems
	// Ground truth for l_qty < 25 joined with c_region = 2.
	li := testkit.Table(db, "lineitem")
	or := testkit.Table(db, "orders")
	cu := testkit.Table(db, "customer")
	matches := 0
	for r := 0; r < li.NumRows(); r++ {
		qty := li.Ints(2)[r]
		orid, _ := or.LookupPK(li.Ints(1)[r])
		crid, _ := cu.LookupPK(or.Ints(1)[orid])
		if qty < 25 && cu.Ints(1)[crid] == 2 {
			matches++
		}
	}
	truth := float64(matches) / float64(li.NumRows())

	// Average the sample fraction over several synopses.
	var fracs []float64
	for seed := uint64(0); seed < 20; seed++ {
		syn, err := BuildSynopsis(db, "lineitem", 500, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		k, err := syn.Count(testkit.Expr("l_qty < 25 AND c_region = 2"))
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, float64(k)/float64(syn.Size()))
	}
	mean, _ := stats.MeanStd(fracs)
	if math.Abs(mean-truth) > 0.03 {
		t.Errorf("sample mean %g vs truth %g", mean, truth)
	}
}

func TestBuildSynopsisErrors(t *testing.T) {
	db := chainDB(t, 2, 1, 1)
	if _, err := BuildSynopsis(db, "ghost", 10, stats.NewRNG(1)); err == nil {
		t.Error("unknown root accepted")
	}
	if _, err := BuildSynopsis(db, "lineitem", 0, stats.NewRNG(1)); err == nil {
		t.Error("zero size accepted")
	}
}

func TestBuildSynopsisDetectsDiamond(t *testing.T) {
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	d, _ := db.CreateTable(&catalog.TableSchema{
		Name: "d", Columns: []catalog.Column{{Name: "d_id", Type: catalog.Int}}, PrimaryKey: "d_id"})
	b, _ := db.CreateTable(&catalog.TableSchema{
		Name: "b", Columns: []catalog.Column{{Name: "b_id", Type: catalog.Int}, {Name: "b_d", Type: catalog.Int}},
		PrimaryKey: "b_id", Foreign: []catalog.ForeignKey{{Column: "b_d", RefTable: "d"}}})
	c, _ := db.CreateTable(&catalog.TableSchema{
		Name: "c", Columns: []catalog.Column{{Name: "c_id", Type: catalog.Int}, {Name: "c_d", Type: catalog.Int}},
		PrimaryKey: "c_id", Foreign: []catalog.ForeignKey{{Column: "c_d", RefTable: "d"}}})
	a, _ := db.CreateTable(&catalog.TableSchema{
		Name: "a", Columns: []catalog.Column{
			{Name: "a_id", Type: catalog.Int}, {Name: "a_b", Type: catalog.Int}, {Name: "a_c", Type: catalog.Int}},
		PrimaryKey: "a_id", Foreign: []catalog.ForeignKey{
			{Column: "a_b", RefTable: "b"}, {Column: "a_c", RefTable: "c"}}})
	_ = d.Append(value.Row{value.Int(1)})
	_ = b.Append(value.Row{value.Int(1), value.Int(1)})
	_ = c.Append(value.Row{value.Int(1), value.Int(1)})
	_ = a.Append(value.Row{value.Int(1), value.Int(1), value.Int(1)})
	_, err := BuildSynopsis(db, "a", 5, stats.NewRNG(1))
	if err == nil || !strings.Contains(err.Error(), "multiple foreign-key paths") {
		t.Errorf("diamond err = %v", err)
	}
	// BuildAll degrades the diamond root to a plain single-table sample
	// and keeps full synopses for the others.
	set, err := BuildAll(db, 5, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	aSyn, ok := set.Synopsis("a")
	if !ok {
		t.Fatal("diamond root has no sample at all")
	}
	if len(aSyn.Tables) != 1 || aSyn.Tables[0] != "a" {
		t.Errorf("diamond root sample covers %v, want just [a]", aSyn.Tables)
	}
	if bSyn, ok := set.Synopsis("b"); !ok || len(bSyn.Tables) != 2 {
		t.Errorf("b synopsis = %v, %v", bSyn, ok)
	}
	// Multi-table requests rooted at the degraded table fail coverage.
	if _, err := set.For([]string{"a", "b"}); err == nil {
		t.Error("For over uncovered join accepted")
	}
}

func TestBuildSynopsisDanglingFK(t *testing.T) {
	cat2 := catalog.NewCatalog()
	db2 := storage.NewDatabase(cat2)
	dim2, _ := db2.CreateTable(&catalog.TableSchema{
		Name: "dim", Columns: []catalog.Column{{Name: "d_id", Type: catalog.Int}}, PrimaryKey: "d_id"})
	fact2, _ := db2.CreateTable(&catalog.TableSchema{
		Name: "fact", Columns: []catalog.Column{{Name: "f_id", Type: catalog.Int}, {Name: "f_d", Type: catalog.Int}},
		PrimaryKey: "f_id", Foreign: []catalog.ForeignKey{{Column: "f_d", RefTable: "dim"}}})
	_ = dim2.Append(value.Row{value.Int(1)})
	_ = fact2.Append(value.Row{value.Int(1), value.Int(99)}) // dangling
	if _, err := BuildSynopsis(db2, "fact", 5, stats.NewRNG(1)); err == nil {
		t.Error("dangling FK accepted")
	}
}

func TestSetForSelectsRoot(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	set, err := BuildAll(db, 50, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	syn, err := set.For([]string{"orders", "lineitem"})
	if err != nil || syn.Root != "lineitem" {
		t.Errorf("For = %v, %v", syn, err)
	}
	syn, err = set.For([]string{"customer", "orders"})
	if err != nil || syn.Root != "orders" {
		t.Errorf("For = %v, %v", syn, err)
	}
	syn, err = set.For([]string{"customer"})
	if err != nil || syn.Root != "customer" {
		t.Errorf("For(customer) = %v, %v", syn, err)
	}
	// lineitem and customer are only joinable through orders, so the set
	// {customer, lineitem} is not a valid FK-join expression: two roots.
	if _, err := set.For([]string{"customer", "lineitem"}); err == nil {
		t.Error("For(customer, lineitem) accepted a disconnected table set")
	}
	if _, err := set.For([]string{"ghost"}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestSetForMissingSynopsis(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	set, err := BuildAll(db, 50, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Remove the lineitem synopsis to simulate limited statistics.
	set.synopses = map[string]*Synopsis{}
	if _, err := set.For([]string{"lineitem"}); err == nil {
		t.Error("missing synopsis accepted")
	}
}

func TestSetAddAndCatalog(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	set, _ := BuildAll(db, 10, stats.NewRNG(1))
	if set.Catalog() != db.Catalog {
		t.Error("Catalog() mismatch")
	}
	syn, _ := BuildTableSample(testkit.Table(db, "customer"), 10, stats.NewRNG(2))
	set.Add(syn)
	got, ok := set.Synopsis("customer")
	if !ok || got != syn {
		t.Error("Add did not replace synopsis")
	}
}

func TestSampleUniformityChiSquare(t *testing.T) {
	// With-replacement sampling should hit each row uniformly.
	db := chainDB(t, 10, 1, 2) // 20 lineitems
	tab := testkit.Table(db, "lineitem")
	counts := make(map[int64]int)
	rng := stats.NewRNG(17)
	const n = 40000
	syn, err := BuildTableSample(tab, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range syn.strata[0].Ints(0) {
		counts[v]++
	}
	expected := float64(n) / 20
	chi2 := 0.0
	for id := int64(0); id < 20; id++ {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// 99.9th percentile of chi-square with 19 dof.
	if chi2 > 43.8 {
		t.Errorf("chi-square = %g", chi2)
	}
}
