package sample

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// partDB is chainDB with lineitem range-partitioned on l_qty into 4
// shards, so the stratified draw sees a real FK chain.
func partDB(t testing.TB, nCust, ordersPerCust, linesPerOrder int) *storage.Database {
	t.Helper()
	return partDBOf(t, nCust, ordersPerCust, linesPerOrder, &catalog.PartitionSpec{
		Column: "l_qty", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{13, 25, 38},
	})
}

// partDBShards is a small partDB whose lineitem is hash-partitioned into
// the given number of shards.
func partDBShards(t *testing.T, shards int) *storage.Database {
	t.Helper()
	return partDBOf(t, 10, 2, 3, &catalog.PartitionSpec{Column: "l_qty", Kind: catalog.HashPartition, Partitions: shards})
}

func partDBOf(t testing.TB, nCust, ordersPerCust, linesPerOrder int, spec *catalog.PartitionSpec) *storage.Database {
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
		Partition:  spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	oid, lid := int64(0), int64(0)
	for c := 0; c < nCust; c++ {
		_ = cust.Append(value.Row{value.Int(int64(c)), value.Int(int64(c % 5))})
		for o := 0; o < ordersPerCust; o++ {
			_ = orders.Append(value.Row{value.Int(oid), value.Int(int64(c))})
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

// TestBuildAllStratifiesPartitionedRoot: a partitioned root gets one synopsis,
// stratified by shard with proportional allocation, FK-expanded, each
// stratum drawn from its own shard; an unpartitioned root is one stratum.
func TestBuildAllStratifiesPartitionedRoot(t *testing.T) {
	const n = 120
	db := partDB(t, 30, 2, 4)
	set, err := BuildAll(db, n, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	line, _ := db.Table("lineitem")
	syn, ok := set.Synopsis("lineitem")
	if !ok {
		t.Fatal("no synopsis for the partitioned table")
	}
	if len(syn.strata) != 4 {
		t.Fatalf("got %d strata, want 4", len(syn.strata))
	}
	// FK expansion must have run: the synopsis covers the chain.
	if len(syn.Tables) != 3 {
		t.Fatalf("synopsis covers %v, want the 3-table chain", syn.Tables)
	}
	qtyIdx, err := syn.Schema.Resolve(expr.ColumnRef{Table: "lineitem", Column: "l_qty"})
	if err != nil {
		t.Fatal(err)
	}
	rows, popSum := 0, 0
	for p, st := range strataOf(syn) {
		if st.Pop != line.PartitionRows(p) {
			t.Fatalf("stratum %d population %d, shard holds %d", p, st.Pop, line.PartitionRows(p))
		}
		if want := max(1, n*st.Pop/line.NumRows()); st.Pop > 0 && st.Rows != want {
			t.Fatalf("stratum %d holds %d tuples, proportional allocation gives %d", p, st.Rows, want)
		}
		if st.Pop == 0 && st.Rows != 0 {
			t.Fatalf("empty shard %d has %d sample tuples", p, st.Rows)
		}
		// Every sampled tuple's partition key must route to its stratum.
		for i := range st.Rows {
			v := syn.strata[p].Value(i, qtyIdx)
			if got, _ := line.ShardOfKey(v.I); got != p {
				t.Fatalf("stratum %d sampled qty %d belonging to shard %d", p, v.I, got)
			}
		}
		rows += st.Rows
		popSum += st.Pop
	}
	if rows != syn.Size() {
		t.Fatalf("strata hold %d tuples, synopsis has %d", rows, syn.Size())
	}
	if popSum != line.NumRows() || syn.N != popSum {
		t.Fatalf("strata populations sum to %d, N is %d, table holds %d", popSum, syn.N, line.NumRows())
	}
	// Unpartitioned tables are one stratum of the full sample size.
	orders, _ := set.Synopsis("orders")
	if st := strataOf(orders); len(st) != 1 || st[0] != (stratum{Rows: n, Pop: orders.N}) {
		t.Errorf("unpartitioned strata = %v, want one stratum of %d over %d", st, n, orders.N)
	}
}

// strataOf returns each stratum's tuple count and population, in shard
// order.
func strataOf(syn *Synopsis) []stratum { return saveSynopsis(syn).Strata }

// TestCountStrataNilIsEveryStratum is the one-sample contract: nil and
// the explicit all-strata list read the same tuples, for a single-table
// and an FK-join predicate, and a subset sums only its strata.
func TestCountStrataNilIsEveryStratum(t *testing.T) {
	db := partDB(t, 30, 2, 4)
	set, err := BuildAll(db, 200, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	syn, _ := set.Synopsis("lineitem")
	for _, src := range []string{"l_qty < 30", "l_qty >= 10 AND c_region = 2"} {
		pred := testkit.Expr(src)
		k, n, pop, err := syn.CountStrata(pred, nil)
		if err != nil {
			t.Fatal(err)
		}
		k4, n4, pop4, err := syn.CountStrata(pred, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if k != k4 || n != n4 || pop != pop4 {
			t.Errorf("%s: nil (%d,%d,%d) != all strata (%d,%d,%d)", src, k, n, pop, k4, n4, pop4)
		}
		if n != syn.Size() || pop != syn.N {
			t.Errorf("%s: nil observes n=%d pop=%d, synopsis has %d over %d", src, n, pop, syn.Size(), syn.N)
		}
		if kc, _ := syn.Count(pred); kc != k {
			t.Errorf("%s: Count = %d, CountStrata(nil) k = %d", src, kc, k)
		}
		// Listing order does not matter, and the strata partition k.
		kSum, nSum, popSum := 0, 0, 0
		for _, p := range []int{3, 1, 0, 2} {
			kp, np, popp, err := syn.CountStrata(pred, []int{p})
			if err != nil {
				t.Fatal(err)
			}
			if want := strataOf(syn)[p]; np != want.Rows || popp != want.Pop {
				t.Errorf("%s: stratum %d observes n=%d pop=%d, want %v", src, p, np, popp, want)
			}
			kSum, nSum, popSum = kSum+kp, nSum+np, popSum+popp
		}
		if kSum != k || nSum != n || popSum != pop {
			t.Errorf("%s: per-stratum sums (%d,%d,%d) != whole (%d,%d,%d)", src, kSum, nSum, popSum, k, n, pop)
		}
		if kr, _, _, err := syn.CountStrata(pred, []int{2, 0}); err != nil {
			t.Fatal(err)
		} else if kf, _, _, _ := syn.CountStrata(pred, []int{0, 2}); kr != kf {
			t.Errorf("%s: strata order changed k: %d vs %d", src, kr, kf)
		}
	}
}

// TestCountStrataSubsetsMatchBruteForce: for every subset of a 4-shard
// synopsis's strata, CountStrata's k is the sum of the listed strata's
// brute-force counts, for a prefix-only, a residual-only and a mixed
// filter.
func TestCountStrataSubsetsMatchBruteForce(t *testing.T) {
	db := partDB(t, 30, 2, 4)
	set, err := BuildAll(db, 200, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	syn, _ := set.Synopsis("lineitem")
	col := func(table, column string) int {
		c, err := syn.Schema.Resolve(expr.ColumnRef{Table: table, Column: column})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	qty, region, cust := col("lineitem", "l_qty"), col("customer", "c_region"), col("orders", "o_cust")
	for _, c := range []struct {
		pred   string
		accept func(st *storage.Table, i int) bool
	}{
		{"l_qty >= 10 AND c_region = 2", func(st *storage.Table, i int) bool {
			return st.Value(i, qty).I >= 10 && st.Value(i, region).I == 2
		}},
		{"l_qty <> 7 AND c_region <> 1", func(st *storage.Table, i int) bool {
			return st.Value(i, qty).I != 7 && st.Value(i, region).I != 1
		}},
		{"l_qty BETWEEN 5 AND 40 AND o_cust <> 3 AND c_region < 4", func(st *storage.Table, i int) bool {
			q := st.Value(i, qty).I
			return q >= 5 && q <= 40 && st.Value(i, cust).I != 3 && st.Value(i, region).I < 4
		}},
	} {
		brute := make([]int, len(syn.strata))
		for p, st := range syn.strata {
			for i := range st.NumRows() {
				if c.accept(st, i) {
					brute[p]++
				}
			}
		}
		if total := brute[0] + brute[1] + brute[2] + brute[3]; total == 0 || total == syn.Size() {
			t.Fatalf("%s: brute force matched %d of %d; the case discriminates nothing", c.pred, total, syn.Size())
		}
		for mask := range 1 << len(syn.strata) {
			strata, want := []int{}, 0
			for p := range syn.strata {
				if mask&(1<<p) != 0 {
					strata = append(strata, p)
					want += brute[p]
				}
			}
			k, _, _, err := syn.CountStrata(testkit.Expr(c.pred), strata)
			if err != nil {
				t.Fatal(err)
			}
			if k != want {
				t.Errorf("%s strata %v: k = %d, brute force %d", c.pred, strata, k, want)
			}
		}
	}
}

// TestCountStrataRejectsBadIndexes: a shard outside the synopsis's strata,
// or one listed twice, is an error — never silently skipped or counted
// twice.
func TestCountStrataRejectsBadIndexes(t *testing.T) {
	db := partDB(t, 10, 2, 4)
	set, err := BuildAll(db, 60, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	line, _ := set.Synopsis("lineitem")
	cust, _ := set.Synopsis("customer")
	for _, c := range []struct {
		syn    *Synopsis
		strata []int
		want   string
	}{
		{line, []int{6}, "no stratum 6"},
		{line, []int{-1}, "no stratum -1"},
		{line, []int{1, 1}, "stratum 1 listed twice"},
		{cust, []int{1}, "no stratum 1"},
	} {
		_, _, _, err := c.syn.CountStrata(nil, c.strata)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s strata %v: err = %v, want %q", c.syn.Root, c.strata, err, c.want)
		}
	}
	if k, n, pop, err := cust.CountStrata(nil, []int{0}); err != nil || k != n || n != cust.Size() || pop != cust.N {
		t.Errorf("unpartitioned stratum 0 = (%d,%d,%d), %v", k, n, pop, err)
	}
}

// TestUnpartitionedDrawsPinned pins the sample draws of a database without
// partitioned tables: these counts were recorded before the stratified
// draw replaced the separate whole-table and per-shard samples, and an
// unpartitioned root must still draw exactly the same tuples.
func TestUnpartitionedDrawsPinned(t *testing.T) {
	db := chainDB(t, 20, 3, 4)
	set, err := BuildAll(db, 200, stats.NewRNG(2005))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		root, pred string
		k          int
	}{
		{"lineitem", "l_qty < 10", 46},
		{"lineitem", "l_qty BETWEEN 20 AND 30 AND o_priority = 1", 10},
		{"lineitem", "c_region = 2 AND l_qty >= 25", 9},
		{"orders", "o_priority = 0", 61},
		{"orders", "c_region < 3 AND o_priority = 2", 57},
		{"customer", "c_region = 4", 44},
	} {
		syn, _ := set.Synopsis(c.root)
		k, err := syn.Count(testkit.Expr(c.pred))
		if err != nil {
			t.Fatal(err)
		}
		if k != c.k {
			t.Errorf("%s: %s matches %d sample tuples, pinned %d", c.root, c.pred, k, c.k)
		}
	}
}

// TestPartitionedPersistRoundTrip: a v3 stream carries each root's strata,
// and every stratum counts the same after the round trip.
func TestPartitionedPersistRoundTrip(t *testing.T) {
	db := partDB(t, 20, 2, 3)
	set, err := BuildAll(db, 80, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(&buf, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := set.Synopsis("lineitem")
	back, ok := loaded.Synopsis("lineitem")
	if !ok || !slices.Equal(strataOf(orig), strataOf(back)) {
		t.Fatalf("strata did not round-trip: %v vs %v", strataOf(orig), strataOf(back))
	}
	pred := testkit.Expr("l_qty < 25 AND c_region = 2")
	for p := range orig.strata {
		k1, n1, pop1, err := orig.CountStrata(pred, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		k2, n2, pop2, err := back.CountStrata(pred, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 || n1 != n2 || pop1 != pop2 {
			t.Fatalf("stratum %d mismatch after round-trip: (%d,%d,%d) vs (%d,%d,%d)", p, k1, n1, pop1, k2, n2, pop2)
		}
	}
}

// partSaved returns the wire form of partDB's partitioned lineitem
// synopsis, for tests that corrupt it before LoadSet sees it.
func partSaved(t *testing.T) (*storage.Database, savedSynopsis) {
	t.Helper()
	db := partDB(t, 10, 2, 3)
	set, err := BuildAll(db, 40, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	syn, _ := set.Synopsis("lineitem")
	saved := saveSynopsis(syn)
	if _, err := LoadSet(encodeWire(t, saved), db.Catalog); err != nil {
		t.Fatalf("valid partitioned synopsis rejected: %v", err)
	}
	return db, saved
}

// TestLoadSetRefusesStrataCountMismatch: statistics drawn over 4 shards
// must not load into a catalog that partitions the table 8 ways — every
// pruned request would otherwise name strata that do not exist.
func TestLoadSetRefusesStrataCountMismatch(t *testing.T) {
	_, saved := partSaved(t)
	db8 := partDBShards(t, 8)
	_, err := LoadSet(encodeWire(t, saved), db8.Catalog)
	if err == nil || !strings.Contains(err.Error(), "has 4 strata, catalog table has 8 partitions") {
		t.Fatalf("4-stratum synopsis into an 8-partition catalog: %v", err)
	}
}

// TestLoadSetRefusesStrataRowsMismatch: strata whose tuple counts do not
// sum to the sample size would misattribute tuples to shards.
func TestLoadSetRefusesStrataRowsMismatch(t *testing.T) {
	db, saved := partSaved(t)
	for name, corrupt := range map[string]func([]stratum){
		"short":    func(st []stratum) { st[0].Rows-- },
		"long":     func(st []stratum) { st[3].Rows++ },
		"negative": func(st []stratum) { st[1].Rows = -st[1].Rows - 1 },
	} {
		bad := saved
		bad.Strata = slices.Clone(saved.Strata)
		corrupt(bad.Strata)
		if _, err := LoadSet(encodeWire(t, bad), db.Catalog); err == nil {
			t.Errorf("%s: strata rows %v accepted for %d tuples", name, bad.Strata, len(bad.Rows))
		}
	}
}

// TestLoadSetRefusesStrataPopulation: stratum populations must be
// non-negative and sum to N, or pruned estimates scale by the wrong rows.
func TestLoadSetRefusesStrataPopulation(t *testing.T) {
	db, saved := partSaved(t)
	for name, corrupt := range map[string]func(*savedSynopsis){
		"negative":  func(s *savedSynopsis) { s.Strata[0].Pop, s.Strata[1].Pop = -1, s.Strata[1].Pop+s.Strata[0].Pop+1 },
		"short sum": func(s *savedSynopsis) { s.Strata[2].Pop-- },
		"N moved":   func(s *savedSynopsis) { s.N++ },
	} {
		bad := saved
		bad.Strata = slices.Clone(saved.Strata)
		corrupt(&bad)
		if _, err := LoadSet(encodeWire(t, bad), db.Catalog); err == nil {
			t.Errorf("%s: strata populations %v accepted for N=%d", name, bad.Strata, bad.N)
		}
	}
}

// TestLoadSetRefusesHeaderless is the satellite regression test: a
// version-1 file (raw gob, no header — what pre-partitioning builds
// wrote) must be refused with an explicit error, not misloaded.
func TestLoadSetRefusesHeaderless(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(savedSet{Version: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSet(bytes.NewReader(v1.Bytes()), db.Catalog)
	if err == nil {
		t.Fatal("headerless version-1 stream accepted")
	}
	if !strings.Contains(err.Error(), "format-version header") {
		t.Fatalf("headerless refusal lacks a clear message: %v", err)
	}
}

// TestLoadSetRefusesWrongVersion pins the versioned refusal: right magic,
// wrong version number — including version 2, whose partitioned roots
// carried a whole-table synopsis beside per-shard ones.
func TestLoadSetRefusesWrongVersion(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	for _, v := range []int{2, 99} {
		var buf bytes.Buffer
		buf.Write(setWireMagic[:])
		if err := binary.Write(&buf, binary.BigEndian, uint32(v)); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&buf).Encode(savedSet{Version: v}); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSet(bytes.NewReader(buf.Bytes()), db.Catalog)
		if err == nil {
			t.Fatalf("version-%d stream accepted", v)
		}
		if want := fmt.Sprintf("unsupported statistics format version %d", v); !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "rebuild with UPDATE STATISTICS") {
			t.Fatalf("version-%d refusal lacks a clear message: %v", v, err)
		}
	}
}

// TestLoadSetRefusesTruncatedHeader: a short stream fails at the header
// read, not deep inside gob.
func TestLoadSetRefusesTruncatedHeader(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	if _, err := LoadSet(bytes.NewReader([]byte("RQOS")), db.Catalog); err == nil {
		t.Fatal("truncated header accepted")
	}
}
