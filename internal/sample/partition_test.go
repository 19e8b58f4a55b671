package sample

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// partDB is chainDB with lineitem range-partitioned on l_qty into 4
// shards, so the per-shard synopsis machinery sees a real FK chain.
func partDB(t *testing.T, nCust, ordersPerCust, linesPerOrder int) *storage.Database {
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
		Partition: &catalog.PartitionSpec{
			Column: "l_qty", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{13, 25, 38},
		},
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

func TestBuildPartitionSynopses(t *testing.T) {
	db := partDB(t, 30, 2, 4)
	set, err := BuildAll(db, 120, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	line, _ := db.Table("lineitem")
	shards, ok := set.Partitioned("lineitem")
	if !ok {
		t.Fatal("no per-shard synopses for the partitioned table")
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shard synopses, want 4", len(shards))
	}
	popSum := 0
	for p, syn := range shards {
		if syn == nil {
			if line.PartitionRows(p) != 0 {
				t.Fatalf("shard %d non-empty but has no synopsis", p)
			}
			continue
		}
		if syn.N != line.PartitionRows(p) {
			t.Fatalf("shard %d synopsis population %d, shard holds %d", p, syn.N, line.PartitionRows(p))
		}
		if syn.Size() < 1 {
			t.Fatalf("shard %d synopsis is empty", p)
		}
		// FK expansion must have run: the shard synopsis covers the chain.
		if len(syn.Tables) != 3 {
			t.Fatalf("shard %d covers %v, want the 3-table chain", p, syn.Tables)
		}
		// Every sampled tuple's partition key must route to this shard.
		qtyIdx := -1
		for i, f := range syn.Schema.Fields {
			if f.Table == "lineitem" && f.Column == "l_qty" {
				qtyIdx = i
			}
		}
		for _, v := range syn.Cols[qtyIdx] {
			if got, _ := line.ShardOfKey(v.I); got != p {
				t.Fatalf("shard %d sampled qty %d belonging to shard %d", p, v.I, got)
			}
		}
		popSum += syn.N
	}
	if popSum != line.NumRows() {
		t.Fatalf("shard populations sum to %d, table holds %d", popSum, line.NumRows())
	}
	// ForShards resolves join requests rooted at the partitioned table.
	if _, ok := set.ForShards([]string{"lineitem", "orders"}); !ok {
		t.Error("ForShards failed for a covered join")
	}
	// ...but not requests rooted elsewhere.
	if _, ok := set.ForShards([]string{"customer"}); ok {
		t.Error("ForShards matched an unpartitioned root")
	}
	// Unpartitioned tables have no shard synopses.
	if _, ok := set.Partitioned("orders"); ok {
		t.Error("unpartitioned table has shard synopses")
	}
}

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
	orig, _ := set.Partitioned("lineitem")
	back, ok := loaded.Partitioned("lineitem")
	if !ok || len(back) != len(orig) {
		t.Fatalf("per-shard synopses did not round-trip: ok=%v len=%d want %d", ok, len(back), len(orig))
	}
	pred := testkit.Expr("l_qty < 25 AND c_region = 2")
	for p := range orig {
		if (orig[p] == nil) != (back[p] == nil) {
			t.Fatalf("shard %d presence mismatch", p)
		}
		if orig[p] == nil {
			continue
		}
		k1, err := orig[p].Count(pred)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := back[p].Count(pred)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 || orig[p].N != back[p].N {
			t.Fatalf("shard %d mismatch after round-trip: k %d vs %d, N %d vs %d",
				p, k1, k2, orig[p].N, back[p].N)
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
// wrong version number.
func TestLoadSetRefusesWrongVersion(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	var buf bytes.Buffer
	buf.Write(setWireMagic[:])
	if err := binary.Write(&buf, binary.BigEndian, uint32(99)); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(savedSet{Version: 99}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSet(bytes.NewReader(buf.Bytes()), db.Catalog)
	if err == nil {
		t.Fatal("wrong-version stream accepted")
	}
	if !strings.Contains(err.Error(), "unsupported statistics format version 99") {
		t.Fatalf("version refusal lacks a clear message: %v", err)
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
