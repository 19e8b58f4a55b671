package colstore_test

import (
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/tpch"
)

// TestCompressionFloor holds the encodings to what they are for: on the
// TPC-H-like database laid out in ship-date order, the encoded segments
// of every table together are at most half the resident size of the raw
// column data they replace. (An external test package, because tpch
// reaches colstore through the engine.)
func TestCompressionFloor(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 5000, Seed: 2005, ClusterDates: true})
	if err != nil {
		t.Fatal(err)
	}
	encs, err := colstore.BuildAll(db)
	if err != nil {
		t.Fatal(err)
	}
	raw, enc := encs.RawBytes(), encs.EncodedBytes()
	ratio := float64(raw) / float64(enc)
	if ratio < 2 {
		t.Fatalf("raw %d bytes / encoded %d bytes = %.2fx, want >= 2x", raw, enc, ratio)
	}
	t.Logf("raw %d bytes / encoded %d bytes = %.2fx", raw, enc, ratio)
}
