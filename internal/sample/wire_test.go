package sample_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// TestSaveBytesPinned pins the statistics wire format byte for byte:
// Save of a fixed tpch set, unpartitioned and with lineitem in 4 shards,
// must reproduce the files under testdata, whose sha256 is pinned here.
// Those files were written by the column-major synopsis that predates the
// stratum tables, so they also show that statistics files saved before
// that change still load, and load to the same set.
func TestSaveBytesPinned(t *testing.T) {
	for _, c := range []struct {
		shards int
		sha256 string
	}{
		{1, "2202e7122d4dfa6d3ec98b04897c3e0b9a5b60a12f9454f327cf2d760c27041b"},
		{4, "f6298f5fb341fbfd4cb53ccfb4e3cc0c2ba83143b3913f623c8fe9e421d72ac3"},
	} {
		file, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("v3-tpch-%dshard.stats", c.shards)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Fatalf("%d shards: testdata sha256 %x, pinned %s", c.shards, sum, c.sha256)
		}
		db, err := tpch.Generate(tpch.Config{Lines: 1200, Parts: 200, Partitions: c.shards, Seed: 36})
		if err != nil {
			t.Fatal(err)
		}
		set, err := sample.BuildAll(db, 24, stats.NewRNG(36))
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := set.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), file) {
			t.Errorf("%d shards: Save wrote %d bytes (sha256 %x), the pinned file has %d", c.shards, saved.Len(), sha256.Sum256(saved.Bytes()), len(file))
		}
		loaded, err := sample.LoadSet(bytes.NewReader(file), db.Catalog)
		if err != nil {
			t.Fatalf("%d shards: pinned file does not load: %v", c.shards, err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), file) {
			t.Errorf("%d shards: the loaded file saves to different bytes", c.shards)
		}
	}
}
