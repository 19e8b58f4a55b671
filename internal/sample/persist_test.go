package sample

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

func TestSetSaveLoadRoundTrip(t *testing.T) {
	db := chainDB(t, 20, 2, 3)
	set, err := BuildAll(db, 100, stats.NewRNG(7))
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
	// Every synopsis must round-trip: same root, coverage, population,
	// and exactly the same predicate counts.
	pred := testkit.Expr("l_qty < 25 AND c_region = 2")
	for _, name := range db.Catalog.TableNames() {
		orig, ok1 := set.Synopsis(name)
		back, ok2 := loaded.Synopsis(name)
		if ok1 != ok2 {
			t.Fatalf("%s: presence mismatch", name)
		}
		if !ok1 {
			continue
		}
		if orig.N != back.N || orig.Size() != back.Size() || len(orig.Tables) != len(back.Tables) {
			t.Fatalf("%s: shape mismatch", name)
		}
		if name == "lineitem" {
			k1, err := orig.Count(pred)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := back.Count(pred)
			if err != nil {
				t.Fatal(err)
			}
			if k1 != k2 {
				t.Fatalf("count mismatch: %d vs %d", k1, k2)
			}
		}
	}
	// The loaded set serves For requests.
	if _, err := loaded.For([]string{"lineitem", "orders"}); err != nil {
		t.Errorf("For on loaded set: %v", err)
	}
}

func TestLoadSetValidatesCatalog(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	set, _ := BuildAll(db, 20, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading against a different catalog must fail loudly.
	other := catalog.NewCatalog()
	otherDB := storage.NewDatabase(other)
	if _, err := otherDB.CreateTable(&catalog.TableSchema{
		Name:       "lineitem",
		Columns:    []catalog.Column{{Name: "different", Type: catalog.Int}},
		PrimaryKey: "different",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSet(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("mismatched catalog accepted")
	}
	if _, err := LoadSet(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := LoadSet(strings.NewReader("junk"), db.Catalog); err == nil {
		t.Error("garbage input accepted")
	}
	if _, err := LoadSet(bytes.NewReader(nil), db.Catalog); err == nil {
		t.Error("empty input accepted")
	}
}

// encodeWire writes a versioned statistics stream carrying the given
// synopses, bypassing Save so tests can hand LoadSet malformed payloads.
func encodeWire(t testing.TB, syns ...savedSynopsis) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(setWireMagic[:])
	if err := binary.Write(&buf, binary.BigEndian, uint32(setWireVersion)); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(savedSet{Version: setWireVersion, Synopses: syns}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestLoadSetRejectsCorruptRows(t *testing.T) {
	db := chainDB(t, 5, 2, 2)
	set, _ := BuildAll(db, 20, stats.NewRNG(1))
	syn, _ := set.Synopsis("customer")
	if _, err := LoadSet(encodeWire(t, saveSynopsis(syn)), db.Catalog); err != nil {
		t.Fatalf("valid synopsis rejected: %v", err)
	}

	// One bad row among full-width rows (customer width is 2). An empty
	// row adds nothing to any column, so only a per-row width check sees
	// it. A value whose kind contradicts its field's type (a string in the
	// Int column c_region) would load, and then fail or mislead every
	// count that reads it, unless the row's kinds are checked at load.
	for name, corrupt := range map[string]func([]value.Row){
		"short row":  func(rows []value.Row) { rows[0] = rows[0][:1] },
		"empty row":  func(rows []value.Row) { rows[1] = value.Row{} },
		"both":       func(rows []value.Row) { rows[0] = rows[0][:1]; rows[1] = value.Row{} },
		"wrong kind": func(rows []value.Row) { rows[2] = value.Row{rows[2][0], value.Str("zzz")} },
	} {
		saved := saveSynopsis(syn)
		corrupt(saved.Rows)
		if _, err := LoadSet(encodeWire(t, saved), db.Catalog); err == nil {
			t.Errorf("%s: corrupt row accepted", name)
		}
	}

	// A hostile stream: a schema 10^5 fields wide over 10^5 empty rows is
	// a few hundred KB of gob but would be 400 GB of column capacity if the
	// transposition sized columns from the schema. It must fail validation.
	const wide = 100000
	hostile := savedSynopsis{
		Root: "customer", Tables: []string{"customer"},
		Fields: make([]expr.Field, wide), Rows: make([]value.Row, wide),
	}
	if _, err := LoadSet(encodeWire(t, hostile), db.Catalog); err == nil {
		t.Error("schema wider than the catalog accepted")
	}
}

// FuzzLoadSet drives the statistics decoder with arbitrary bytes: no input
// may panic, and every set it accepts must pass validation and answer
// Count(nil) over every synopsis.
func FuzzLoadSet(f *testing.F) {
	db := partDB(f, 6, 2, 3)
	set, err := BuildAll(db, 30, stats.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := set.Save(&valid); err != nil {
		f.Fatal(err)
	}
	line, _ := set.Synopsis("lineitem")
	unsummed := saveSynopsis(line)
	unsummed.Strata = slices.Clone(unsummed.Strata)
	unsummed.Strata[0].Rows++
	cust, _ := set.Synopsis("customer")
	zeroWidth := saveSynopsis(cust)
	zeroWidth.Rows = append(zeroWidth.Rows, value.Row{})
	wrongKind := saveSynopsis(cust)
	wrongKind.Rows[0] = value.Row{wrongKind.Rows[0][0], value.Str("zzz")}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(encodeWire(f, unsummed).Bytes())
	f.Add(encodeWire(f, zeroWidth).Bytes())
	f.Add(encodeWire(f, wrongKind).Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadSet(bytes.NewReader(data), db.Catalog)
		if err != nil {
			return
		}
		for root, syn := range loaded.synopses {
			if err := validateAgainstCatalog(syn, db.Catalog); err != nil {
				t.Fatalf("accepted synopsis %q fails validation: %v", root, err)
			}
			k, n, pop, err := syn.CountStrata(nil, nil)
			if err != nil {
				t.Fatalf("accepted synopsis %q: Count(nil): %v", root, err)
			}
			if k != n || n != syn.Size() || pop != syn.N {
				t.Fatalf("accepted synopsis %q: Count(nil) = (%d,%d,%d) over %d tuples of %d", root, k, n, pop, syn.Size(), syn.N)
			}
		}
	})
}
