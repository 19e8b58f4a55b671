package sample

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// Statistics are expensive to recompute (a scan per table) relative to
// their size (a few hundred tuples per table), so the set supports
// serialization: build once at UPDATE STATISTICS time, persist, reload in
// any process using the same catalog.
//
// The stream opens with an explicit format header — magic bytes followed
// by a big-endian uint32 version — written before the gob payload, so a
// file from an incompatible version is refused rather than misread:
// version-1 files carried no header at all, and any other producer's bytes
// fail the magic check before gob ever sees them.

// setWireMagic opens every versioned synopsis stream.
var setWireMagic = [8]byte{'R', 'Q', 'O', 'S', 'T', 'A', 'T', 'S'}

// setWireVersion guards against decoding incompatible formats. Version 2
// introduced the header and carried a whole-table synopsis beside per-shard
// ones; version 3 carries one synopsis per root with its strata.
const setWireVersion = 3

// savedSynopsis is the gob wire form of a Synopsis. Rows holds the strata
// in shard order; Strata[p] is stratum p's tuple count and population.
// Gob writes type names, so these types' names are part of the format.
type savedSynopsis struct {
	Root   string
	Tables []string
	Fields []expr.Field
	Rows   []value.Row
	N      int
	Strata []stratum
}

// stratum is the wire form of one stratum: Rows sample tuples drawn
// uniformly from Pop rows.
type stratum struct {
	Rows, Pop int
}

// savedSet is the gob wire form of a Set.
type savedSet struct {
	Version  int
	Synopses []savedSynopsis
}

// Save serializes the set.
func (s *Set) Save(w io.Writer) error {
	if _, err := w.Write(setWireMagic[:]); err != nil {
		return fmt.Errorf("sample: writing header: %v", err)
	}
	if err := binary.Write(w, binary.BigEndian, uint32(setWireVersion)); err != nil {
		return fmt.Errorf("sample: writing header: %v", err)
	}
	out := savedSet{Version: setWireVersion}
	// Deterministic order: catalog table order.
	for _, name := range s.cat.TableNames() {
		if syn, ok := s.synopses[name]; ok {
			out.Synopses = append(out.Synopses, saveSynopsis(syn))
		}
	}
	if err := gob.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("sample: encoding synopses: %v", err)
	}
	return nil
}

// saveSynopsis builds the wire form: the strata's tuples, row by row, in
// shard order.
func saveSynopsis(syn *Synopsis) savedSynopsis {
	out := savedSynopsis{Root: syn.Root, Tables: syn.Tables, Fields: syn.Schema.Fields, N: syn.N}
	for p, st := range syn.strata {
		for i := range st.NumRows() {
			out.Rows = append(out.Rows, st.Row(i))
		}
		out.Strata = append(out.Strata, stratum{Rows: st.NumRows(), Pop: syn.pops[p]})
	}
	return out
}

// LoadSet deserializes a set saved with Save. The catalog must describe
// the same schema the statistics were built against; each synopsis is
// validated structurally against it, down to its strata matching the
// table's partitions. Streams without the format header (version-1 files
// predate it) and streams with a different version are refused with an
// explicit error rather than decoded on faith.
func LoadSet(r io.Reader, cat *catalog.Catalog) (*Set, error) {
	if cat == nil {
		return nil, fmt.Errorf("sample: LoadSet requires a catalog")
	}
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("sample: reading header: %v", err)
	}
	if magic != setWireMagic {
		return nil, fmt.Errorf("sample: statistics file has no format-version header (saved by a pre-partitioning version?); rebuild with UPDATE STATISTICS")
	}
	var version uint32
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("sample: reading header: %v", err)
	}
	if version != setWireVersion {
		return nil, fmt.Errorf("sample: unsupported statistics format version %d (want %d); rebuild with UPDATE STATISTICS", version, setWireVersion)
	}
	var in savedSet
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("sample: decoding synopses: %v", err)
	}
	if in.Version != setWireVersion {
		return nil, fmt.Errorf("sample: header version %d disagrees with payload version %d", version, in.Version)
	}
	s := &Set{cat: cat, synopses: make(map[string]*Synopsis, len(in.Synopses))}
	for _, saved := range in.Synopses {
		syn, err := loadSynopsis(saved, cat)
		if err != nil {
			return nil, err
		}
		s.synopses[syn.Root] = syn
	}
	return s, nil
}

// loadSynopsis rebuilds a saved synopsis. Its schema, population and
// strata are validated against the catalog before any stratum table is
// made; then each saved row is appended to its stratum's table, whose
// checks refuse a row of the wrong width or a value whose kind
// contradicts its field's type.
func loadSynopsis(saved savedSynopsis, cat *catalog.Catalog) (*Synopsis, error) {
	syn := &Synopsis{
		Root:   saved.Root,
		Tables: saved.Tables,
		Schema: expr.RelSchema{Fields: saved.Fields},
		N:      saved.N,
		pops:   make([]int, len(saved.Strata)),
	}
	for p, st := range saved.Strata {
		syn.pops[p] = st.Pop
	}
	if err := validateAgainstCatalog(syn, cat); err != nil {
		return nil, err
	}
	rows := saved.Rows
	for p, st := range saved.Strata {
		if st.Rows < 0 || st.Rows > len(rows) {
			return nil, fmt.Errorf("sample: synopsis %q stratum %d holds %d of the %d sample tuples left", syn.Root, p, st.Rows, len(rows))
		}
		t := newStratum(syn.Root, syn.Schema)
		for _, row := range rows[:st.Rows] {
			if err := t.Append(row); err != nil {
				return nil, fmt.Errorf("sample: synopsis %q stratum %d: %v", syn.Root, p, err)
			}
		}
		syn.strata = append(syn.strata, t)
		rows = rows[st.Rows:]
	}
	if len(rows) > 0 {
		return nil, fmt.Errorf("sample: synopsis %q strata hold %d tuples, sample has %d", syn.Root, len(saved.Rows)-len(rows), len(saved.Rows))
	}
	return syn, nil
}

// validateAgainstCatalog checks a synopsis's table list and schema
// against the catalog, and its strata populations (validateStrata).
func validateAgainstCatalog(syn *Synopsis, cat *catalog.Catalog) error {
	if len(syn.Tables) == 0 || syn.Tables[0] != syn.Root {
		return fmt.Errorf("sample: synopsis %q has malformed table list %v", syn.Root, syn.Tables)
	}
	width := 0
	for _, t := range syn.Tables {
		s, ok := cat.Table(t)
		if !ok {
			return fmt.Errorf("sample: synopsis %q covers unknown table %q", syn.Root, t)
		}
		for _, col := range s.Columns {
			if width >= len(syn.Schema.Fields) {
				return fmt.Errorf("sample: synopsis %q schema narrower than catalog", syn.Root)
			}
			f := syn.Schema.Fields[width]
			if f.Table != t || f.Column != col.Name || f.Type != col.Type {
				return fmt.Errorf("sample: synopsis %q field %d is %s.%s %s, catalog has %s.%s %s",
					syn.Root, width, f.Table, f.Column, f.Type, t, col.Name, col.Type)
			}
			width++
		}
	}
	if width != len(syn.Schema.Fields) {
		return fmt.Errorf("sample: synopsis %q schema wider than catalog", syn.Root)
	}
	if syn.N < 0 {
		return fmt.Errorf("sample: synopsis %q has negative population", syn.Root)
	}
	return validateStrata(syn, cat)
}

// validateStrata checks that a synopsis has one stratum per partition of
// its root table (one for an unpartitioned table) and that their
// populations are non-negative and sum to N.
func validateStrata(syn *Synopsis, cat *catalog.Catalog) error {
	want := 1
	// validateAgainstCatalog has resolved the root already.
	if t, _ := cat.Table(syn.Root); t.Partition != nil && t.Partition.Partitions > 1 {
		want = t.Partition.Partitions
	}
	if len(syn.pops) != want {
		return fmt.Errorf("sample: synopsis %q has %d strata, catalog table has %d partitions", syn.Root, len(syn.pops), want)
	}
	pop := 0
	for p, n := range syn.pops {
		if n < 0 || n > syn.N-pop {
			return fmt.Errorf("sample: synopsis %q stratum %d population %d outside the %d left of N", syn.Root, p, n, syn.N-pop)
		}
		pop += n
	}
	if pop != syn.N {
		return fmt.Errorf("sample: synopsis %q strata populations sum to %d, N is %d", syn.Root, pop, syn.N)
	}
	return nil
}
