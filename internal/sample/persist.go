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
// by a big-endian uint32 version — written before the gob payload. The
// header exists so per-partition synopses can never be silently misloaded
// from (or into) a pre-partitioning file: version-1 files carried no
// header at all, and any other producer's bytes fail the magic check
// before gob ever sees them.

// setWireMagic opens every versioned synopsis stream.
var setWireMagic = [8]byte{'R', 'Q', 'O', 'S', 'T', 'A', 'T', 'S'}

// setWireVersion guards against decoding incompatible formats. Version 2
// introduced the header itself and the per-shard synopses of partitioned
// tables.
const setWireVersion = 2

// savedSynopsis is the gob wire form of a Synopsis. Partition is the
// shard of the root table the sample was drawn from, or -1 for a
// whole-table synopsis.
type savedSynopsis struct {
	Root      string
	Tables    []string
	Fields    []expr.Field
	Rows      []value.Row
	N         int
	Partition int
}

// savedSet is the gob wire form of a Set. Shards[root] is the shard count
// of each partitioned root, so nil entries (empty shards) round-trip.
type savedSet struct {
	Version  int
	Synopses []savedSynopsis
	Shards   map[string]int
}

// Save serializes the set.
func (s *Set) Save(w io.Writer) error {
	if _, err := w.Write(setWireMagic[:]); err != nil {
		return fmt.Errorf("sample: writing header: %v", err)
	}
	if err := binary.Write(w, binary.BigEndian, uint32(setWireVersion)); err != nil {
		return fmt.Errorf("sample: writing header: %v", err)
	}
	out := savedSet{Version: setWireVersion, Shards: make(map[string]int)}
	// Deterministic order: catalog table order, whole-table synopsis
	// first, then shards ascending.
	for _, name := range s.cat.TableNames() {
		syn, ok := s.synopses[name]
		if !ok {
			continue
		}
		out.Synopses = append(out.Synopses, saveSynopsis(syn, -1))
		shards, ok := s.partitioned[name]
		if !ok {
			continue
		}
		out.Shards[name] = len(shards)
		for p, shard := range shards {
			if shard == nil {
				continue
			}
			out.Synopses = append(out.Synopses, saveSynopsis(shard, p))
		}
	}
	if err := gob.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("sample: encoding synopses: %v", err)
	}
	return nil
}

// saveSynopsis builds the wire form, transposing the column-major sample
// back to the row-major Rows the format has always carried.
func saveSynopsis(syn *Synopsis, part int) savedSynopsis {
	rows := make([]value.Row, syn.Size())
	for i := range rows {
		rows[i] = make(value.Row, len(syn.Cols))
		for c, col := range syn.Cols {
			rows[i][c] = col[i]
		}
	}
	return savedSynopsis{
		Root:      syn.Root,
		Tables:    syn.Tables,
		Fields:    syn.Schema.Fields,
		Rows:      rows,
		N:         syn.N,
		Partition: part,
	}
}

// loadColumns transposes saved rows into column-major storage, refusing
// any row whose width is not the schema's. Every row is checked before
// anything is allocated, so the columns hold exactly the values decoded
// and an unvalidated schema width cannot inflate memory.
func loadColumns(root string, rows []value.Row, width int) ([][]value.Value, error) {
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("sample: synopsis %q row %d has %d values, want %d", root, i, len(row), width)
		}
	}
	cols := newColumns(width, len(rows))
	for _, row := range rows {
		appendRow(cols, row)
	}
	return cols, nil
}

// LoadSet deserializes a set saved with Save. The catalog must describe
// the same schema the statistics were built against; each synopsis is
// validated structurally against it. Streams without the format header
// (version-1 files predate it) and streams with a different version are
// refused with an explicit error rather than decoded on faith.
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
	s := &Set{
		cat:         cat,
		synopses:    make(map[string]*Synopsis),
		partitioned: make(map[string][]*Synopsis, len(in.Shards)),
	}
	for root, n := range in.Shards {
		if n < 2 {
			return nil, fmt.Errorf("sample: root %q declares %d shards", root, n)
		}
		s.partitioned[root] = make([]*Synopsis, n)
	}
	for _, saved := range in.Synopses {
		cols, err := loadColumns(saved.Root, saved.Rows, len(saved.Fields))
		if err != nil {
			return nil, err
		}
		syn := &Synopsis{
			Root:   saved.Root,
			Tables: saved.Tables,
			Schema: expr.RelSchema{Fields: saved.Fields},
			Cols:   cols,
			N:      saved.N,
		}
		if err := validateAgainstCatalog(syn, cat); err != nil {
			return nil, err
		}
		if saved.Partition < 0 {
			s.synopses[syn.Root] = syn
			continue
		}
		shards, ok := s.partitioned[syn.Root]
		if !ok || saved.Partition >= len(shards) {
			return nil, fmt.Errorf("sample: synopsis for %q shard %d outside declared shard count", syn.Root, saved.Partition)
		}
		shards[saved.Partition] = syn
	}
	return s, nil
}

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
	if len(syn.Cols) != width {
		return fmt.Errorf("sample: synopsis %q has %d columns, want %d", syn.Root, len(syn.Cols), width)
	}
	for c, col := range syn.Cols {
		if len(col) != syn.Size() {
			return fmt.Errorf("sample: synopsis %q column %d has %d values, want %d", syn.Root, c, len(col), syn.Size())
		}
	}
	if syn.N < 0 {
		return fmt.Errorf("sample: synopsis %q has negative population", syn.Root)
	}
	return nil
}
